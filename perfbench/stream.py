"""The seeded request stream of the ``service_mix`` workload.

:func:`request_specs` turns a seed into a list of plain-data request specs;
:func:`build_request` turns one spec into the library request the client
submits.  The program only ever sees the built requests.

The stream is made of blocks of ``BLOCK`` requests whose kinds are shuffled
inside the block, so every prefix of the stream holds close to the same
shares:

* ``replay``: an exact resubmission of one of the last few distinct
  envelope requests (a cache hit, about 1 ms);
* ``replay_ensemble``: an exact resubmission of a recent ensemble (a cache
  hit that decodes megabytes);
* ``cold``: an envelope on a new control-offset family, so the worker runs
  the §4.1 initial condition first;
* ``seed``: an envelope on a known family over a new window (a warm-start
  seed hit);
* ``ensemble``: a new ``B = 64`` control-voltage set on the compiled
  lock-step march.

Replays are 14 of every 20 requests (70 %), so the median latency sits in
the replay mode and the 90th percentile in the compute mode, each at least
10 percentage points from the boundary between them.
"""

from __future__ import annotations

import random

BLOCK_KINDS = (("replay",) * 13 + ("replay_ensemble",) + ("cold",)
               + ("seed",) * 2 + ("ensemble",) * 3)
BLOCK = len(BLOCK_KINDS)

#: Control offset [V] and window of the family the set-up warms the pool
#: with; stream families are drawn away from it.
WARMUP_OFFSET = 1.5
#: Control offsets [V] new families are drawn from.  The §4.1 initial
#: condition does not converge at some offsets (1.655, 1.675, 1.695 and
#: 1.95 V among those probed); every offset of this 10 mV grid converges.
FAMILY_OFFSETS = tuple(1.0 + 0.01 * k for k in range(91))
#: Envelope window length [s] (100 steps; a quarter of the vacuum VCO's
#: 40 us control period) and the grid window starts are drawn from.
WINDOW = 10e-6
WINDOW_STARTS = 16
ENVELOPE_STEPS = 100
#: Ensemble batch size and march horizon in nominal VCO periods (a 3 MB
#: trajectory); one horizon keeps every ensemble the same amount of work.
BATCH = 64
HORIZON = 16
#: Replays draw from the last few distinct requests of their kind, which
#: the service's 32-entry result cache still holds.
RECENT_ENVELOPES = 8
RECENT_ENSEMBLES = 3


def warmup_specs():
    """The two requests the set-up submits: they spawn the pool worker and
    build its two C kernels (scalar and stacked-parameter VCO)."""
    return [
        ("envelope", WARMUP_OFFSET, 0.0),
        ("ensemble", tuple([1.0] * BATCH), 2),
    ]


def request_specs(seed, blocks=80):
    """Plain-data specs of the seeded stream.

    Each spec is ``(kind, key)`` where ``key`` is the hashable description
    of the request (``("envelope", offset, window_start)`` or
    ``("ensemble", voltages, horizon_periods)``); a replay repeats the
    ``key`` of an earlier request.
    """
    if blocks >= len(FAMILY_OFFSETS):
        raise ValueError("each block needs a new family offset")
    rng = random.Random(seed)
    families = {WARMUP_OFFSET: {0}}
    envelopes = [warmup_specs()[0]]
    ensembles = [warmup_specs()[1]]
    specs = []
    for _ in range(blocks):
        kinds = list(BLOCK_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "replay":
                key = rng.choice(envelopes[-RECENT_ENVELOPES:])
            elif kind == "replay_ensemble":
                key = rng.choice(ensembles[-RECENT_ENSEMBLES:])
            elif kind == "ensemble":
                voltages = tuple(sorted(
                    round(rng.uniform(0.8, 2.4), 4) for _ in range(BATCH)))
                key = ("ensemble", voltages, HORIZON)
                ensembles.append(key)
            else:
                if kind == "cold":
                    offset = WARMUP_OFFSET
                    while offset in families:
                        offset = round(rng.choice(FAMILY_OFFSETS), 2)
                    families[offset] = set()
                else:
                    known = [o for o, used in families.items()
                             if len(used) < WINDOW_STARTS]
                    offset = rng.choice(known)
                used = families[offset]
                start = rng.choice(
                    [k for k in range(WINDOW_STARTS) if k not in used])
                used.add(start)
                key = ("envelope", offset, start * WINDOW / 4)
                envelopes.append(key)
            specs.append((kind, key))
    return specs


def build_request(key):
    """The library request a spec key describes."""
    from dataclasses import replace

    import numpy as np

    from repro.api import EnsembleRequest, EnvelopeRequest
    from repro.circuits.library import T_NOMINAL, MemsVcoDae, VcoParams
    from repro.dae import ensemble_from_factory
    from repro.transient import TransientOptions
    from repro.wampde import WampdeEnvelopeOptions

    base = VcoParams.vacuum()
    if key[0] == "envelope":
        _, offset, start = key
        params = replace(base, control_offset=offset)
        return EnvelopeRequest(
            dae=MemsVcoDae(params), t2_start=start, t2_stop=start + WINDOW,
            num_steps=ENVELOPE_STEPS,
            unforced_dae=MemsVcoDae(params, constant_control=True),
            num_t1=25, period_guess=T_NOMINAL,
            options=WampdeEnvelopeOptions(),
        )
    _, voltages, periods = key
    ensemble = ensemble_from_factory(
        _vacuum_vco, np.asarray(voltages), _vacuum_vco)
    return EnsembleRequest(
        dae=ensemble, x0=np.tile([1.0, 0.0, 0.0, 0.0], (len(voltages), 1)),
        t_start=0.0, t_stop=periods * T_NOMINAL,
        options=TransientOptions(integrator="trap", dt=T_NOMINAL / 100),
    )


def _vacuum_vco(offset):
    """Constant-control vacuum VCO; ``offset`` may be a per-scenario array,
    so this serves as both member and stacked ensemble factory."""
    from dataclasses import replace

    from repro.circuits.library import MemsVcoDae, VcoParams

    return MemsVcoDae(replace(VcoParams.vacuum(), control_offset=offset),
                      constant_control=True)
