"""Serializable analysis requests and the unified ``run()`` dispatcher.

Every analysis the library offers is describable as a request dataclass:
the target system, the window/grid, and an engine options object.  One
request is one unit of work with a uniform surface —

* ``run(warm_start=None)`` executes it in-process and returns the
  engine's native result object (every result supports
  ``to_dict``/``from_dict``, see :mod:`repro.api.serialize`);
* ``cache_key()`` is the exact content key (``None`` when the request
  carries unserializable parts such as factory callables);
* ``seed_key()`` is the warm-start *family* key: requests that share it
  can reuse each other's settled state even when windows or tolerances
  differ;
* ``extract_warm_start(result)`` distils a finished result into the
  :class:`~repro.service.cache.WarmStart` future runs seed from;
* ``shards()``/``merge(results)`` split independent sub-requests for the
  service's worker pool and recombine their results.

The CLI and :class:`repro.service.SimulationService` both speak this
vocabulary; the classic ``solve_*``/``simulate_*`` entry points remain as
the engine layer underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api.serialize import (
    SerializableMixin,
    SerializationError,
    from_jsonable,
)
from repro.errors import SimulationError


def _content_key(obj, scope=""):
    from repro.service.keys import content_key

    return content_key(obj, scope=scope)


def _warm_start(**fields):
    from repro.service.cache import WarmStart

    return WarmStart(**fields)


@dataclass(eq=False)
class AnalysisRequest(SerializableMixin):
    """Base class of the request vocabulary (see module doc)."""

    #: Stable analysis tag, mixed into content keys.
    kind = "analysis"

    def run(self, warm_start=None):
        """Execute in-process; returns the engine's result object."""
        raise NotImplementedError

    def cache_key(self):
        """Exact content key, or ``None`` when unserializable."""
        return _content_key(self, scope=f"request/{self.kind}")

    def seed_key(self):
        """Warm-start family key, or ``None`` when the analysis has no
        reusable settled state (or the request is unserializable)."""
        return None

    def extract_warm_start(self, result):
        """Distil ``result`` into a warm-start seed, or ``None``."""
        return None

    def shards(self):
        """Independent sub-requests for a worker pool, or ``None``.

        ``None`` means the request is indivisible (or its pieces are
        order-dependent, like continuation sweeps) and runs as one job.
        """
        return None

    def merge(self, results):
        """Recombine shard results (same order as :meth:`shards`)."""
        raise NotImplementedError

    @staticmethod
    def _warm_fields(result):
        """``factor_meta``/``solver_state`` exported in ``result.stats``."""
        warm = {}
        stats = getattr(result, "stats", None)
        if isinstance(stats, dict):
            warm = stats.get("warm") or {}
        return warm.get("factor_meta"), warm.get("solver_state")


@dataclass(eq=False)
class TransientRequest(AnalysisRequest):
    """``simulate_transient`` as a request."""

    dae: object = None
    x0: object = None
    t_start: float = 0.0
    t_stop: float = 0.0
    options: object = None

    kind = "transient"

    def run(self, warm_start=None):
        from repro.transient.engine import simulate_transient

        return simulate_transient(
            self.dae, self.x0, self.t_start, self.t_stop, self.options,
            warm_start=warm_start,
        )

    def extract_warm_start(self, result):
        factor_meta, solver_state = self._warm_fields(result)
        return _warm_start(
            x0=np.array(result.x[-1], dtype=float),
            factor_meta=factor_meta,
            solver_state=solver_state,
        )


@dataclass(eq=False)
class EnvelopeRequest(AnalysisRequest):
    """WaMPDE envelope run, with its initial-condition pipeline folded in.

    When ``initial_samples``/``omega0`` are not given (and no warm-start
    seed supplies them), the request runs the paper's §4.1 initialisation
    — DC point → settling transient → autonomous HB on ``unforced_dae``
    — which is exactly the expensive prefix the warm-start cache
    amortises across submissions.
    """

    dae: object = None
    t2_start: float = 0.0
    t2_stop: float = 0.0
    num_steps: int = 0
    initial_samples: object = None
    omega0: object = None
    unforced_dae: object = None
    num_t1: int = 25
    period_guess: object = None
    settle_cycles: int = 40
    steps_per_cycle: int = 60
    options: object = None
    resume_from: object = None

    kind = "envelope"

    def _options(self):
        from repro.wampde.envelope import WampdeEnvelopeOptions

        return self.options or WampdeEnvelopeOptions()

    def _initial(self, warm_start):
        """Starting ``(samples, omega0)``, running the §4.1 pipeline only
        when neither the request nor the warm seed supplies them."""
        samples, omega0 = self.initial_samples, self.omega0
        if samples is None and warm_start is not None:
            if getattr(warm_start, "samples", None) is not None:
                return None, omega0  # engine fills both from the seed
        if samples is None:
            if self.unforced_dae is None:
                raise SimulationError(
                    "EnvelopeRequest needs initial_samples, a warm-start "
                    "seed, or an unforced_dae + period_guess to build one"
                )
            from repro.wampde.initial_condition import (
                oscillator_initial_condition,
            )

            opts = self._options()
            samples, omega0 = oscillator_initial_condition(
                self.unforced_dae,
                num_t1=self.num_t1,
                phase_condition=opts.phase_condition,
                phase_variable=opts.phase_variable,
                period_guess=self.period_guess,
                settle_cycles=self.settle_cycles,
                steps_per_cycle=self.steps_per_cycle,
            )
        return samples, omega0

    def run(self, warm_start=None):
        from repro.wampde.envelope import solve_wampde_envelope

        samples, omega0 = self._initial(warm_start)
        return solve_wampde_envelope(
            self.dae, samples, omega0, self.t2_start, self.t2_stop,
            self.num_steps, self._options(), resume_from=self.resume_from,
            warm_start=warm_start,
        )

    def seed_key(self):
        opts = self._options()
        return _content_key(
            {
                "dae": self.dae,
                "unforced_dae": self.unforced_dae,
                "num_t1": self.num_t1,
                "phase_condition": opts.phase_condition,
                "phase_variable": opts.phase_variable,
            },
            scope=f"seed/{self.kind}",
        )

    def extract_warm_start(self, result):
        factor_meta, solver_state = self._warm_fields(result)
        return _warm_start(
            samples=np.array(result.samples[0], dtype=float),
            omega0=float(result.omega[0]),
            factor_meta=factor_meta,
            solver_state=solver_state,
        )


@dataclass(eq=False)
class HBRequest(AnalysisRequest):
    """Harmonic balance (forced or autonomous) as a request."""

    dae: object = None
    mode: str = "forced"
    period: object = None
    frequency_guess: object = None
    num_samples: int = 31
    initial: object = None
    phase_condition: object = "fourier"
    phase_variable: int = 0
    forcing_time: float = 0.0
    newton_options: object = None
    solver_options: object = None

    kind = "hb"

    def run(self, warm_start=None):
        from repro.steadystate.harmonic_balance import (
            harmonic_balance_autonomous,
            harmonic_balance_forced,
        )

        if self.mode == "forced":
            return harmonic_balance_forced(
                self.dae, self.period, num_samples=self.num_samples,
                initial=self.initial, newton_options=self.newton_options,
                solver_options=self.solver_options, warm_start=warm_start,
            )
        if self.mode == "autonomous":
            return harmonic_balance_autonomous(
                self.dae, self.frequency_guess, initial=self.initial,
                phase_condition=self.phase_condition,
                phase_variable=self.phase_variable,
                num_samples=self.num_samples,
                newton_options=self.newton_options,
                forcing_time=self.forcing_time,
                solver_options=self.solver_options, warm_start=warm_start,
            )
        raise SimulationError(
            f"HBRequest.mode must be 'forced' or 'autonomous', "
            f"got {self.mode!r}"
        )

    def seed_key(self):
        return _content_key(
            {
                "dae": self.dae,
                "mode": self.mode,
                "phase_condition": self.phase_condition,
                "phase_variable": self.phase_variable,
            },
            scope=f"seed/{self.kind}",
        )

    def extract_warm_start(self, result):
        return _warm_start(
            samples=np.array(result.samples, dtype=float),
            omega0=float(result.frequency),
        )


@dataclass(eq=False)
class QuasiperiodicRequest(AnalysisRequest):
    """Bi-periodic WaMPDE boundary-value problem as a request."""

    dae: object = None
    period2: float = 0.0
    initial_samples: object = None
    omega0: object = None
    num_t2: int = 15
    options: object = None

    kind = "quasiperiodic"

    def run(self, warm_start=None):
        from repro.wampde.quasiperiodic import solve_wampde_quasiperiodic

        return solve_wampde_quasiperiodic(
            self.dae, self.period2, self.initial_samples, self.omega0,
            num_t2=self.num_t2, options=self.options,
            warm_start=warm_start,
        )

    def seed_key(self):
        return _content_key(
            {"dae": self.dae, "num_t2": self.num_t2},
            scope=f"seed/{self.kind}",
        )

    def extract_warm_start(self, result):
        return _warm_start(
            samples=np.array(result.samples, dtype=float),
            omega0=np.array(result.omega, dtype=float),
        )


@dataclass(eq=False)
class EnsembleRequest(AnalysisRequest):
    """Lock-step ensemble transient, shardable across scenario blocks.

    ``run()`` uses the vectorised lock-step engine
    (:func:`repro.transient.ensemble.simulate_transient_ensemble`); the
    service may instead execute :meth:`shards` — scenario-block
    sub-requests sized by the resolved array backend
    (:meth:`repro.backend.ArrayBackend.ensemble_shard_size`) — across
    its worker pool and :meth:`merge` the trajectories.  Device backends
    return no shards at all: the whole batch is one device-resident
    march, and fragmenting it into slivers would waste the device.
    Fixed-step shards land on the same time grid, so both paths agree
    within solver tolerance.
    """

    dae: object = None  # an EnsembleDAE
    x0: object = None  # (B, n) or (n,) broadcast
    t_start: float = 0.0
    t_stop: float = 0.0
    options: object = None

    kind = "ensemble"

    def run(self, warm_start=None):
        from repro.transient.ensemble import simulate_transient_ensemble

        x0 = self.x0
        if x0 is None and warm_start is not None:
            x0 = getattr(warm_start, "x0", None)
        if x0 is None:
            raise SimulationError(
                "EnsembleRequest needs x0 (directly or via warm_start)"
            )
        return simulate_transient_ensemble(
            self.dae, x0, self.t_start, self.t_stop, self.options
        )

    def extract_warm_start(self, result):
        return _warm_start(x0=np.array(result.x[-1], dtype=float))

    def _shard_size(self):
        """Scenarios per shard for the request's resolved backend and
        kernel mode.

        ``None`` disables sharding — either the backend is a device (the
        whole batch belongs in one march) or the backend/kernel string
        is invalid (``run()`` then surfaces the configuration error
        instead of the service masking it at shard time).
        """
        from repro.backend import resolve_backend
        from repro.errors import ConfigurationError
        from repro.kernels.backends import resolve_mode

        opts = self.options
        kernel = getattr(opts, "kernel", "auto") if opts is not None \
            else "auto"
        try:
            backend, _ = resolve_backend(getattr(opts, "backend", None))
            mode, _ = resolve_mode(kernel)
        except ConfigurationError:
            return None
        return backend.ensemble_shard_size(mode)

    def shards(self):
        from repro.errors import ValidationError

        opts = self.options
        if opts is not None and getattr(opts, "adaptive", False):
            return None  # adaptive shards land on different grids
        if self.x0 is None:
            return None  # warm-start-seeded x0 is resolved at run() time
        batch = int(getattr(self.dae, "batch_size", 0) or 0)
        size = self._shard_size()
        if size is None or batch <= size:
            return None
        subset = getattr(self.dae, "subset", None)
        if subset is None:
            return None
        x0 = np.asarray(self.x0, dtype=float)
        shards = []
        for start in range(0, batch, size):
            indices = np.arange(start, min(start + size, batch))
            try:
                dae = subset(indices)
            except ValidationError:
                return None  # stacked DAE without a scenario-slice hook
            shard_x0 = x0[indices] if x0.ndim == 2 else x0
            shards.append(replace(self, dae=dae, x0=shard_x0))
        return shards

    def merge(self, results):
        from repro.transient.ensemble import merge_ensemble_results

        return merge_ensemble_results(results)


@dataclass(eq=False)
class SweepRequest(AnalysisRequest):
    """Oscillator tuning-curve sweep as a request.

    ``dae_factory``/``stacked_factory`` are callables, so a SweepRequest
    generally has no content key (``cache_key()`` → ``None``) and is not
    cached; module-level factories still cross process boundaries by
    pickle, so sharding across workers works.  Only the
    ``method="ensemble"`` sweep shards (its points are independent);
    continuation sweeps are sequentially seeded and run as one job.
    """

    dae_factory: object = None
    values: object = None
    period_guess: float = 0.0
    num_t1: int = 25
    variable: int = 0
    phase_condition: object = "fourier"
    method: str = "continuation"
    on_failure: str = "raise"
    stacked_factory: object = None
    #: Array backend name for the ensemble settle transient (``None``
    #: resolves the default; see :func:`repro.backend.resolve_backend`).
    backend: object = None

    kind = "sweep"

    def run(self, warm_start=None):
        from repro.steadystate.sweep import oscillator_frequency_sweep

        return oscillator_frequency_sweep(
            self.dae_factory, self.values, self.period_guess,
            num_t1=self.num_t1, variable=self.variable,
            phase_condition=self.phase_condition, method=self.method,
            on_failure=self.on_failure,
            stacked_factory=self.stacked_factory,
            backend=self.backend,
        )

    #: Sweep points per worker shard.  Chunks (not single points) keep
    #: each worker on the batched lock-step path with its ``stacked_factory``
    #: intact instead of degrading every shard to a one-member ensemble.
    SHARD_BLOCK = 8

    def shards(self):
        if self.method != "ensemble":
            return None  # continuation points are sequentially seeded
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size <= self.SHARD_BLOCK:
            return None
        return [
            replace(self, values=values[i:i + self.SHARD_BLOCK])
            for i in range(0, values.size, self.SHARD_BLOCK)
        ]

    def merge(self, results):
        from repro.steadystate.sweep import FrequencySweepResult

        return FrequencySweepResult(
            values=np.concatenate([r.values for r in results]),
            frequencies=np.concatenate([r.frequencies for r in results]),
            amplitudes=np.concatenate([r.amplitudes for r in results]),
            solver_stats=[s for r in results for s in r.solver_stats],
        )


def run(request, warm_start=None):
    """Execute any :class:`AnalysisRequest` in-process.

    The single entry point the CLI and the service both dispatch
    through; equivalent to ``request.run(warm_start=warm_start)`` plus a
    type check.
    """
    if not isinstance(request, AnalysisRequest):
        raise TypeError(
            f"run() takes an AnalysisRequest, got {type(request).__name__}"
        )
    return request.run(warm_start=warm_start)


def request_from_dict(data):
    """Rebuild a request encoded by ``request.to_dict()``."""
    obj = from_jsonable(data)
    if not isinstance(obj, AnalysisRequest):
        raise SerializationError(
            f"payload decodes to {type(obj).__name__}, not an "
            f"AnalysisRequest"
        )
    return obj
