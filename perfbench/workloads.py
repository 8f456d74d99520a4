"""The four workloads.  Each drives only the library's public entry points.

A workload has five steps, called by ``child.py`` in this order:

``setup()``
    Everything a user pays before the first result: counted in
    ``setup_s``.
``prepare()``
    The benchmark's own reference data, outside ``setup_s`` and timing.
``prepare_unit(i)`` / ``run(i)`` / ``check(i, output)``
    One unit: untimed input construction, the timed call, and the
    correctness gate (untimed; ``False`` counts the unit as failed).
``finish()``
    Verification done after the timed loop; returns ``(failed, info)``,
    where ``info`` holds the workload's own figures as text lines.

``times`` holds the seconds of every unit; ``child.py`` derives the
end-to-end metrics from ``timed()``, which leaves out the first
``warmup_units`` of them.

Library modules are imported inside the methods, after a traced run has
installed its wrappers.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from statistics import median

import numpy as np

from metrics import percentile, tail_percentile

#: One full 1 ms control period of the air VCO, as in the paper's §5.
FM_HORIZON = 1e-3
FM_STEPS = 333
FM_NUM_T1 = 25
#: Largest phase error [cycles] the envelope may accumulate over the
#: control period against the 1000 points-per-cycle transient: the
#: measured 3.64e-3 plus 10 %, so speed cannot be bought with accuracy.
PHASE_ERROR_GATE = 4.0e-3
#: Transient points per nominal cycle of the reference march.
POINTS_PER_CYCLE = 1000
#: Steps of the NumPy-oracle prefix the compiled march must reproduce.
ORACLE_STEPS = 2000
ORACLE_RTOL = 1e-8
#: Newton tolerance (residual infinity-norm) of both mixer solves.
MIXER_ATOL = 1e-9
#: Seconds a service request may take before it counts as hung.
HANG_S = 60.0
#: Relative agreement required between a pooled result and its inline
#: rerun.
INLINE_RTOL = 1e-6


class Hung(Exception):
    """A unit did not finish within its deadline."""


def peak_rss_mb():
    """Peak resident memory of this process plus its live pool workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


def _relative_gap(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


def _air_vco_start():
    """The paper's §4.1 initial condition of the air VCO."""
    from repro.circuits.library import T_NOMINAL, MemsVcoDae, VcoParams
    from repro.wampde import oscillator_initial_condition

    params = VcoParams.air()
    samples, f0 = oscillator_initial_condition(
        MemsVcoDae(params, constant_control=True), num_t1=FM_NUM_T1,
        period_guess=T_NOMINAL,
    )
    return params, MemsVcoDae(params), samples, f0


def _reference_transient(dae, x0, horizon, kernel="auto"):
    from repro.circuits.library import T_NOMINAL
    from repro.transient import TransientOptions, simulate_transient

    return simulate_transient(
        dae, x0, 0.0, horizon,
        TransientOptions(integrator="trap", dt=T_NOMINAL / POINTS_PER_CYCLE,
                         kernel=kernel),
    )


class Workload:
    #: Units run (and gated) before the ones that are measured.
    warmup_units = 1
    min_units = warmup_units + 3
    max_units = float("inf")

    def timed(self):
        return self.times[self.warmup_units:]

    def primary(self):
        return median(self.timed())

    def prepare(self):
        pass

    def peak_rss(self):
        return peak_rss_mb()

    def prepare_unit(self, index):
        pass

    def close(self):
        pass


class FmEnvelope(Workload):
    """One ``solve_wampde_envelope`` over the air VCO's 1 ms period."""

    name = "fm_envelope"

    def setup(self):
        self.params, self.forced, self.samples, self.f0 = _air_vco_start()
        low, high = self.params.static_frequency(
            [self.params.control_offset - self.params.control_amplitude,
             self.params.control_offset + self.params.control_amplitude])
        # The overdamped plate lags the control voltage, so the local
        # frequency stays inside the static tuning range (5 % margin).
        self.band = (0.95 * float(low), 1.05 * float(high))
        self.times = []
        self.distinct = {}

    def run(self, index):
        from repro.wampde import WampdeEnvelopeOptions, solve_wampde_envelope

        start = time.perf_counter()
        result = solve_wampde_envelope(
            self.forced, self.samples, self.f0, 0.0, FM_HORIZON, FM_STEPS,
            WampdeEnvelopeOptions(integrator="trap"),
        )
        self.times.append(time.perf_counter() - start)
        return result

    def check(self, index, result):
        omega = np.asarray(result.omega)
        ok = bool(np.all(np.isfinite(omega)) and omega.min() > 0.0
                  and self.band[0] <= omega.min()
                  and omega.max() <= self.band[1])
        # Identical results share one phase-error gate (run in finish()).
        key = (result.samples.tobytes(), omega.tobytes())
        self.distinct.setdefault(hash(key), result)
        return ok

    def finish(self):
        from repro.analysis import phase_error_vs_reference

        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference = _reference_transient(
                self.forced, self.samples[0], FM_HORIZON)
            times.append(time.perf_counter() - start)
        t_ref, v_ref = reference.t, reference["v(tank)"]
        eval_times = np.linspace(0.0, FM_HORIZON, 50000)
        errors = []
        for result in self.distinct.values():
            _, err = phase_error_vs_reference(
                eval_times, result.reconstruct("v(tank)", eval_times),
                t_ref, v_ref)
            errors.append(float(np.abs(err).max()))
        phase_error = max(errors)
        failed = sum(e > PHASE_ERROR_GATE for e in errors)
        envelope_s = median(self.timed())
        ratio = median(times) / envelope_s
        info = [
            f"gate phase_error_cycles <= {PHASE_ERROR_GATE}: "
            f"{'pass' if failed == 0 else 'FAIL'} ({phase_error:.4e} over "
            f"{len(errors)} distinct result(s))",
            f"envelope_speedup_vs_compiled_transient (information only): "
            f"{ratio:.3f} = compiled transient {median(times):.4f} s / "
            f"envelope {envelope_s:.4f} s at the {FM_HORIZON * 1e3:g} ms "
            f"horizon, phase_error_cycles {phase_error:.4e}",
        ]
        return failed, info


class TransientReference(Workload):
    """The compiled 1000 points-per-cycle transient over the same 1 ms."""

    name = "transient_reference"

    def setup(self):
        from repro.kernels.backends import resolve_mode

        _, self.forced, samples, _ = _air_vco_start()
        self.x0 = samples[0]
        self.mode = resolve_mode("auto")[0]
        self.times = []

    def prepare(self):
        from repro.circuits.library import T_NOMINAL

        horizon = ORACLE_STEPS * T_NOMINAL / POINTS_PER_CYCLE
        self.oracle = _reference_transient(
            self.forced, self.x0, horizon, kernel="python").x

    def run(self, index):
        start = time.perf_counter()
        result = _reference_transient(self.forced, self.x0, FM_HORIZON)
        self.times.append(time.perf_counter() - start)
        return result

    def check(self, index, result):
        x = np.asarray(result.x)
        prefix = x[: len(self.oracle)]
        return bool(result.stats["kernel"]["mode"] == self.mode
                    and np.all(np.isfinite(x))
                    and _relative_gap(prefix, self.oracle) <= ORACLE_RTOL)

    def finish(self):
        info = [f"gate compiled march vs NumPy oracle over {ORACLE_STEPS} "
                f"steps <= {ORACLE_RTOL:g} relative: checked on every unit",
                f"transient_s (information): {self.primary():.4f} s "
                f"per compiled transient"]
        return 0, info


class MixerSteadyState(Workload):
    """Forced HB (601 samples) then a 31x31 bi-periodic MPDE, RC-diode
    mixer; the inputs of the ``harmonic_balance_forced`` and
    ``solve_mpde_quasiperiodic`` ratchet entries."""

    name = "mixer_steady_state"

    def setup(self):
        from repro.circuits.library import rc_diode_mixer_circuit
        from repro.constants import TWO_PI
        from repro.mpde import additive_two_tone_forcing
        from repro.steadystate import dc_operating_point

        self.rectifier = rc_diode_mixer_circuit(
            lo_amplitude=0.0, rf_amplitude=0.3, rf_frequency=1e4).to_dae()
        self.hb_initial = np.tile(dc_operating_point(self.rectifier),
                                  (601, 1))
        self.mixer = rc_diode_mixer_circuit().to_dae()
        n = self.mixer.n
        f_rf, f_lo = 1e5, 1e3

        def fast(t1):
            b = np.zeros(n)
            b[-1] = 0.6 + 0.05 * np.sin(TWO_PI * f_rf * t1)
            return b

        def slow(t2):
            b = np.zeros(n)
            b[-1] = 0.4 * np.sin(TWO_PI * f_lo * t2)
            return b

        self.forcing = additive_two_tone_forcing(
            fast, slow, 1 / f_rf, 1 / f_lo, n)
        self.mpde_initial = dc_operating_point(self.mixer)
        self.hb_times, self.mpde_times, self.times = [], [], []
        self.residuals = []

    def run(self, index):
        from repro.mpde import solve_mpde_quasiperiodic
        from repro.steadystate import harmonic_balance_forced

        start = time.perf_counter()
        hb = harmonic_balance_forced(
            self.rectifier, period=1e-4, num_samples=601,
            initial=self.hb_initial)
        middle = time.perf_counter()
        qp = solve_mpde_quasiperiodic(
            self.mixer, self.forcing, num_t1=31, num_t2=31,
            initial=self.mpde_initial)
        end = time.perf_counter()
        self.hb_times.append(middle - start)
        self.mpde_times.append(end - middle)
        self.times.append(end - start)
        return hb, qp

    def check(self, index, output):
        hb, qp = output
        worst = max(hb_residual(self.rectifier, hb),
                    mpde_residual(self.mixer, self.forcing, qp))
        self.residuals.append(worst)
        return bool(worst <= MIXER_ATOL)

    def finish(self):
        info = [f"gate HB and MPDE residual <= {MIXER_ATOL:g}: worst "
                f"{max(self.residuals, default=float('nan')):.3e}",
                f"hb_s (information): "
                f"{median(self.hb_times[self.warmup_units:]):.4f} s, "
                f"mpde_s (information): "
                f"{median(self.mpde_times[self.warmup_units:]):.4f} s"]
        return 0, info


def hb_residual(dae, hb):
    """Infinity-norm of ``D q(x) + f(x) - b`` at a forced-HB solution."""
    from repro.spectral.diffmat import fourier_differentiation_matrix
    from repro.spectral.grid import collocation_grid

    samples = np.asarray(hb.samples)
    num = samples.shape[0]
    diffmat = fourier_differentiation_matrix(num, hb.period)
    r = (diffmat @ dae.q_batch(samples) + dae.f_batch(samples)
         - dae.b_batch(collocation_grid(num, hb.period)))
    return float(np.abs(r).max())


def mpde_residual(dae, forcing, qp):
    """Infinity-norm of ``(D1 + D2) q(x) + f(x) - b`` at an MPDE solution."""
    from repro.spectral.diffmat import fourier_differentiation_matrix

    samples = np.asarray(qp.samples)
    n1, n0, n = samples.shape
    flat = samples.reshape(-1, n)
    q = dae.q_batch(flat).reshape(n1, n0, n)
    f = dae.f_batch(flat).reshape(n1, n0, n)
    d1 = fourier_differentiation_matrix(n0, qp.period1)
    d2 = fourier_differentiation_matrix(n1, qp.period2)
    r = (np.einsum("ij,ajk->aik", d1, q) + np.einsum("ab,bjk->ajk", d2, q)
         + f - forcing.grid(qp.t1, qp.t2))
    return float(np.abs(r).max())


def _fingerprint(result):
    """Arrays an inline rerun must reproduce within solver tolerance."""
    if hasattr(result, "omega"):
        return (np.array(result.omega), np.array(result.samples))
    x = np.asarray(result.x)
    return (np.array(x[::50]), np.array(x[-1]))


def _identical(a, b):
    if hasattr(a, "omega"):
        pairs = [(a.omega, b.omega), (a.samples, b.samples), (a.t2, b.t2)]
    else:
        pairs = [(a.x, b.x), (a.t, b.t)]
    return all(np.array_equal(u, v) for u, v in pairs)


class ServiceMix(Workload):
    """A closed loop of one client over ``SimulationService(workers=1)``."""

    name = "service_mix"
    #: The set-up requests already spawned and warmed the pool worker.
    warmup_units = 0
    #: The 90th percentile needs ten samples beyond it.
    min_units = 100

    def __init__(self, seed):
        from stream import request_specs

        self.specs = request_specs(seed)
        self.max_units = len(self.specs)
        self.last_use = {}
        for index, (_, key) in enumerate(self.specs):
            self.last_use[key] = index
        # Pool job order -> client unit (``None`` for set-up jobs).
        self.job_units = []

    def setup(self):
        from repro.service import SimulationService
        from stream import build_request, warmup_specs

        self.service = SimulationService(workers=1)
        self.first = {}
        for key in warmup_specs():
            job = self.service.submit(build_request(key))
            self.job_units.append(None)
            if not job.wait(HANG_S):
                raise Hung(f"set-up request {key[0]} did not finish")
            self.first[key] = job.outcome()
        self.cache_before = self.service.cache_stats()
        self.times = []
        self.latency_by_unit = {}
        self.kinds = {"replay": 0, "seed_hit": 0, "cold": 0, "ensemble": 0}
        self.distinct = []
        self.rss_mb = None

    def prepare_unit(self, index):
        from stream import build_request

        self.request = build_request(self.specs[index][1])

    def run(self, index):
        start = time.perf_counter()
        job = self.service.submit(self.request)
        if not job.cache_hit:
            self.job_units.append(index)
        if not job.wait(HANG_S):
            raise Hung(f"request {index} did not finish in {HANG_S} s")
        result = job.outcome()
        latency = time.perf_counter() - start
        self.times.append(latency)
        self.latency_by_unit[index] = latency
        return job, result

    def check(self, index, output):
        job, result = output
        kind, key = self.specs[index]
        if job.cache_hit:
            self.kinds["replay"] += 1
        elif key[0] == "ensemble":
            self.kinds["ensemble"] += 1
        elif job.warm_hit:
            self.kinds["seed_hit"] += 1
        else:
            self.kinds["cold"] += 1
        if kind.startswith("replay"):
            ok = job.cache_hit and _identical(result, self.first[key])
        else:
            ok = not job.cache_hit
            self.distinct.append((key, _fingerprint(result)))
            self.first[key] = result
        if index == self.min_units - 1:
            self.rss_mb = peak_rss_mb()
        # Keep full results only while a later replay may need them.
        for old in [k for k in self.first if self.last_use.get(k, -1) <= index]:
            del self.first[old]
        return bool(ok)

    def finish(self):
        from repro.service import SimulationService
        from stream import build_request

        count = len(self.times)
        tail = tail_percentile(count)
        if tail is None or tail < 90.0:
            raise RuntimeError(
                f"{count} requests are too few for a 90th percentile")
        after = self.service.cache_stats()
        self.service.close()
        before = self.cache_before
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        seed_hits = after["seed_hits"] - before["seed_hits"]
        seed_misses = after["seed_misses"] - before["seed_misses"]
        self.cache_ratios = {
            "service.cache.result_hit_ratio": hits / max(hits + misses, 1),
            "service.cache.seed_hit_ratio":
                seed_hits / max(seed_hits + seed_misses, 1),
        }
        # Inline (workers=0) rerun of every distinct request, in order, so
        # warm-start seeding follows the same pattern as in the pool.
        failed = 0
        with SimulationService(workers=0) as inline:
            for key, pooled in self.distinct:
                rerun = _fingerprint(
                    inline.submit(build_request(key)).outcome())
                if max(_relative_gap(a, b)
                       for a, b in zip(pooled, rerun)) > INLINE_RTOL:
                    failed += 1
        shares = {kind: value / count for kind, value in self.kinds.items()}
        info = [
            "gate replay bit-identical to its first result: checked on "
            "every replay",
            f"gate pooled result vs inline rerun <= {INLINE_RTOL:g} "
            f"relative: {len(self.distinct) - failed}/{len(self.distinct)} "
            f"distinct requests agree",
            "request shares: " + ", ".join(
                f"{kind} {share:.3f}" for kind, share in shares.items()),
            f"requests {count}; highest percentile with ten samples beyond "
            f"it: p{tail:g} = {percentile(self.times, tail):.4f} s",
            f"request_s_p50 {median(self.times):.5f} s, request_s_p90 "
            f"{percentile(self.times, 90.0):.4f} s (information)",
            "cache: " + ", ".join(
                f"{key} {value:.3f}"
                for key, value in self.cache_ratios.items()),
        ]
        return failed, info

    def peak_rss(self):
        """Peak memory over the first ``min_units`` requests: the service
        keeps every finished job's result, so the peak over a whole run
        would grow with how many requests the host completes."""
        return self.rss_mb if self.rss_mb is not None else peak_rss_mb()

    def close(self):
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


def make(name, seed):
    if name == "service_mix":
        return ServiceMix(seed)
    return {cls.name: cls for cls in
            (FmEnvelope, TransientReference, MixerSteadyState)}[name]()

