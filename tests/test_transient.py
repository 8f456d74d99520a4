"""Tests for the transient engine: integrators, convergence orders, events."""

from dataclasses import replace

import numpy as np
import pytest

from repro.dae import (
    ForcedDecayDae,
    HarmonicOscillatorDae,
    LinearRCDae,
    VanDerPolDae,
)
from repro.errors import SimulationError
from repro.transient import (
    Bdf2,
    INTEGRATORS,
    TransientOptions,
    TransientResult,
    rising_level_crossings,
    simulate_transient,
    zero_crossings,
)
from repro.transient.integrators import get_integrator
from repro.transient.results import TrajectoryRecorder


class TestIntegratorRegistry:
    def test_registry_contents(self):
        assert set(INTEGRATORS) == {"be", "trap", "bdf2"}

    def test_get_integrator_by_name(self):
        assert get_integrator("TRAP").name == "trap"

    def test_get_integrator_passthrough(self):
        inst = Bdf2()
        assert get_integrator(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown integrator"):
            get_integrator("rk4")


class TestExactness:
    """Each implicit method must be exact on problems in its order class."""

    def test_be_exact_on_constant(self):
        dae = ForcedDecayDae(rate=1.0, forcing=lambda t: 1.0)
        result = simulate_transient(
            dae, [1.0], 0.0, 1.0, TransientOptions(integrator="be", dt=0.1)
        )
        np.testing.assert_allclose(result.x[:, 0], 1.0, atol=1e-12)

    def test_trap_preserves_energy_of_lc(self):
        """Trapezoidal is symplectic-like on the LC tank: no amplitude decay."""
        dae = HarmonicOscillatorDae()
        result = simulate_transient(
            dae, [1.0, 0.0], 0.0, 20 * np.pi,
            TransientOptions(integrator="trap", dt=0.05),
        )
        energies = np.array([dae.energy(s) for s in result.x])
        np.testing.assert_allclose(energies, energies[0], rtol=1e-10)

    def test_be_damps_lc_amplitude(self):
        """Backward Euler artificially damps oscillations — by design."""
        dae = HarmonicOscillatorDae()
        result = simulate_transient(
            dae, [1.0, 0.0], 0.0, 20 * np.pi,
            TransientOptions(integrator="be", dt=0.05),
        )
        assert dae.energy(result.x[-1]) < 0.6 * dae.energy(result.x[0])


class TestConvergenceOrders:
    @staticmethod
    def _error_at(integrator, dt):
        dae = LinearRCDae(resistance=1.0, capacitance=1.0, amplitude=1.0,
                          omega=2.0)
        v0 = 0.4
        result = simulate_transient(
            dae, [v0], 0.0, 2.0,
            TransientOptions(integrator=integrator, dt=dt),
        )
        exact = dae.transient_response(result.t[-1], v0)
        return abs(result.x[-1, 0] - exact)

    @pytest.mark.parametrize(
        "integrator,expected_order",
        [("be", 1), ("trap", 2), ("bdf2", 2)],
    )
    def test_order(self, integrator, expected_order):
        err_coarse = self._error_at(integrator, 0.02)
        err_fine = self._error_at(integrator, 0.01)
        observed = np.log2(err_coarse / err_fine)
        assert observed > expected_order - 0.35, (
            f"{integrator}: observed order {observed:.2f}, "
            f"expected ~{expected_order}"
        )


class TestEngineBehaviour:
    def test_fixed_step_requires_dt(self):
        dae = ForcedDecayDae()
        with pytest.raises(SimulationError, match="dt"):
            simulate_transient(dae, [0.0], 0.0, 1.0, TransientOptions(dt=None))

    def test_rejects_reversed_window(self):
        dae = ForcedDecayDae()
        with pytest.raises(SimulationError):
            simulate_transient(
                dae, [0.0], 1.0, 0.0, TransientOptions(dt=0.1)
            )

    def test_rejects_wrong_initial_size(self):
        dae = ForcedDecayDae()
        with pytest.raises(SimulationError, match="length"):
            simulate_transient(
                dae, [0.0, 1.0], 0.0, 1.0, TransientOptions(dt=0.1)
            )

    def test_reaches_exact_stop_time(self):
        dae = ForcedDecayDae()
        result = simulate_transient(
            dae, [1.0], 0.0, 1.0, TransientOptions(dt=0.3)
        )
        assert np.isclose(result.t[-1], 1.0)

    def test_stats_populated(self):
        dae = ForcedDecayDae()
        result = simulate_transient(
            dae, [1.0], 0.0, 1.0, TransientOptions(dt=0.1)
        )
        assert result.stats["steps"] == 10
        assert result.stats["newton_iterations"] >= 10

    def test_store_every_decimates(self):
        dae = ForcedDecayDae()
        result = simulate_transient(
            dae, [1.0], 0.0, 1.0, TransientOptions(dt=0.01, store_every=10)
        )
        assert len(result) <= 12

    def test_adaptive_meets_tolerance(self):
        dae = LinearRCDae(resistance=1.0, capacitance=1.0, omega=5.0)
        options = TransientOptions(
            integrator="trap", dt=0.05, adaptive=True, rtol=1e-7, atol=1e-10
        )
        result = simulate_transient(dae, [0.0], 0.0, 3.0, options)
        exact = dae.transient_response(result.t, 0.0)
        assert np.max(np.abs(result.x[:, 0] - exact)) < 1e-4

    def test_adaptive_rejects_steps_on_sharp_forcing(self):
        # A fast step in the forcing should trigger at least one rejection
        # or a visible step-size reduction.
        sharp = ForcedDecayDae(rate=1.0, forcing=lambda t: 0.0 if t < 1.0 else 5.0)
        options = TransientOptions(
            integrator="trap", dt=0.5, adaptive=True, rtol=1e-8, atol=1e-12
        )
        result = simulate_transient(sharp, [0.0], 0.0, 3.0, options)
        assert (
            result.stats["rejected_steps"] > 0
            or np.min(np.diff(result.t)) < 0.05
        )

    def test_max_steps_guard(self):
        dae = ForcedDecayDae()
        with pytest.raises(SimulationError, match="max_steps"):
            simulate_transient(
                dae, [1.0], 0.0, 1.0,
                TransientOptions(dt=1e-4, max_steps=100),
            )


class TestTransientResult:
    def make(self):
        t = np.linspace(0, 1, 11)
        x = np.stack([np.sin(t), np.cos(t)], axis=1)
        return TransientResult(t, x, ("s", "c"), {"steps": 10})

    def test_column_by_name_and_index(self):
        result = self.make()
        np.testing.assert_allclose(result.column("s"), result.column(0))
        np.testing.assert_allclose(result["c"], np.cos(result.t))

    def test_sample_interpolates(self):
        result = self.make()
        mid = result.sample(0.05, "s")
        assert np.isclose(mid, 0.5 * (np.sin(0.0) + np.sin(0.1)), atol=1e-3)

    def test_sample_all_variables(self):
        result = self.make()
        values = result.sample([0.2, 0.4])
        assert values.shape == (2, 2)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            TransientResult(np.zeros(3), np.zeros((4, 2)), ("a", "b"))

    def test_final_state_is_copy(self):
        result = self.make()
        final = result.final_state()
        final[:] = 99.0
        assert not np.allclose(result.x[-1], 99.0)


def _kept_by_rule(times, store_every, t_stop, carried=0):
    """Indices the per-step store_every rule keeps, plus the final count."""
    kept = []
    for j, tj in enumerate(times):
        carried += 1
        if carried >= store_every or tj >= t_stop:
            kept.append(j)
            carried = 0
    return kept, carried


class TestTrajectoryRecorder:
    T_STOP = 1.0

    def steps(self, count=100, shape=(3,)):
        rng = np.random.default_rng(7)
        times = np.linspace(self.T_STOP / count, self.T_STOP, count)
        return times, rng.normal(size=(count,) + shape)

    @pytest.mark.parametrize("store_every", [1, 3, 7, 10**9])
    def test_mixed_row_and_block_appends_follow_per_step_rule(
            self, store_every):
        times, rows = self.steps()
        row0 = np.zeros(3)
        recorder = TrajectoryRecorder(
            [0.0], [row0], store_every, self.T_STOP
        )
        recorder.reserve(times.size)
        rng = np.random.default_rng(11)
        cuts = np.sort(rng.choice(np.arange(1, times.size), 9, replace=False))
        bounds = [0, *cuts, times.size]
        early = None
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if i % 2:
                for j in range(lo, hi):
                    recorder.record(times[j], rows[j])
            else:
                recorder.record_block(times[lo:hi], rows[lo:hi])
            if i == 4:
                early = [a.copy() for a in recorder.arrays()]
                early_views = recorder.arrays()
        kept, carried = _kept_by_rule(times, store_every, self.T_STOP)
        t, x = recorder.arrays()
        np.testing.assert_array_equal(t, np.concatenate(([0.0], times[kept])))
        np.testing.assert_array_equal(x, np.vstack([row0, rows[kept]]))
        assert t[-1] == self.T_STOP
        assert recorder.carried == carried == 0
        # Later records never write into rows handed out earlier.
        np.testing.assert_array_equal(early_views[0], early[0])
        np.testing.assert_array_equal(early_views[1], early[1])

    def test_counter_carries_across_unaligned_blocks(self):
        times, rows = self.steps(count=40, shape=(2, 3))
        recorder = TrajectoryRecorder(
            [0.0], np.zeros((1, 2, 3)), 7, self.T_STOP
        )
        lo = 0
        for length in (5, 4, 6, 3, 11):
            recorder.record_block(times[lo:lo + length], rows[lo:lo + length])
            lo += length
            kept, carried = _kept_by_rule(times[:lo], 7, self.T_STOP)
            assert recorder.carried == carried
            assert recorder.snapshot()[0].size == 1 + len(kept)
        recorder.record_block(times[lo:], rows[lo:])
        kept, _ = _kept_by_rule(times, 7, self.T_STOP)
        assert kept == [6, 13, 20, 27, 34, 39]
        t, x = recorder.arrays()
        assert x.shape == (7, 2, 3)
        np.testing.assert_array_equal(t[1:], times[kept])
        np.testing.assert_array_equal(x[1:], rows[kept])

    def test_snapshot_restore_round_trip(self):
        times, rows = self.steps()
        live = TrajectoryRecorder([0.0], [np.zeros(3)], 6, self.T_STOP)
        live.record_block(times[:45], rows[:45])
        stored_t, stored_x = live.snapshot()
        assert stored_t.size == 1 + 45 // 6
        assert live.carried == 45 % 6
        restored = TrajectoryRecorder(
            stored_t, stored_x, 6, self.T_STOP, carried=live.carried
        )
        for recorder in (live, restored):
            recorder.record_block(times[45:70], rows[45:70])
            for j in range(70, times.size):
                recorder.record(times[j], rows[j])
        for a, b in zip(live.arrays(), restored.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_rejects_misaligned_rows(self):
        with pytest.raises(ValueError, match="stored"):
            TrajectoryRecorder([0.0, 1.0], np.zeros((3, 2)))

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_resume_from_list_of_rows_payload(self, adaptive):
        dae = VanDerPolDae(mu=3.0)
        x0 = [2.0, 0.0]

        def options(**kw):
            return TransientOptions(
                integrator="trap", dt=1e-2, adaptive=adaptive,
                store_every=3, checkpoint_every=50, **kw
            )

        full = simulate_transient(dae, x0, 0.0, 4.0, options())
        with pytest.raises(SimulationError, match="max_steps") as info:
            simulate_transient(dae, x0, 0.0, 4.0, options(max_steps=170))
        checkpoint = info.value.checkpoint
        payload = checkpoint.payload
        assert isinstance(payload["stored_x"], np.ndarray)
        assert payload["accepted_since_store"] != 0
        # The payload format older checkpoints carry: python lists of
        # per-step times and state rows.
        legacy = replace(checkpoint, payload=dict(
            payload,
            stored_t=[float(v) for v in payload["stored_t"]],
            stored_x=[np.array(row) for row in payload["stored_x"]],
        ))
        for resume_from in (checkpoint, legacy):
            resumed = simulate_transient(
                dae, None, 0.0, 4.0, options(), resume_from=resume_from
            )
            np.testing.assert_array_equal(resumed.t, full.t)
            np.testing.assert_array_equal(resumed.x, full.x)


class TestEvents:
    def test_rising_crossings_of_sine(self):
        t = np.linspace(0, 2, 2001)
        y = np.sin(2 * np.pi * t)
        crossings = zero_crossings(t, y, direction=+1)
        # Exact zero at t=0 counts as a rising crossing; t=2 is the final
        # sample and cannot start an interval.
        np.testing.assert_allclose(crossings, [0.0, 1.0], atol=1e-5)

    def test_falling_crossings(self):
        t = np.linspace(0, 2, 2001)
        y = np.sin(2 * np.pi * t)
        crossings = zero_crossings(t, y, direction=-1)
        np.testing.assert_allclose(crossings, [0.5, 1.5], atol=1e-5)

    def test_both_directions(self):
        t = np.linspace(0, 2, 2001)
        y = np.sin(2 * np.pi * t)
        assert zero_crossings(t, y, direction=0).size == 4

    def test_interpolation_accuracy(self):
        t = np.array([0.0, 1.0])
        y = np.array([-1.0, 3.0])
        np.testing.assert_allclose(zero_crossings(t, y), [0.25])

    def test_level_crossings(self):
        t = np.linspace(0, 1, 101)
        y = t.copy()
        np.testing.assert_allclose(
            rising_level_crossings(t, y, 0.5), [0.5], atol=1e-10
        )

    def test_no_crossings(self):
        assert zero_crossings([0, 1], [1.0, 2.0]).size == 0

    def test_crossing_times_from_result(self):
        t = np.linspace(0, 1, 501)
        x = np.sin(2 * np.pi * 2 * t)[:, None]
        result = TransientResult(t, x, ("y",))
        crossings = result.crossing_times("y", level=0.0, direction=+1)
        np.testing.assert_allclose(crossings, [0.0, 0.5], atol=1e-4)
