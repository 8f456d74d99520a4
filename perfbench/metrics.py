"""Metric tables, the percentile rule and per-layer metric arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the only place metric names and units
are spelled; ``BENCHMARK.json`` lists the same names (checked by
``selftest.py``), and the printers refuse any other name.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import WORKER_JOB, self_times, uncovered_time

#: Workloads, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("fm_envelope", "transient_reference", "mixer_steady_state",
             "service_mix")

#: End-to-end metrics, ``name -> unit``; every workload reports all of
#: them.  A unit is the workload's timed call: one envelope solve, one
#: transient, one HB plus MPDE pair, or one service request.
#: ``unit_s_p50`` is the median seconds per unit and ``units_per_s`` the
#: closed-loop throughput, units over the seconds they took.  On
#: ``service_mix`` the median is a cache replay, so the compute requests
#: show only in the throughput.
#: Workload-specific figures (``phase_error_cycles``, ``hb_s``,
#: ``mpde_s``, ``request_s_p90``) are printed as information lines.
END_TO_END = {
    "setup_s": "s",
    "unit_s_p50": "s",
    "units_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-unit metric that the traced run compares against an untraced run
#: to report the tracing overhead.
PRIMARY = "unit_s_p50"

_PER_UNIT_COUNT = "count/unit"
_PER_UNIT_S = "s/unit"

#: Per-layer metrics, ``name -> unit``.  Unless the unit says otherwise a
#: value is a mean per timed unit, counting only spans inside units;
#: ``kernels.build`` and ``wampde.initial_condition`` are set-up layers and
#: report totals over the whole traced process, set-up included
#: (``kernels.build.calls`` counts in-process cache hits too; the cold C
#: compile shows in ``kernels.build.busy_s``).
PER_LAYER = {
    "dae.eval.calls": _PER_UNIT_COUNT,
    "dae.eval.busy_s": _PER_UNIT_S,
    "kernels.build.calls": "count",
    "kernels.build.busy_s": "s",
    "kernels.sweep.calls": _PER_UNIT_COUNT,
    "kernels.sweep.busy_s": _PER_UNIT_S,
    "linalg.collocation.refresh.calls": _PER_UNIT_COUNT,
    "linalg.collocation.refresh.busy_s": _PER_UNIT_S,
    "linalg.lu_cache.factor.calls": _PER_UNIT_COUNT,
    "linalg.lu_cache.factor.busy_s": _PER_UNIT_S,
    "linalg.lu_cache.solve.calls": _PER_UNIT_COUNT,
    "linalg.lu_cache.solve.busy_s": _PER_UNIT_S,
    "linalg.solver_core.solve.calls": _PER_UNIT_COUNT,
    "linalg.solver_core.solve.self_s": _PER_UNIT_S,
    "linalg.solver_core.iterations_per_solve": "count",
    "linalg.solver_core.factorizations_per_solve": "count",
    "linalg.solver_core.fallbacks": _PER_UNIT_COUNT,
    "wampde.envelope.residual.calls": _PER_UNIT_COUNT,
    "wampde.envelope.residual.self_s": _PER_UNIT_S,
    "wampde.envelope.jacobian.self_s": _PER_UNIT_S,
    "wampde.envelope.march.self_s": _PER_UNIT_S,
    "wampde.initial_condition.busy_s": "s",
    "transient.engine.self_s": _PER_UNIT_S,
    "transient.ensemble.self_s": _PER_UNIT_S,
    "steadystate.harmonic_balance.self_s": _PER_UNIT_S,
    "mpde.quasiperiodic.self_s": _PER_UNIT_S,
    "service.keys.busy_s": _PER_UNIT_S,
    "api.serialize.busy_s": _PER_UNIT_S,
    "service.cache.result_hit_ratio": "ratio",
    "service.cache.seed_hit_ratio": "ratio",
    "service.pool.ipc_s": "s/request",
    "trace.uncovered_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Layers whose metrics are run totals (set-up included), not per unit.
SETUP_LAYERS = ("kernels.build", "wampde.initial_condition")


def tail_percentile(count, candidates=(99.9, 99.0, 90.0)):
    """Highest percentile in ``candidates`` with at least ten samples
    beyond it among ``count`` samples, or ``None``."""
    for pct in candidates:
        if count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def percentile(values, pct):
    """Nearest-rank percentile (the sample at or above ``pct`` percent)."""
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def quartile_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def layer_metrics(spans, counts, units, extra=None):
    """Per-layer metric values from a traced run's spans.

    ``spans`` holds ``[name, start, end, parent, unit]`` records (client
    and pool worker merged, parents already re-indexed), ``counts`` maps
    ``(unit, key)`` to solver-core counter deltas and ``units`` maps unit
    identifiers to ``(start, end)``.  ``extra`` supplies the metrics that
    do not come from spans (cache ratios, IPC time, overhead).
    """
    selfs = self_times(spans)
    n_units = max(len(units), 1)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    run_calls = defaultdict(int)
    run_busy = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        name = span[0]
        run_calls[name] += 1
        run_busy[name] += span[2] - span[1]
        if span[4] is None or span[4] not in units:
            continue
        calls[name] += 1
        busy[name] += span[2] - span[1]
        own[name] += self_s
    totals = defaultdict(float)
    for (unit, key), value in counts.items():
        if unit in units:
            totals[key] += value

    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if layer in SETUP_LAYERS:
            out[metric] = (run_calls[layer] if stat == "calls"
                           else run_busy[layer])
        elif stat == "calls":
            out[metric] = calls[layer] / n_units
        elif stat == "busy_s":
            out[metric] = busy[layer] / n_units
        elif stat == "self_s":
            out[metric] = own[layer] / n_units
    solves = totals["solves"]
    out["linalg.solver_core.iterations_per_solve"] = (
        totals["iterations"] / solves if solves else 0.0)
    out["linalg.solver_core.factorizations_per_solve"] = (
        totals["factorizations"] / solves if solves else 0.0)
    out["linalg.solver_core.fallbacks"] = totals["fallbacks"] / n_units
    walls = uncovered_time(spans, units)
    wall = sum(w for w, _ in walls.values())
    out["trace.uncovered_share"] = (
        sum(u for _, u in walls.values()) / wall if wall else 0.0)
    for key in ("service.cache.result_hit_ratio",
                "service.cache.seed_hit_ratio", "service.pool.ipc_s",
                "trace.overhead_share"):
        out[key] = 0.0
    out.update(extra or {})
    return out


def merge_worker_jobs(spans, counts, jobs, job_units):
    """Append pool-worker job spans to the client's, mapping each job's
    sequence number to the client unit it served (``job_units[seq]``).

    Returns ``{unit: worker job seconds}`` for the IPC metric.
    """
    job_seconds = {}
    for job in jobs:
        seq = job["seq"]
        unit = job_units[seq] if seq < len(job_units) else None
        offset = len(spans)
        for name, start, end, parent, _ in job["spans"]:
            spans.append([name, start, end,
                          None if parent is None else parent + offset, unit])
            if name == WORKER_JOB and unit is not None:
                job_seconds[unit] = end - start
        for key, value in job["counts"]:
            counts[(unit, key)] += value
    return job_seconds
