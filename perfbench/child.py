"""One benchmark process: set up a workload, then time its units.

Started by ``run.py``, never by hand.  Protocol on standard output:

* ``READY`` once set-up is done (the parent's clock for ``setup_s`` stops
  here); with ``--setup-only`` the process then exits;
* ``# ...`` information lines, which the parent forwards;
* ``RESULT {json}`` as the last line.

With ``--trace-dir`` the layer wrappers of ``tracing.py`` are installed
before set-up (and in the pool worker), spans are written to
``spans.jsonl`` in that directory, and the result carries per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback


def _emit(line):
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _gate(workload, index, output):
    try:
        return workload.check(index, output)
    except Exception:
        _emit("# gate raised:\n# " + traceback.format_exc()
              .replace("\n", "\n# "))
        return False


def _install_tracing(trace_dir):
    import functools
    from concurrent.futures import ProcessPoolExecutor

    import repro.service.service as service_module
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    # Pool workers install the same wrappers when they start.
    service_module.ProcessPoolExecutor = functools.partial(
        ProcessPoolExecutor, initializer=tracing.worker_init,
        initargs=(trace_dir,))
    return tracer


def _layer_metrics(tracer, workload, trace_dir):
    import metrics
    import tracing

    spans, counts = tracer.spans, tracer.counts
    extra = {}
    job_units = getattr(workload, "job_units", None)
    if job_units is not None:
        job_seconds = metrics.merge_worker_jobs(
            spans, counts, tracing.read_worker_jobs(trace_dir), job_units)
        ipc = [workload.latency_by_unit[unit] - seconds
               for unit, seconds in job_seconds.items()]
        extra["service.pool.ipc_s"] = sum(ipc) / len(ipc) if ipc else 0.0
        extra.update(workload.cache_ratios)
    tracer.write(os.path.join(trace_dir, "spans.jsonl"))
    units = {unit: tuple(bounds) for unit, bounds in tracer.units.items()}
    return metrics.layer_metrics(spans, counts, units, extra)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    import workloads

    tracer = _install_tracing(args.trace_dir) if args.trace_dir else None
    workload = workloads.make(args.workload, args.seed)
    try:
        workload.setup()
        _emit("READY")
        if args.setup_only:
            return 0
        workload.prepare()

        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        index = 0
        while ((index < workload.warmup_units
                or time.perf_counter() < deadline
                or attempted < workload.min_units)
               and attempted < workload.max_units):
            if index == workload.warmup_units:
                # The measuring time starts after the warm-up units.
                deadline = time.perf_counter() + args.seconds
            workload.prepare_unit(index)
            attempted += 1
            # Warm-up units are gated but neither timed nor traced as units.
            traced = tracer is not None and index >= workload.warmup_units
            if traced:
                tracer.begin_unit(index)
            try:
                output = workload.run(index)
            except workloads.Hung:
                failed += 1
                _emit("# unit hung:\n# " + traceback.format_exc()
                      .replace("\n", "\n# "))
                break
            except Exception:
                output = None
                failed += 1
                _emit("# unit raised:\n# " + traceback.format_exc()
                      .replace("\n", "\n# "))
            finally:
                if traced:
                    tracer.end_unit()
            if output is not None and not _gate(workload, index, output):
                failed += 1
                _emit(f"# unit {index} failed its correctness gate")
            index += 1
        peak_rss = workload.peak_rss()
        extra_failed, info = workload.finish()
        failed += extra_failed
        for line in info:
            _emit("# " + line)
        times = workload.timed()
        values = {
            "unit_s_p50": statistics.median(times),
            "units_per_s": len(times) / sum(times),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss,
        }
        result = {
            "attempted": attempted,
            "failed": failed,
            "values": values,
            "primary": workload.primary(),
        }
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = _layer_metrics(
                tracer, workload, args.trace_dir)
        _emit("RESULT " + json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
