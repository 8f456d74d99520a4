"""Benchmark of the WaMPDE reproduction: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fm_envelope --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``; why each exists is in ``BENCHMARK.json``):
``fm_envelope``, ``transient_reference``, ``mixer_steady_state`` and
``service_mix``.  ``python3 perfbench/run.py --selftest`` runs the
benchmark's own tests.

``--trace 0`` prints the end-to-end metrics of ``metrics.END_TO_END``.
``setup_s`` is the median over ``SETUPS`` fresh processes of the time from
process start to the first timed unit, each with a new, empty kernel
cache, so every set-up pays the cold C build; the last of those processes
then times units for ``--seconds``.

``--trace 1`` prints the per-layer metrics of ``metrics.PER_LAYER``: an
untraced process and a traced one each time units for half of
``--seconds``; the traced one records spans around every layer boundary
(``tracing.py``), and the difference of the two per-unit medians is the
tracing overhead.

Every run clears the library's environment switches (``ENV_CLEARED``),
pins BLAS to one thread so that load stays within the client plus one pool
worker, prints the resolved kernel mode and tool versions, and refuses to
run unless the kernel resolves to ``REQUIRED_KERNEL``: the NumPy fallback
is about 100x slower, so its numbers are not comparable.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: Fresh processes whose set-up time is measured per run.
SETUPS = 3
#: Library switches a run must not inherit.
ENV_CLEARED = ("REPRO_KERNEL", "REPRO_XP", "REPRO_XP_BLOCK", "REPRO_FULL")
#: Kernel mode the benchmark's numbers are defined for.
REQUIRED_KERNEL = "c"
#: Seconds a child may take beyond its measuring time before it is killed.
CHILD_SLACK_S = 100.0


class ChildFailed(RuntimeError):
    pass


def child_env(run_dir, index):
    """Environment of one child: cleared switches, fresh kernel cache."""
    env = {k: v for k, v in os.environ.items() if k not in ENV_CLEARED}
    cache = run_dir / f"kernels-{index}"
    tmp = run_dir / "tmp"
    cache.mkdir(parents=True)
    tmp.mkdir(exist_ok=True)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(
        REPRO_KERNEL_CACHE=str(cache), TMPDIR=str(tmp),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def environment(env):
    """Kernel mode, tool versions and core count the run used."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy\n"
         "from repro.kernels.backends import resolve_mode\n"
         "print(json.dumps({'kernel_mode': resolve_mode('auto')[0],"
         " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise ChildFailed(f"environment probe failed:\n{probe.stderr}")
    record = json.loads(probe.stdout.strip().splitlines()[-1])
    cc = shutil.which(env.get("CC") or "cc")
    if cc:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=60).stdout
        record["cc"] = version.splitlines()[0] if version else cc
    else:
        record["cc"] = None
    record["nproc"] = os.cpu_count()
    record["python"] = sys.version.split()[0]
    return record


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args, env, seconds, setup_only=False, trace_dir=None,
              label=""):
    """Start a child, time it until ``READY``; return (setup_s, result)."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    start = time.perf_counter()
    # The child leads its own process group, so a hung child and its pool
    # worker can be killed together.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    watchdog = threading.Timer(seconds + CHILD_SLACK_S, _kill_group, (proc,))
    watchdog.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif line:
                print(line.replace("# ", "# " + label, 1), flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None or proc.returncode != 0:
            _kill_group(proc)
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise ChildFailed(f"{args.workload} child exited with "
                          f"{proc.returncode}")
    if not setup_only and result is None:
        raise ChildFailed(f"{args.workload} child printed no result")
    return setup_s, result


def measure(args, run_dir):
    setups = []
    for index in range(SETUPS - 1):
        setup_s, _ = run_child(args, child_env(run_dir, index),
                               args.seconds, setup_only=True)
        setups.append(setup_s)
    setup_s, result = run_child(args, child_env(run_dir, SETUPS - 1),
                                args.seconds)
    setups.append(setup_s)
    values = dict(result["values"], setup_s=statistics.median(setups))
    print(f"# setup_s per process: "
          + ", ".join(f"{s:.3f}" for s in setups), flush=True)
    return result, values, metrics.END_TO_END


def measure_traced(args, run_dir):
    half = args.seconds / 2.0
    _, plain = run_child(args, child_env(run_dir, 0), half,
                         label="[untraced] ")
    trace_dir = ROOT / ".perfbench" / "traces" / (
        f"{args.workload}-seed{args.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    _, traced = run_child(args, child_env(run_dir, 1), half,
                          trace_dir=trace_dir, label="[traced] ")
    values = dict(traced["layers"])
    values["trace.overhead_share"] = (
        traced["primary"] / plain["primary"] - 1.0)
    print(f"# spans written to {trace_dir.relative_to(ROOT)}/spans.jsonl; "
          f"per-unit {metrics.PRIMARY}: untraced "
          f"{plain['primary']:.6f}, traced {traced['primary']:.6f}",
          flush=True)
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced, values, metrics.PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no library source (src/repro); run "
              f"from the root of a checkout", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env_record = environment(child_env(run_dir, "probe"))
        print("# env " + json.dumps(env_record, sort_keys=True), flush=True)
        if env_record["kernel_mode"] != REQUIRED_KERNEL:
            print(f"error: kernel mode {env_record['kernel_mode']!r} is not "
                  f"{REQUIRED_KERNEL!r}; its timings are not comparable "
                  f"with this benchmark's", file=sys.stderr)
            return 3
        if args.trace:
            result, values, table = measure_traced(args, run_dir)
        else:
            result, values, table = measure(args, run_dir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(values) != set(table):
        print(f"error: metric names {sorted(values)} differ from the "
              f"table {sorted(table)}", file=sys.stderr)
        return 1
    for name, unit in table.items():
        print(f"{name} = {values[name]:.6g} {unit}", flush=True)
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
