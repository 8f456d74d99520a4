"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload fm_envelope --seeds 1-10

Runs ``run.py`` once per seed with ``run_seconds`` from ``BENCHMARK.json``
and prints, per metric, the median and the inter-quartile distance as a
share of the median next to the metric's bound.  ``--save FILE`` writes the
runs; ``--against FILE`` also prints how far this set's medians moved from
a saved set.  Runs whose kernel mode or tool versions differ are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import quartile_spread  # noqa: E402


def seeds_from(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines
               if line.startswith("# env "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def medians(runs):
    names = runs[0]["result"]["metrics"]
    return {name: statistics.median(
        r["result"]["metrics"][name]["value"] for r in runs)
        for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds_from(args.seeds):
        runs.append(one_run(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed}: " + json.dumps(runs[-1]["result"]), flush=True)
    previous = []
    if args.against:
        previous = json.loads(Path(args.against).read_text())
    envs = {json.dumps(r["env"], sort_keys=True) for r in runs + previous}
    if len(envs) > 1:
        raise SystemExit("refusing to compare runs with different kernel "
                         "modes or tool versions:\n" + "\n".join(envs))
    if args.save:
        Path(args.save).write_text(json.dumps(runs))

    now = medians(runs)
    then = medians(previous) if previous else {}
    print(f"{'metric':22} {'median':>12} {'iqr/median':>11} {'bound':>6}"
          + ("  moved" if then else ""))
    for name, mid in now.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        share = quartile_spread(values) if mid else 0.0
        line = f"{name:22} {mid:12.6g} {share:11.4f} {bounds[name]:6.2f}"
        if name in then:
            line += f"  {now[name] / then[name] - 1.0:+.4f}"
        print(line)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"{len(runs)} runs, {failed} failed units")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
