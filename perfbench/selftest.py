"""The benchmark's own tests.

Run with ``python3 perfbench/run.py --selftest`` (or point pytest at this
file).  They need neither the library nor a C compiler, except
``test_stream_builds_library_requests``, which passes trivially when the
library's ``src`` is absent.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.append(str(HERE.parent / "src"))

import metrics  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402


def test_same_seed_same_requests():
    assert stream.request_specs(7) == stream.request_specs(7)
    assert stream.request_specs(7) != stream.request_specs(8)


def test_stream_shares_and_replays():
    specs = stream.request_specs(3, blocks=10)
    assert len(specs) == 10 * stream.BLOCK
    kinds = [kind for kind, _ in specs]
    replays = sum(kind.startswith("replay") for kind in kinds)
    assert replays / len(specs) == 0.7
    seen = {key for key in stream.warmup_specs()}
    for kind, key in specs:
        if kind.startswith("replay"):
            assert key in seen, "a replay must repeat an earlier request"
        else:
            assert key not in seen, "a compute request must be new"
        seen.add(key)


def test_percentile_rule():
    # The median plus the highest percentile with ten samples beyond it.
    assert metrics.tail_percentile(99) is None
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(999) == 90.0
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(10000) == 99.9
    values = list(range(1, 101))
    assert metrics.percentile(values, 90.0) == 90
    assert metrics.percentile(values, 50.0) == 50


def test_self_time_arithmetic():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: they cover
    # [1, 6]) and [8, 9]; the first child has a grandchild [2, 3].
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 9.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    # A second root of the unit outside the first adds coverage.
    spans.append(["e", 11.0, 12.0, None, 0])
    wall, uncovered = tracing.uncovered_time(spans, {0: (0.0, 13.0)})[0]
    assert (wall, uncovered) == (13.0, 2.0)


def test_layer_metrics_per_unit():
    spans = [
        ["wampde.envelope.march", 0.0, 4.0, None, 0],
        ["linalg.solver_core.solve", 1.0, 3.0, 0, 0],
        ["kernels.build", -2.0, -1.0, None, None],
        ["wampde.envelope.march", 5.0, 7.0, None, 1],
    ]
    counts = {(0, "solves"): 2, (0, "iterations"): 6,
              (0, "factorizations"): 1, (None, "solves"): 5}
    out = metrics.layer_metrics(spans, counts, {0: (0.0, 4.0),
                                                1: (5.0, 8.0)})
    assert set(out) == set(metrics.PER_LAYER)
    assert out["wampde.envelope.march.self_s"] == (2.0 + 2.0) / 2
    assert out["linalg.solver_core.solve.calls"] == 0.5
    assert out["linalg.solver_core.iterations_per_solve"] == 3.0
    assert out["linalg.solver_core.factorizations_per_solve"] == 0.5
    assert out["kernels.build.busy_s"] == 1.0
    assert out["trace.uncovered_share"] == 1.0 / 7.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert metrics.END_TO_END == {m["name"]: m["unit"]
                                  for m in spec["end_to_end"]}
    assert metrics.PER_LAYER == {m["name"]: m["unit"]
                                 for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert metrics.PRIMARY in metrics.END_TO_END


def test_stream_builds_library_requests():
    try:
        import repro  # noqa: F401
    except ImportError:
        return
    kind, key = stream.request_specs(1)[0]
    request = stream.build_request(key)
    assert request.cache_key() == stream.build_request(key).cache_key()


def main():
    tests = [(name, func) for name, func in sorted(globals().items())
             if name.startswith("test_") and callable(func)]
    failures = 0
    for name, func in tests:
        try:
            func()
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
