"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, with all outputs checked; it finishes in well under a minute.

    python3 benchmarks/smoke.py        (or: python3 -m pytest benchmarks/smoke.py)
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402


def test_every_workload_tiny():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in workloads.WORKLOADS.values():
        for trace in (False, True):
            result = run.run_benchmark(workloads.tiny(w), seed=3, seconds=0, trace=trace)["result"]
            assert result["correct"] and result["failed"] == 0, (w.name, trace, result)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (w.name, trace)
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result


if __name__ == "__main__":
    test_every_workload_tiny()
    print("benchmark smoke test passed")
