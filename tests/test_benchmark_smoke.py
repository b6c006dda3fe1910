"""The benchmark's calls into `mmsqc` still work: `benchmarks/smoke.py` runs
every workload at a tiny size, untraced and traced, with all outputs
checked. It reads `TrainConfig`'s Adam settings, replays an epoch through
the public surrogate functions and calls the rollout and simulate entry
points, so a change to any of them shows here. It writes only under the
repository's `.bench_work/`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_script_passes():
    run = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-4000:]
    assert "benchmark smoke test passed" in run.stdout
