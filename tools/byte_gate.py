"""Byte gate: run the 18-file pipeline chain and print each output's SHA-256.

    python3 tools/byte_gate.py [--workers W] [--expect BENCH_lstm.json]

The chain is 16 `mmsqc` commands (model I and V simulate -> dataset ->
train --loss-csv -> rollout, six analysis CSVs, a 130-trajectory model I
rollout and a 70-trajectory model III simulate). It runs through
`mmsqc.cli.main` in a temporary directory, with BLAS on one thread; W goes to
every simulate and rollout. Every output is the same for any W. With
--expect, each hash is compared with `byte_gate.files.<name>.change` of that
JSON file, and any difference exits 1. It takes a few seconds.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads: BLAS rounding follows it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from mmsqc import cli  # noqa: E402

# (command line, files it writes); "W" stands for the worker count
CHAIN = [
    ("simulate --model I --ntraj 24 --t-end 40 --seed 5 --workers W --out I.traj", ["I.traj"]),
    ("dataset --ensemble I.traj --seq-len 5 --seed 6 --out I.seq", ["I.seq"]),
    ("train --dataset I.seq --hidden 128 --lr 1e-3 --batch 50 --epochs 2 --seed 7 "
     "--out I.ckpt --loss-csv I.loss.csv", ["I.ckpt", "I.loss.csv"]),
    ("rollout --model I --checkpoint I.ckpt --ntraj 24 --steps 40 --seed 5 --workers W "
     "--out I.pred.traj", ["I.pred.traj"]),
    ("simulate --model V --ntraj 16 --t-end 30 --seed 8 --workers W --out V.traj", ["V.traj"]),
    ("dataset --ensemble V.traj --seq-len 20 --seed 9 --out V.seq", ["V.seq"]),
    ("train --dataset V.seq --hidden 64 --lr 1e-3 --batch 50 --epochs 2 --seed 10 "
     "--out V.ckpt --loss-csv V.loss.csv", ["V.ckpt", "V.loss.csv"]),
    ("rollout --model V --checkpoint V.ckpt --ntraj 16 --steps 60 --seed 11 --workers W "
     "--out V.pred.traj", ["V.pred.traj"]),
    ("analyze populations --ensemble I.pred.traj --out I.pops", ["I.pops"]),
    ("analyze compare --pred I.pred.traj --ref I.traj --out I.compare", ["I.compare"]),
    ("analyze mae --pred I.pred.traj --ref I.traj --slices 10,20,30,40 --out I.mae", ["I.mae"]),
    ("analyze hist --ensemble I.traj --var 0 --bins 20 --out I.hist", ["I.hist"]),
    ("analyze populations --ensemble V.traj --out V.pops", ["V.pops"]),
    ("analyze hist --ensemble V.pred.traj --var 100 --bins 20 --out V.hist", ["V.hist"]),
    ("rollout --model I --checkpoint I.ckpt --ntraj 130 --steps 12 --seed 5 --workers W "
     "--out I130", ["I130"]),
    ("simulate --model III --ntraj 70 --t-end 5 --seed 3 --workers W --out III", ["III"]),
]


def run_chain(workers: int) -> dict:
    """Run the chain in a fresh temporary directory; return {file: sha256}."""
    hashes, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for line, outputs in CHAIN:
                argv = [str(workers) if word == "W" else word for word in line.split()]
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = cli.main(argv)
                if code != 0:
                    sys.exit(f"mmsqc {' '.join(argv)} exited {code}:\n{log.getvalue()}")
                for name in outputs:
                    hashes[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--expect", help="JSON file with byte_gate.files.<name>.change hashes")
    args = parser.parse_args(argv)
    expected = {}
    if args.expect:
        files = json.loads(Path(args.expect).read_text())["byte_gate"]["files"]
        expected = {name: entry["change"] for name, entry in files.items()}
    hashes = run_chain(args.workers)
    differ = [name for name in hashes if expected and hashes[name] != expected.get(name)]
    for name, digest in hashes.items():
        print(f"{digest}  {name}{'  DIFFERS' if name in differ else ''}")
    if expected:
        print(f"{len(hashes) - len(differ)} of {len(hashes)} files match {args.expect} "
              f"at --workers {args.workers}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
