"""The byte contract of `tools/byte_gate.py`: its 18-file chain writes the
same bytes at --workers 1, 2 and 3, and the bytes recorded in
`BENCH_lstm.json` wherever numpy, BLAS and the BLAS threads are those
recorded there (BLAS kernels set the last bits of training and replay)."""

import importlib.util
import json
import os
import platform
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKERS = (1, 2, 3)


@pytest.fixture(scope="module")
def chain_hashes():
    """{workers: {file: sha256}} of the chain at each worker count."""
    spec = importlib.util.spec_from_file_location("byte_gate", ROOT / "tools" / "byte_gate.py")
    byte_gate = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):   # it sets the BLAS threads for its own interpreter
        spec.loader.exec_module(byte_gate)
    return {workers: byte_gate.run_chain(workers) for workers in WORKERS}


def test_byte_gate_chain_is_worker_invariant(chain_hashes):
    assert len(chain_hashes[1]) == 18
    for workers in WORKERS[1:]:
        assert chain_hashes[workers] == chain_hashes[1]


def test_byte_gate_chain_matches_its_record(chain_hashes):
    record = json.loads((ROOT / "BENCH_lstm.json").read_text())
    env = record["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    here = {"machine": platform.machine(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in env["threads"]}}
    if any(here[key] != env[key] for key in here):
        pytest.skip(f"recorded for {env}, not for {here}")
    expected = {name: entry["change"] for name, entry in record["byte_gate"]["files"].items()}
    assert chain_hashes[1] == expected
