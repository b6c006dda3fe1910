"""Properties of the array container, checked for all three file kinds."""

import errno
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mmsqc import arrayio
from mmsqc.dataset import SequenceDataset
from mmsqc.sqc import TrajectoryEnsemble
from mmsqc.surrogate import (TENSOR_FIELDS, LstmParams, TrainConfig, load_checkpoint,
                             save_checkpoint)

# bit patterns of NaN (quiet, signalling, negative), +-inf, -0.0 and denormals
SPECIAL_BITS = [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
                0x7FF0000000000000, 0xFFF0000000000000, 0x8000000000000000,
                0x0000000000000001]
BITS = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


def any_floats(shape):
    """float64 arrays holding arbitrary bit patterns."""
    return arrays(np.uint64, shape, elements=BITS).map(lambda a: a.view(np.float64))


@st.composite
def ensembles(draw):
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 3)), 2 * draw(st.integers(1, 2)))
    return TrajectoryEnsemble(draw(st.sampled_from([0.5, 1.0])), draw(any_floats(shape)), 1,
                              "I", draw(st.integers(0, 9)))


@st.composite
def datasets(draw):
    seq_len, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    train, validation = (draw(any_floats((draw(st.integers(0, 3)), seq_len, dim)))
                         for _ in range(2))
    return SequenceDataset(seq_len, dim, train, validation, "abc", draw(st.integers(0, 9)))


@st.composite
def checkpoints(draw):
    dim, hidden = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = LstmParams.zeros(dim, hidden).flat.size
    return LstmParams(draw(any_floats((size,))), dim, hidden)


def _save_checkpoint(params, path):
    save_checkpoint(path, params, TrainConfig(seq_len=3, hidden=params.hidden, epochs=1))


# kind -> (strategy, save(obj, path), load(path) -> payload arrays, typed header fields)
KINDS = {
    "ensemble": (ensembles(), lambda obj, path: obj.save(path),
                 lambda path: [TrajectoryEnsemble.load(path).data],
                 ["n_traj", "n_steps", "dim", "n_states", "record_dt"]),
    "dataset": (datasets(), lambda obj, path: obj.save(path),
                lambda path: [(d := SequenceDataset.load(path)).train, d.validation],
                ["seq_len", "dim", "n_train", "n_validation"]),
    "checkpoint": (checkpoints(), _save_checkpoint,
                   lambda path: [load_checkpoint(path)[0].flat],
                   ["dim", "hidden", "seq_len"]),
}


def payloads(obj) -> list:
    if isinstance(obj, TrajectoryEnsemble):
        return [obj.data]
    if isinstance(obj, SequenceDataset):
        return [obj.train, obj.validation]
    return [obj.flat]


def with_header(raw: bytes, edit) -> bytes:
    """`raw` with its header passed through edit(dict), re-encoded as written."""
    line, body = raw.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body


def kind_case(test):
    """Run `test(kind, obj, path, raw, data)` for every kind on drawn contents:
    `obj` was saved to `path`, whose bytes are `raw`; `data` draws more."""
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def wrapper(kind, data):
        obj = data.draw(KINDS[kind][0])
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "file")
            KINDS[kind][1](obj, path)
            test(kind, obj, path, Path(path).read_bytes(), data)
    wrapper.__name__ = test.__name__
    return wrapper


@kind_case
def test_round_trip_is_bit_exact(kind, obj, path, raw, data):
    loaded = KINDS[kind][2](path)
    assert len(loaded) == len(payloads(obj))
    for got, want in zip(loaded, payloads(obj)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@kind_case
def test_loads_are_writable_and_unshared(kind, obj, path, raw, data):
    first, second = KINDS[kind][2](path), KINDS[kind][2](path)
    for a in first:
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in second)


@kind_case
def test_truncated_payload_is_a_size_error(kind, obj, path, raw, data):
    body = len(raw) - raw.index(b"\n") - 1
    cut = data.draw(st.integers(1, body) if body else st.just(0))
    extra = data.draw(st.integers(1, 9))
    for broken in ([raw[:-cut]] if cut else []) + [raw + b"\0" * extra]:
        Path(path).write_bytes(broken)
        with pytest.raises(arrayio.PayloadSizeError):
            KINDS[kind][2](path)


@kind_case
def test_changed_version_is_a_version_error(kind, obj, path, raw, data):
    version = data.draw(st.one_of(st.integers().filter(lambda v: v != 1),
                                  st.sampled_from(["1", None, [1], True, 1.0])))
    Path(path).write_bytes(with_header(raw, lambda h: h.update(version=version)))
    with pytest.raises(arrayio.VersionError):
        KINDS[kind][2](path)


@kind_case
def test_wrong_kind_or_bad_field_is_a_header_error(kind, obj, path, raw, data):
    other = data.draw(st.sampled_from([k for k in KINDS if k != kind]))
    with pytest.raises(arrayio.HeaderError, match="not a"):
        KINDS[other][2](path)
    Path(path).write_bytes(with_header(raw, lambda h: h.update(kind="mmsqc.other")))
    with pytest.raises(arrayio.HeaderError):
        KINDS[kind][2](path)
    key = data.draw(st.sampled_from(KINDS[kind][3]))
    bad = data.draw(st.sampled_from(["missing", None, "x", [1]]))
    edit = (lambda h: h.pop(key)) if bad == "missing" else (lambda h: h.update({key: bad}))
    Path(path).write_bytes(with_header(raw, edit))
    with pytest.raises(arrayio.HeaderError):
        KINDS[kind][2](path)


# kind -> the layout stamp its loader checks, and a foreign value of it
STAMPS = {"ensemble": ("ordering", "Q|P|x_e|p_e"), "dataset": ("ordering", "Q|P|x_e|p_e"),
          "checkpoint": ("tensor_order", list(reversed(TENSOR_FIELDS)))}


@kind_case
def test_foreign_layout_stamp_is_a_header_error(kind, obj, path, raw, data):
    key, foreign = STAMPS[kind]
    assert json.loads(raw.split(b"\n", 1)[0])[key] != foreign
    bad = data.draw(st.sampled_from(["missing", None, foreign]))
    edit = (lambda h: h.pop(key)) if bad == "missing" else (lambda h: h.update({key: bad}))
    Path(path).write_bytes(with_header(raw, edit))
    with pytest.raises(arrayio.HeaderError, match=re.escape(f"{path}: unknown {key} ")):
        KINDS[kind][2](path)


@settings(max_examples=40, deadline=None)
@given(ensembles())
def test_content_hash_is_the_file_hash(ens):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.traj"
        ens.save(str(path))
        assert ens.content_hash() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_negative_size_in_header_is_a_header_error(tmp_path):
    path = tmp_path / "e.traj"
    TrajectoryEnsemble(1.0, np.zeros((2, 1, 2)), 1).save(str(path))
    edit = lambda h: h.update(n_traj=-2, n_steps=-1)   # product still matches the payload
    path.write_bytes(with_header(path.read_bytes(), edit))
    with pytest.raises(arrayio.HeaderError, match="negative"):
        TrajectoryEnsemble.load(str(path))


# ---------------------------------------------------------------------------
# the payload writer


@pytest.mark.parametrize("pad", range(8))   # header lengths of every residue mod 8
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_row_writer_file_equals_the_written_file(pad, data):
    """A payload written through `payload_file`'s writer, in any partition of
    its rows and in any order, gives the bytes `write_array_file` writes and
    reads back bit-exact. The writer refuses rows of another trailing shape
    and rows outside the payload."""
    shape = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
    payload = data.draw(any_floats(shape))
    cuts = sorted(data.draw(st.lists(st.integers(0, shape[0]), max_size=4)))
    ranges = data.draw(st.permutations(list(zip([0, *cuts], [*cuts, shape[0]]))))
    header = {"pad": "x" * pad, "n": list(shape)}
    with tempfile.TemporaryDirectory() as tmp:
        written, row_written = f"{tmp}/written", f"{tmp}/row_written"
        arrayio.write_array_file(written, arrayio.ENSEMBLE, header, payload)
        with arrayio.payload_file(row_written, arrayio.ENSEMBLE, header, shape) as write:
            assert write.shape == shape
            for a, b in ranges:
                write(a, payload[a:b])
            for first, rows in [(0, np.zeros((1, *shape[1:], 1))),   # another trailing shape
                                (shape[0], np.zeros((1, *shape[1:]))),   # past the end
                                (max(shape[0] - 1, 0), np.zeros((2, *shape[1:]))),
                                (-1, np.zeros((1, *shape[1:])))]:
                with pytest.raises(ValueError, match="do not fit"):
                    write(first, rows)
        assert Path(row_written).read_bytes() == Path(written).read_bytes()
        _, (back,) = arrayio.read_array_file(row_written, arrayio.ENSEMBLE,
                                             lambda h: [tuple(h["n"])])
        assert back.tobytes() == payload.tobytes()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["row_written", "written"]


def test_payload_writer_is_closed_after_its_block(tmp_path):
    """Once the block ends the writer refuses every call, so a write through
    a stale descriptor number never lands in a file opened since."""
    path = tmp_path / "e.traj"
    with arrayio.payload_file(str(path), arrayio.ENSEMBLE, {}, (2, 3)) as write:
        write(0, np.ones((2, 3)))
    raw = path.read_bytes()
    with open(tmp_path / "other", "wb") as fh:   # may reuse the descriptor's number
        fh.flush()
        with pytest.raises(ValueError, match="closed"):
            write(0, np.zeros((1, 3)))
    assert (tmp_path / "other").read_bytes() == b"" and path.read_bytes() == raw
    with pytest.raises(KeyError):
        with arrayio.payload_file(str(path), arrayio.ENSEMBLE, {}, (2, 3)) as write:
            raise KeyError("in the block")
    with pytest.raises(ValueError, match="closed"):
        write(0, np.zeros((1, 3)))


def test_row_writer_file_fails_cleanly(tmp_path, monkeypatch):
    """An error inside the block, or a full disk when the payload's blocks
    are reserved, leaves neither the file nor a temp file, and an older file
    under the same name as it was."""
    path = tmp_path / "e.traj"
    with pytest.raises(KeyError):
        with arrayio.payload_file(str(path), arrayio.ENSEMBLE, {}, (3, 2)) as out:
            out(0, np.ones((1, 2)))
            raise KeyError("in the block")
    assert list(tmp_path.iterdir()) == []

    path.write_bytes(b"older")

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
    with pytest.raises(OSError) as err:
        with arrayio.payload_file(str(path), arrayio.ENSEMBLE, {}, (1 << 20, 64)):
            pytest.fail("the block ran on a full disk")
    assert err.value.errno == errno.ENOSPC
    assert [p.name for p in tmp_path.iterdir()] == ["e.traj"]
    assert path.read_bytes() == b"older"
