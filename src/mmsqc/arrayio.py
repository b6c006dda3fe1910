"""Binary array container: one-line JSON header + little-endian float64 payload.

The one module that knows the format of trajectory ensembles, sequence
datasets and network checkpoints. Callers name a kind, their own header
fields and their payload arrays; this module stamps and checks `kind` and
`version`, converts the typed fields, checks the payload length the header
promises, and streams payloads to and from disk without intermediate copies
or lets writers place a payload's rows by position. Round trips are
bit-exact; all writes are atomic (temp file + rename).
"""

import contextlib
import hashlib
import json
import math
import os
import tempfile

import numpy as np

PAYLOAD_DTYPE = np.dtype("<f8")
FORMAT_VERSION = 1

# the kinds stamped into headers, and what a loader calls each in its errors
ENSEMBLE = "mmsqc.ensemble"
DATASET = "mmsqc.dataset"
CHECKPOINT = "mmsqc.checkpoint"
_KIND_NAMES = {ENSEMBLE: "trajectory ensemble", DATASET: "sequence dataset",
               CHECKPOINT: "checkpoint"}


class ArrayFileError(Exception):
    """Base class for container format errors."""


class HeaderError(ArrayFileError):
    """Missing, unparsable or inconsistent header."""


class PayloadSizeError(ArrayFileError):
    """Payload length does not match what the header promises."""


class VersionError(ArrayFileError):
    """File was written by an incompatible format version."""


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file handle whose contents appear under `path` only on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)   # mkstemp creates 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, data: bytes) -> None:
    """Write bytes so that a partial file is never visible under `path`."""
    with _atomic_file(path) as fh:
        fh.write(data)


def _chunks(kind: str, header: dict, payloads):
    """The file's bytes as buffers: the header line, then each payload.
    Header keys are sorted for byte determinism."""
    stamped = {**header, "kind": kind, "version": FORMAT_VERSION}
    yield json.dumps(stamped, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    for payload in payloads:
        yield np.ascontiguousarray(payload, dtype=PAYLOAD_DTYPE).reshape(-1)


def write_array_file(path: str, kind: str, header: dict, *payloads) -> None:
    """Write `header` stamped with `kind` and the format version, then the
    payload arrays back to back."""
    with _atomic_file(path) as fh:
        for chunk in _chunks(kind, header, payloads):
            fh.write(chunk)


class PayloadWriter:
    """`write(first, rows)` puts `rows` (k, *shape[1:]) at rows first..first+k-1
    of a payload of `shape` with `os.pwrite`, which leaves the file offset
    alone, so processes forked while it is open write through the descriptor
    they inherit. Refuses rows that do not fit, and any call once closed."""

    def __init__(self, fd: int, offset: int, shape: tuple):
        self.fd, self.offset, self.shape = fd, offset, shape

    def __call__(self, first: int, rows) -> None:
        if self.fd is None:
            raise ValueError("payload writer is closed")
        rows = np.ascontiguousarray(rows, dtype=PAYLOAD_DTYPE)
        if rows.shape[1:] != self.shape[1:] or not 0 <= first <= self.shape[0] - len(rows):
            raise ValueError(f"at row {first}, rows of shape {rows.shape} do not fit {self.shape}")
        data = memoryview(rows.reshape(-1)).cast("B")
        at = self.offset + first * math.prod(self.shape[1:]) * PAYLOAD_DTYPE.itemsize
        done = 0
        while done < len(data):   # a write may be partial
            done += os.pwrite(self.fd, data[done:], at + done)


@contextlib.contextmanager
def payload_file(path: str, kind: str, header: dict, shape):
    """Write a `kind` file with one payload of `shape`, placed row by row:
    writes the header, reserves the payload's disk blocks (a full disk is an
    OSError here, before the yield) and yields a `PayloadWriter` of the temp
    file, closed when the block ends. On success the file appears under
    `path` with the bytes `write_array_file(path, kind, header, payload)`
    writes, once every row is written; on an error it is removed."""
    shape = tuple(shape)
    with _atomic_file(path) as fh:
        line = next(_chunks(kind, header, ()))
        fh.write(line)
        fh.flush()
        os.posix_fallocate(fh.fileno(), 0, len(line) + math.prod(shape) * PAYLOAD_DTYPE.itemsize)
        writer = PayloadWriter(fh.fileno(), len(line), shape)
        try:
            yield writer
        finally:
            writer.fd = None   # closed: the descriptor's number may be reused


def file_sha256(kind: str, header: dict, *payloads) -> str:
    """SHA-256 of the file `write_array_file` would write, without building it."""
    digest = hashlib.sha256()
    for chunk in _chunks(kind, header, payloads):
        digest.update(chunk)
    return digest.hexdigest()


def read_array_file(path: str, kind: str, shapes, layout=None, **fields) -> tuple[dict, list]:
    """Read a `kind` file: (header, one fresh writable float64 array per shape).

    `layout` maps header keys to the one value each must hold (the layout
    stamps a writer puts there, such as the variable ordering); `fields`
    maps header keys to casts (`n_traj=int`), and the returned header holds
    the cast values. `shapes(header)` gives the payload shapes the header
    promises, in file order.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise HeaderError(f"{path}: no header line found")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HeaderError(f"{path}: corrupt header: {exc}") from None
        if not isinstance(header, dict):
            raise HeaderError(f"{path}: header is not an object")
        if header.get("kind") != kind:
            raise HeaderError(f"{path}: not a {_KIND_NAMES[kind]} file")
        version = header.get("version")
        if type(version) is not int or version != FORMAT_VERSION:   # true == 1.0 == 1
            raise VersionError(f"{path}: unsupported version {version!r}")
        for key, value in (layout or {}).items():
            if header.get(key) != value:
                raise HeaderError(f"{path}: unknown {key} {header.get(key)!r}")
        try:
            for key, cast in fields.items():
                header[key] = cast(header[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise HeaderError(f"{path}: incomplete header: {exc}") from None
        promised = [tuple(shape) for shape in shapes(header)]
        if any(n < 0 for shape in promised for n in shape):
            raise HeaderError(f"{path}: negative array size in header {promised}")
        expected = sum(math.prod(shape) for shape in promised) * PAYLOAD_DTYPE.itemsize
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise PayloadSizeError(f"{path}: expected {expected} payload bytes, found {found}")
        arrays = [np.empty(shape, dtype=PAYLOAD_DTYPE) for shape in promised]
        for arr in arrays:
            view = arr.reshape(-1).view(np.uint8)
            if fh.readinto(view) != view.size:
                raise PayloadSizeError(f"{path}: payload ended early")
    return header, arrays
