"""The one on-disk format for binary artifacts (embedding matrix, NMT
checkpoint, subword model, cross-space mapping): an uncompressed .npz of a
JSON header and named float arrays, validated when read.  `atomic_open` is
the one way the package writes a file, artifact or text."""

import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SIGNATURE = b"PK\x03\x04"  # the first four bytes of every artifact (a zip file)


class ArtifactError(ValueError):
    """An artifact that cannot be read; the message starts with its path."""


@contextmanager
def atomic_open(path, text=False):
    """A binary (or UTF-8 `text`) handle on a temp file beside `path`, moved
    onto `path` once the block completes; if it raises, the temp file is
    removed and `path` is untouched.  An OSError on the temp file names `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") if text else open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp):
            raise type(e)(e.errno, e.strerror, str(path)) from e
        raise


def save(path, kind, header, arrays):
    """Write `arrays` and the JSON-able `header` to exactly `path`, atomically."""
    meta = np.array(json.dumps({"kind": kind, **header}))
    with atomic_open(path) as fh:
        np.savez(fh, allow_pickle=False, header=meta, **arrays)


def load(path, kind, decode):
    """Return decode(header, arrays) for the artifact of `kind` at `path`.
    Any failure to open or parse it, or raised by `decode` (truncation, a
    missing key, a shape rejected by `require_shape`), becomes an
    ArtifactError."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            header = json.loads(z["header"][()])
            if header["kind"] != kind:
                raise ValueError(f"expected a {kind}, found a {header['kind']}")
            return decode(header, {name: z[name] for name in z.files if name != "header"})
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else e
        raise ArtifactError(f"{path}: not a readable {kind}: {reason}") from e


def require_shape(arrays, name, shape):
    """arrays[name], checked to have `shape`, where a None entry allows any
    length."""
    got = arrays[name].shape
    if len(got) != len(shape) or any(want not in (None, n) for n, want in zip(got, shape)):
        raise ValueError(f"array {name!r} has shape {got}, expected {tuple(shape)}")
    return arrays[name]
