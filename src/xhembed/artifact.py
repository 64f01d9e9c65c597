"""The one on-disk format for binary artifacts (embedding matrix, NMT
checkpoint, subword model, cross-space mapping): an uncompressed .npz holding
a JSON header and named float arrays, written atomically and validated when
read."""

import json
import os
import zipfile
from pathlib import Path

import numpy as np

SIGNATURE = b"PK\x03\x04"  # the first four bytes of every artifact (a zip file)


class ArtifactError(ValueError):
    """An artifact that cannot be read; the message starts with its path."""


def save(path, kind, header, arrays):
    """Write `arrays` and the JSON-able `header` to exactly `path`, through a
    temp file in the same directory so an interrupted write keeps the old file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    meta = np.array(json.dumps({"kind": kind, **header}))
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, allow_pickle=False, header=meta, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path, kind, decode):
    """Return decode(header, arrays) for the artifact of `kind` at `path`.  Any
    failure to open, parse or decode it (truncation, a missing key, a shape
    rejected by `require_shape`) becomes an ArtifactError."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            arrays = {name: z[name] for name in z.files}
        header = json.loads(arrays.pop("header")[()])
        if header["kind"] != kind:
            raise ValueError(f"expected a {kind}, found a {header['kind']}")
        return decode(header, arrays)
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else e
        raise ArtifactError(f"{path}: not a readable {kind}: {reason}") from e


def require_shape(arrays, name, shape):
    """arrays[name], checked to have exactly `shape`."""
    if arrays[name].shape != tuple(shape):
        raise ValueError(f"array {name!r} has shape {arrays[name].shape}, "
                         f"expected {tuple(shape)}")
    return arrays[name]
