"""One uncompressed ``.npz`` file per saved object.

Each named array keeps its own dtype and shape; the object's metadata
is a JSON document stored as a 0-d string array in the reserved member
``META``.  ``np.load(..., allow_pickle=False)`` checks every array's
header against its data, so this module only checks the metadata's
``kind``.  Every member is dated 1980-01-01, so one object written twice
gives the same bytes.  Files of the old JSON manifest + ``.blob`` pair
are rejected, not read.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

META = "__meta__"


class BlobFormatError(ValueError):
    """Raised when a saved object cannot be read or is of another kind."""


def write_arrays(path, arrays, meta):
    """Write named ``arrays`` and the JSON-serializable ``meta`` to
    ``path`` exactly (no ``.npz`` suffix is appended)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **{META: np.array(json.dumps(meta, sort_keys=True))},
                 **arrays)


def read_arrays(path, kind):
    """Read back an object of ``kind`` written by :func:`write_arrays`.

    Returns ``(arrays, meta)``.  Raises :class:`BlobFormatError` on a
    missing or unreadable file, a file that is not an ``.npz`` archive
    (an old manifest among them), a truncated archive, a missing or
    malformed meta member, and an object of another kind.
    """
    try:
        with open(path, "rb") as fh:
            is_zip = fh.read(2) == b"PK"
        if is_zip:
            with np.load(path, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
    except OSError as exc:
        raise BlobFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise BlobFormatError(f"{path} is a damaged .npz archive: {exc}") from exc
    if not is_zip:
        raise BlobFormatError(f"{path} is not an .npz archive; the JSON "
                              f"manifest + .blob format is no longer read")
    if META not in arrays:
        raise BlobFormatError(f"{path} has no {META} member")
    try:
        meta = json.loads(arrays.pop(META).item())
    except (ValueError, TypeError) as exc:
        raise BlobFormatError(f"{path}: malformed {META}: {exc}") from exc
    if not isinstance(meta, dict):
        raise BlobFormatError(f"{path}: {META} is not a JSON object")
    if meta.get("kind") != kind:
        raise BlobFormatError(
            f"{path} holds a {meta.get('kind')!r}, not a {kind!r}")
    return arrays, meta
