"""Manifest + raw blob serialization.

A saved object is a pair of files: ``<path>`` holds a JSON manifest
(shapes, offsets, metadata, endianness tag) and ``<path>.blob`` holds the
numeric payload as little-endian float32, row-major, concatenated in
manifest order.  The format is deliberately dumb so it can be read back
with nothing but ``json`` and ``numpy.frombuffer``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FORMAT_NAME = "float32-blob"
FORMAT_VERSION = 1

_ITEMSIZE = 4  # bytes per float32 element


class BlobFormatError(ValueError):
    """Raised when a manifest/blob pair is malformed or inconsistent."""


def blob_path(manifest_path):
    """Path of the binary payload that belongs to ``manifest_path``."""
    return Path(str(manifest_path) + ".blob")


def write_arrays(manifest_path, arrays, meta=None):
    """Write named arrays plus JSON metadata.

    Parameters
    ----------
    manifest_path : str or Path
        Destination of the JSON manifest; the payload goes to
        ``manifest_path + ".blob"``.
    arrays : dict[str, ndarray]
        Named numeric arrays.  Stored as float32 regardless of input
        dtype; insertion order fixes the blob layout.
    meta : dict, optional
        JSON-serializable metadata stored verbatim in the manifest.
    """
    manifest_path = Path(manifest_path)
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": offset,
                "size": int(arr.size),
            }
        )
        chunks.append(arr.tobytes())
        offset += arr.size * _ITEMSIZE
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "byte_order": "little",
        "dtype": "float32",
        "blob": blob_path(manifest_path).name,
        "arrays": entries,
        "meta": meta or {},
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(blob_path(manifest_path), "wb") as fh:
        fh.write(b"".join(chunks))


def read_arrays(manifest_path):
    """Read back a manifest/blob pair.

    Returns
    -------
    arrays : dict[str, ndarray]
        Named float32 arrays in manifest order.
    meta : dict
        The metadata stored at write time.

    Raises
    ------
    BlobFormatError
        On a malformed manifest, an unknown format tag, a version or
        dtype other than the ones written here, an array entry that
        lacks a key or whose shape, size and offset disagree, or a blob
        whose byte length disagrees with the manifest (message contains
        ``"size mismatch"``).
    """
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BlobFormatError(f"malformed manifest {manifest_path}: {exc}") from exc

    if not isinstance(manifest, dict):
        raise BlobFormatError(f"manifest {manifest_path} is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise BlobFormatError(f"unknown format tag {manifest.get('format')!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise BlobFormatError(f"unsupported format version {manifest.get('version')!r}")
    if manifest.get("dtype") != "float32":
        raise BlobFormatError(f"unsupported dtype {manifest.get('dtype')!r}")
    if manifest.get("byte_order") != "little":
        raise BlobFormatError(f"unsupported byte order {manifest.get('byte_order')!r}")

    entries = manifest.get("arrays", [])
    expected = 0  # bytes; the writer lays arrays end to end in order
    for e in entries:
        missing = sorted({"name", "shape", "offset", "size"} - set(e))
        if missing:
            raise BlobFormatError(f"array entry {e.get('name')!r} lacks {missing}")
        shape = e["shape"]
        if (not all(isinstance(d, int) and d >= 0 for d in shape)
                or math.prod(shape) != e["size"]):
            raise BlobFormatError(
                f"array {e['name']!r}: shape {shape} does not hold size {e['size']}")
        if e["offset"] != expected:
            raise BlobFormatError(
                f"array {e['name']!r}: offset {e['offset']}, expected {expected}")
        expected += e["size"] * _ITEMSIZE
    raw = blob_path(manifest_path).read_bytes()
    if len(raw) != expected:
        raise BlobFormatError(
            f"blob size mismatch: manifest expects {expected} bytes, "
            f"file has {len(raw)}"
        )

    arrays = {}
    for e in entries:
        start = e["offset"]
        stop = start + e["size"] * _ITEMSIZE
        flat = np.frombuffer(raw[start:stop], dtype="<f4")
        arrays[e["name"]] = flat.reshape(e["shape"]).copy()
    return arrays, manifest.get("meta", {})
