"""Manifest/blob round trips and corruption detection."""

import json

import numpy as np
import pytest

from specblend import blobio


def test_round_trip_preserves_float32_bits(tmp_path):
    rng = np.random.default_rng(7)
    arrays = {
        "a": rng.standard_normal((3, 4, 5)).astype(np.float32),
        "b": rng.standard_normal(17).astype(np.float32),
    }
    path = tmp_path / "obj.json"
    blobio.write_arrays(path, arrays, meta={"kind": "test", "n": 3})
    back, meta = blobio.read_arrays(path)
    assert meta == {"kind": "test", "n": 3}
    for name in arrays:
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name].view(np.uint32), arrays[name].view(np.uint32))


def test_truncated_blob_reports_size_mismatch(tmp_path):
    path = tmp_path / "obj.json"
    blobio.write_arrays(path, {"x": np.zeros(10, dtype=np.float32)})
    blob = blobio.blob_path(path)
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(blobio.BlobFormatError, match="size mismatch"):
        blobio.read_arrays(path)


def test_unknown_format_tag_rejected(tmp_path):
    path = tmp_path / "obj.json"
    blobio.write_arrays(path, {"x": np.zeros(2, dtype=np.float32)})
    manifest = json.loads(path.read_text())
    manifest["format"] = "float64-blob"
    path.write_text(json.dumps(manifest))
    with pytest.raises(blobio.BlobFormatError, match="format"):
        blobio.read_arrays(path)


def test_malformed_manifest_rejected(tmp_path):
    path = tmp_path / "obj.json"
    path.write_text("{not json")
    with pytest.raises(blobio.BlobFormatError):
        blobio.read_arrays(path)


def test_empty_array_set_round_trips(tmp_path):
    path = tmp_path / "obj.json"
    blobio.write_arrays(path, {}, meta={"only": "meta"})
    back, meta = blobio.read_arrays(path)
    assert back == {}
    assert meta["only"] == "meta"


def _write_then_edit(tmp_path, edit):
    """Write a two-array pair, then let ``edit`` change the manifest."""
    path = tmp_path / "obj.json"
    blobio.write_arrays(path, {"a": np.zeros((2, 3), dtype=np.float32),
                               "b": np.ones(4, dtype=np.float32)})
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("key, value, match", [
    ("version", 2, "version 2"),
    ("version", None, "version None"),
    ("dtype", "float64", "dtype 'float64'"),
])
def test_unread_version_or_dtype_rejected(tmp_path, key, value, match):
    """A manifest this reader was not written for is refused, not
    decoded as version-1 float32."""
    path = _write_then_edit(tmp_path, lambda m: m.update({key: value}))
    with pytest.raises(blobio.BlobFormatError, match=match):
        blobio.read_arrays(path)


@pytest.mark.parametrize("key", ["name", "shape", "offset", "size"])
def test_entry_missing_a_key_rejected(tmp_path, key):
    path = _write_then_edit(tmp_path, lambda m: m["arrays"][1].pop(key))
    with pytest.raises(blobio.BlobFormatError, match=f"lacks \\['{key}'\\]"):
        blobio.read_arrays(path)


@pytest.mark.parametrize("shape", [[3, 3], [-2, -3], [2.0, 3.0]])
def test_shape_disagreeing_with_size_rejected(tmp_path, shape):
    """Entry "a" has size 6; a shape must be non-negative integers
    holding exactly that many values."""
    path = _write_then_edit(tmp_path, lambda m: m["arrays"][0].update(shape=shape))
    with pytest.raises(blobio.BlobFormatError, match="does not hold size 6"):
        blobio.read_arrays(path)


def test_offset_out_of_layout_rejected(tmp_path):
    path = _write_then_edit(tmp_path, lambda m: m["arrays"][1].update(offset=0))
    with pytest.raises(blobio.BlobFormatError, match="offset 0, expected 24"):
        blobio.read_arrays(path)


def test_manifest_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "obj.json"
    path.write_text("[1, 2]")
    with pytest.raises(blobio.BlobFormatError, match="not a JSON object"):
        blobio.read_arrays(path)
