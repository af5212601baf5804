""".npz round trips and the rejection of everything else."""

import io
import json
import zipfile

import numpy as np
import pytest

from specblend import blobio


def _round_trip(tmp_path, arrays, meta):
    path = tmp_path / "obj.npz"
    blobio.write_arrays(path, arrays, meta)
    return blobio.read_arrays(path, meta["kind"])


def test_round_trip_preserves_float32_bits(tmp_path):
    rng = np.random.default_rng(7)
    arrays = {
        "a": rng.standard_normal((3, 4, 5)).astype(np.float32),
        "b": rng.standard_normal(17).astype(np.float32),
    }
    back, meta = _round_trip(tmp_path, arrays, {"kind": "test", "n": 3})
    assert meta == {"kind": "test", "n": 3}
    for name in arrays:
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name].view(np.uint32), arrays[name].view(np.uint32))


def test_round_trip_keeps_each_dtype_and_shape(tmp_path):
    rng = np.random.default_rng(8)
    arrays = {
        "w": rng.standard_normal((4, 2)),
        "x": rng.standard_normal((2, 3, 5)).astype(np.float32),
        "ids": np.arange(6, dtype=np.int64),
        "empty": np.zeros((0, 3)),
        "scalar": np.float64(np.pi),
    }
    back, _ = _round_trip(tmp_path, arrays, {"kind": "test"})
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        assert back[name].dtype == arr.dtype and back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_empty_array_set_round_trips(tmp_path):
    back, meta = _round_trip(tmp_path, {}, {"kind": "test", "only": "meta"})
    assert back == {}
    assert meta["only"] == "meta"


def test_writes_the_path_as_given_and_the_same_bytes_twice(tmp_path):
    arrays = {"a": np.arange(5.0)}
    first, second = tmp_path / "one.bin", tmp_path / "two.bin"
    blobio.write_arrays(first, arrays, {"kind": "test"})
    blobio.write_arrays(second, arrays, {"kind": "test"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.bin", "two.bin"]
    assert first.read_bytes() == second.read_bytes()
    with zipfile.ZipFile(first) as zf:
        assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}


def test_missing_file_rejected(tmp_path):
    with pytest.raises(blobio.BlobFormatError, match="cannot read .*nope.npz"):
        blobio.read_arrays(tmp_path / "nope.npz", "test")


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "obj.npz"
    blobio.write_arrays(path, {"x": np.zeros(10)}, {"kind": "test"})
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(blobio.BlobFormatError, match="damaged .npz archive"):
        blobio.read_arrays(path, "test")


def test_old_json_manifest_rejected(tmp_path):
    """The manifest half of a pair the old writer left is named, and
    the reader says that format is no longer read."""
    path = tmp_path / "model_fold0.json"
    path.write_text(json.dumps({
        "format": "float32-blob", "version": 1, "byte_order": "little",
        "dtype": "float32", "blob": "model_fold0.json.blob",
        "arrays": [], "meta": {"kind": "model-state"}}))
    with pytest.raises(blobio.BlobFormatError,
                       match="model_fold0.json .*manifest \\+ .blob format "
                             "is no longer read"):
        blobio.read_arrays(path, "model-state")


def test_bare_npy_rejected(tmp_path):
    path = tmp_path / "obj.npy"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))
    with pytest.raises(blobio.BlobFormatError, match="not an .npz archive"):
        blobio.read_arrays(path, "test")


def test_npz_without_meta_rejected(tmp_path):
    path = tmp_path / "obj.npz"
    with open(path, "wb") as fh:
        np.savez(fh, a=np.zeros(3))
    with pytest.raises(blobio.BlobFormatError, match="no __meta__ member"):
        blobio.read_arrays(path, "test")


def _npz_with_members(path, members):
    """Write a stored zip of raw ``.npy`` members, bypassing the writer."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, raw in members.items():
            zf.writestr(name + ".npy", raw)
    return path


def _npy(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def test_malformed_manifest_rejected(tmp_path):
    path = _npz_with_members(tmp_path / "obj.npz",
                             {blobio.META: _npy(np.array("{not json"))})
    with pytest.raises(blobio.BlobFormatError, match="malformed __meta__"):
        blobio.read_arrays(path, "test")


def test_manifest_that_is_not_an_object_rejected(tmp_path):
    path = _npz_with_members(tmp_path / "obj.npz",
                             {blobio.META: _npy(np.array("[1, 2]"))})
    with pytest.raises(blobio.BlobFormatError, match="not a JSON object"):
        blobio.read_arrays(path, "test")


@pytest.mark.parametrize("shape", [[3, 3], [-2, -3], [2.0, 3.0]])
def test_shape_disagreeing_with_size_rejected(tmp_path, shape):
    """Member "a" holds 6 float32 values; a header shape must be
    non-negative integers holding exactly that many.  ``np.load`` checks
    this; the reader turns its error into a BlobFormatError."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f4", "fortran_order": False, "shape": tuple(shape)})
    path = _npz_with_members(tmp_path / "obj.npz", {
        blobio.META: _npy(np.array(json.dumps({"kind": "test"}))),
        "a": header.getvalue() + np.zeros(6, dtype="<f4").tobytes(),
    })
    with pytest.raises(blobio.BlobFormatError, match="damaged .npz archive"):
        blobio.read_arrays(path, "test")


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "obj.npz"
    blobio.write_arrays(path, {"a": np.zeros(2)}, {"kind": "trialset"})
    with pytest.raises(blobio.BlobFormatError,
                       match="holds a 'trialset', not a 'model-state'"):
        blobio.read_arrays(path, "model-state")
