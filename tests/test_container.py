"""Container format: round trips, corruption detection, layout errors."""

import os
import stat
import struct
import zlib

import numpy as np
import pytest

from genrobust.container import (
    ContainerError,
    atomic_write_text,
    decode_metadata,
    encode_metadata,
    load_container,
    metadata_entries,
    save_container,
)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "weights": rng.normal(size=(3, 4)),
        "single": rng.normal(size=(2, 2, 2)).astype(np.float32),
        "labels": rng.integers(0, 10, size=7).astype(np.uint32),
    }
    path = tmp_path / "t.grtc"
    save_container(path, tensors)
    loaded = load_container(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].dtype == tensors[name].dtype
        assert np.array_equal(loaded[name], tensors[name])


def test_zero_extent_round_trip(tmp_path):
    path = tmp_path / "e.grtc"
    save_container(path, {"empty": np.zeros((0, 5))})
    loaded = load_container(path)
    assert loaded["empty"].shape == (0, 5)


def test_scalar_round_trip(tmp_path):
    path = tmp_path / "s.grtc"
    save_container(path, {"x": np.asarray(3.5)})
    assert load_container(path)["x"].shape == ()


def test_every_flipped_byte_detected(tmp_path):
    path = tmp_path / "c.grtc"
    save_container(path, {"a": np.arange(6.0).reshape(2, 3)})
    blob = bytearray(path.read_bytes())
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x40
        bad = tmp_path / "bad.grtc"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(ContainerError):
            load_container(bad)


def test_truncation_detected(tmp_path):
    path = tmp_path / "t.grtc"
    save_container(path, {"a": np.ones(4)})
    blob = path.read_bytes()
    bad = tmp_path / "trunc.grtc"
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ContainerError):
        load_container(bad)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.grtc"
    save_container(path, {"a": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    # re-seal the CRC so the magic check itself is exercised
    body = bytes(blob[:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    bad = tmp_path / "badmagic.grtc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="magic"):
        load_container(bad)


def test_unknown_dtype_rejected(tmp_path):
    with pytest.raises(ContainerError):
        save_container(tmp_path / "x.grtc", {"a": np.ones(2, dtype=np.complex128)})


def test_negative_int_rejected(tmp_path):
    with pytest.raises(ContainerError):
        save_container(tmp_path / "x.grtc", {"a": np.array([-1, 2])})


def test_int64_cast_to_u32(tmp_path):
    path = tmp_path / "i.grtc"
    save_container(path, {"labels": np.array([0, 1, 2], dtype=np.int64)})
    out = load_container(path)["labels"]
    assert out.dtype == np.uint32
    assert out.tolist() == [0, 1, 2]


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "meta.grtc"
    entries = {"x": np.ones(3)}
    entries.update(metadata_entries({"provenance": "gaussian-fit", "config_hash": "abc123"}))
    save_container(path, entries)
    loaded = load_container(path)
    assert decode_metadata(loaded["meta:provenance"]) == "gaussian-fit"
    assert decode_metadata(loaded["meta:config_hash"]) == "abc123"


def test_metadata_unicode():
    s = "warp-ε/0.25"
    assert decode_metadata(encode_metadata(s)) == s


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "a.grtc"
    save_container(path, {"v": np.zeros(2)})
    save_container(path, {"v": np.ones(2)})
    assert np.array_equal(load_container(path)["v"], np.ones(2))


def test_written_files_follow_umask(tmp_path):
    """Artifacts get 0o666 less the umask, as open() would give them."""
    old = os.umask(0o022)
    try:
        save_container(tmp_path / "a.grtc", {"v": np.zeros(2)})
        atomic_write_text(tmp_path / "a.txt", "x\n")
        os.umask(0o077)
        atomic_write_text(tmp_path / "private.txt", "x\n")
    finally:
        os.umask(old)
    for name in ("a.grtc", "a.txt"):
        assert stat.filemode(os.stat(tmp_path / name).st_mode) == "-rw-r--r--"
    assert stat.filemode(os.stat(tmp_path / "private.txt").st_mode) == "-rw-------"


def test_randomized_round_trips(tmp_path):
    """100 randomized containers survive save/load bit-identically."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n_entries = int(rng.integers(1, 5))
        tensors = {}
        for e in range(n_entries):
            rank = int(rng.integers(0, 4))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
            kind = rng.integers(0, 3)
            if kind == 0:
                arr = rng.normal(size=shape)
            elif kind == 1:
                arr = rng.normal(size=shape).astype(np.float32)
            else:
                arr = rng.integers(0, 1000, size=shape).astype(np.uint32)
            tensors[f"entry{e}"] = arr
        path = tmp_path / f"r{trial}.grtc"
        save_container(path, tensors)
        loaded = load_container(path)
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)
