"""The binary container behind checkpoints (.gfus)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genderfuse.corpus import UserRecord
from genderfuse.errors import CheckpointError
from genderfuse.ioutil import read_container, write_container
from genderfuse.model import ArchConfig, init_params, load_params, save_params
from genderfuse.textpipe import build_vocab


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The bytes of a small valid checkpoint, and a path to write mutants to."""
    root = tmp_path_factory.mktemp("container")
    users = [UserRecord("a", "female", ["the cat sat", "hello"]),
             UserRecord("b", "male", ["dogs run fast"])]
    arch = ArchConfig(variant="cnn_char_pos", word_dim=3, char_dim=2, pos_dim=2,
                      char_filters=2, word_filter_widths=(1, 2),
                      word_filters_per_width=2, dense_units=2, dropout=0.0)
    save_params(init_params(arch, build_vocab(users, min_word_freq=1), seed=0),
                root / "m.gfus")
    return (root / "m.gfus").read_bytes(), root / "mutated"


def raw_file(path, header: bytes, payload: bytes = b"") -> None:
    path.write_bytes(b"TEST" + struct.pack("<II", 1, len(header)) + header + payload)


def test_roundtrip_and_layout(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, b"TEST", 3, {"note": "x"}, "parts",
                    [({"id": 0}, b"abc"), ({"id": 1}, b"")])
    blob = path.read_bytes()
    version, hlen = struct.unpack_from("<II", blob, 4)
    assert blob[:4] == b"TEST" and version == 3 and blob[12 + hlen:] == b"abc"
    header, parts = read_container(path, b"TEST", 3, "parts", lambda h, p: (h, p))
    assert header["note"] == "x"
    assert parts == [({"id": 0, "offset": 0, "nbytes": 3}, b"abc"),
                     ({"id": 1, "offset": 3, "nbytes": 0}, b"")]


@pytest.mark.parametrize("header, key", [(b"{}", "parts"),
                                         (b'{"parts": [{"offset": 0}]}', "nbytes")])
def test_missing_header_key_is_checkpoint_error(tmp_path, header, key):
    raw_file(tmp_path / "c.bin", header)
    with pytest.raises(CheckpointError, match=f"missing key '{key}'"):
        read_container(tmp_path / "c.bin", b"TEST", 1, "parts", lambda h, p: p)


def test_negative_offset_is_refused(tmp_path):
    raw_file(tmp_path / "c.bin", b'{"parts": [{"offset": -4, "nbytes": 4}]}', b"abcd")
    with pytest.raises(CheckpointError, match="truncated payload"):
        read_container(tmp_path / "c.bin", b"TEST", 1, "parts", lambda h, p: p)


def test_decoder_errors_become_checkpoint_errors(tmp_path):
    raw_file(tmp_path / "c.bin", b'{"parts": [{"offset": 0, "nbytes": 3}]}', b"abc")

    def decode(header, parts):
        return np.frombuffer(parts[0][1], dtype="<f8")

    with pytest.raises(CheckpointError, match="corrupt header"):
        read_container(tmp_path / "c.bin", b"TEST", 1, "parts", decode)


@pytest.mark.parametrize("load", [load_params])
def test_every_truncation_is_checkpoint_error(checkpoint, load):
    blob, path = checkpoint
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            load(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_single_byte_flip_loads_or_raises_checkpoint_error(checkpoint, data):
    blob, path = checkpoint
    blob = bytearray(blob)
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(blob))
    try:
        load_params(path)
    except CheckpointError:
        pass
