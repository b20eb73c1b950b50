"""The .gfus checkpoint container: layout, and every malformation as CheckpointError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genderfuse.corpus import UserRecord
from genderfuse.errors import CheckpointError
from genderfuse.model import CHECKPOINT_VERSION, ArchConfig, init_params, load_params, save_params
from genderfuse.textpipe import build_vocab


@pytest.fixture(scope="module")
def params():
    users = [UserRecord("a", "female", ["the cat sat", "hello"]),
             UserRecord("b", "male", ["dogs run fast"])]
    arch = ArchConfig(variant="cnn_char_pos", word_dim=3, char_dim=2, pos_dim=2,
                      char_filters=2, word_filter_widths=(1, 2),
                      word_filters_per_width=2, dense_units=2, dropout=0.0)
    return init_params(arch, build_vocab(users, min_word_freq=1), seed=0)


@pytest.fixture(scope="module")
def checkpoint(params, tmp_path_factory):
    """The bytes of a small valid checkpoint, and a path to write mutants to."""
    root = tmp_path_factory.mktemp("container")
    save_params(params, root / "m.gfus")
    return (root / "m.gfus").read_bytes(), root / "mutated"


def split(blob: bytes) -> tuple[dict, bytes]:
    """The JSON header and the payload of a checkpoint."""
    version, hlen = struct.unpack_from("<II", blob, 4)
    assert blob[:4] == b"GFUS" and version == CHECKPOINT_VERSION
    return json.loads(blob[12:12 + hlen]), blob[12 + hlen:]


def raw_file(path, header: bytes, payload: bytes = b"") -> None:
    path.write_bytes(b"GFUS" + struct.pack("<II", CHECKPOINT_VERSION, len(header))
                     + header + payload)


def test_roundtrip_and_layout(params, checkpoint, tmp_path):
    blob, _ = checkpoint
    header, payload = split(blob)
    arrays = {name: t.data for name, t in params.tensors.items()}
    arrays.update(bn_running_mean=params.bn_state.mean, bn_running_var=params.bn_state.var)
    names = [e["name"] for e in header["tensors"]]
    assert names == sorted(params.tensors) + ["bn_running_mean", "bn_running_var"]
    offset = 0
    for e in header["tensors"]:
        assert (e["offset"], e["shape"]) == (offset, list(arrays[e["name"]].shape))
        assert payload[offset:offset + e["nbytes"]] == arrays[e["name"]].astype("<f4").tobytes()
        offset += e["nbytes"]
    assert offset == len(payload)
    assert header["fingerprint"] == params.fingerprint and header["dtype"] == "<f4"
    (tmp_path / "m.gfus").write_bytes(blob)
    back = load_params(tmp_path / "m.gfus")
    assert back.arch == params.arch
    for name, t in params.tensors.items():
        assert np.array_equal(back.tensors[name].data, t.data), name
    assert np.array_equal(back.bn_state.var, params.bn_state.var)


@pytest.mark.parametrize("header, key", [(b"{}", "tensors"),
                                         (b'{"tensors": [{"offset": 0}]}', "nbytes")])
def test_missing_header_key_is_checkpoint_error(tmp_path, header, key):
    raw_file(tmp_path / "c.gfus", header)
    with pytest.raises(CheckpointError, match=f"missing key '{key}'"):
        load_params(tmp_path / "c.gfus")


def test_negative_offset_is_refused(tmp_path):
    raw_file(tmp_path / "c.gfus", b'{"tensors": [{"offset": -4, "nbytes": 4}]}', b"abcd")
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_params(tmp_path / "c.gfus")


def test_decoder_errors_become_checkpoint_errors(checkpoint, tmp_path):
    # a well-formed container whose one tensor is 3 bytes of float64
    header, _ = split(checkpoint[0])
    header["dtype"] = "<f8"
    header["tensors"] = [{"name": "w", "shape": [1], "offset": 0, "nbytes": 3}]
    raw_file(tmp_path / "c.gfus", json.dumps(header).encode("utf-8"), b"abc")
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_params(tmp_path / "c.gfus")


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
