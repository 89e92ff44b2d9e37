import hashlib
import json
import struct

import numpy as np
import pytest

from prunesearch import io as storage
from prunesearch.metric import preset
from prunesearch.model import ModelConfig, init_model
from prunesearch.objective import CalibrationSet
from prunesearch.prune import SemiStructured, prune_model, sparsity_of
from prunesearch.search import SearchParams, nsga2_search


def test_model_round_trip_is_stable(tmp_path, mini_weights):
    first = tmp_path / "model.opsh"
    second = tmp_path / "model2.opsh"
    storage.write_model(first, mini_weights)
    loaded = storage.read_model(first)
    storage.write_model(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.config == mini_weights.config
    # values survive at 32-bit precision
    np.testing.assert_allclose(loaded.layers[0].q, mini_weights.layers[0].q, atol=1e-6)


def test_model_file_lists_expected_tensors(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    header, tensors = storage._read_container(path)
    assert header["kind"] == "model"
    d = mini_weights.config.d_model
    assert tensors["layer.0.q"].shape == (d, d)
    assert tensors["layer.0.gate"].shape == (d, mini_weights.config.d_ff)


def test_fixture_model_bytes_are_pinned(tmp_path):
    # The bytes of `gen-model --seed 42`: they change if the init draw order,
    # the tensor order in the file or the container layout changes.
    path = tmp_path / "model.opsh"
    storage.write_model(path, init_model(ModelConfig(128, 32, 2, 4, 64, 64), 42))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "3858e7577ec14e76be905cadbe603722f1b3b28c281c0cbf1ab3e70b5dcace30"


def test_read_model_rejects_bad_magic(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(storage.FormatError, match="magic"):
        storage.read_model(path)


def test_read_model_rejects_bad_version(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(storage.FormatError, match="version"):
        storage.read_model(path)


def test_read_model_rejects_truncation(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(storage.FormatError, match="truncated"):
        storage.read_model(path)


def test_read_model_rejects_trailing_bytes(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(storage.FormatError, match="trailing"):
        storage.read_model(path)


def test_container_rejects_payload_larger_than_file(tmp_path):
    # A 2^31 x 2^31 uint8 tensor declared in a 60-byte file.
    header = b"{}"
    name = b"m"
    data = (storage.MAGIC + struct.pack("<II", storage.VERSION, len(header)) + header
            + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<BII", 2, 2**31, 2**31) + struct.pack("<B", storage.DTYPE_U8) + b"\x00" * 8)
    path = tmp_path / "huge.opsh"
    path.write_bytes(data)
    with pytest.raises(storage.FormatError, match="payload of m"):
        storage._read_container(path)


def test_read_model_rejects_non_finite_weights(tmp_path, mini_weights):
    import dataclasses

    layer = mini_weights.layers[0]
    q = layer.q.copy()
    q[0, 0] = np.nan
    bad = dataclasses.replace(mini_weights, layers=[dataclasses.replace(layer, q=q), *mini_weights.layers[1:]])
    path = tmp_path / "model.opsh"
    storage.write_model(path, bad)
    with pytest.raises(storage.FormatError, match="layer.0.q"):
        storage.read_model(path)


def test_container_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.opsh"
    tensor = np.zeros((1, 1))
    storage._write_container(path, {"kind": "masks"}, [("a", tensor, 1), ("a", tensor, 1)])
    with pytest.raises(storage.FormatError, match="duplicate"):
        storage._read_container(path)


def test_calib_round_trip(tmp_path, mini_calib):
    path = tmp_path / "calib.jsonl"
    storage.write_calib(path, mini_calib)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(mini_calib.sequences)
    loaded = storage.read_calib(path)
    assert loaded.sequences == mini_calib.sequences


def test_read_calib_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(storage.FormatError, match="empty calibration set"):
        storage.read_calib(path)


def test_read_calib_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tokens": [1, 2]}\nnot json\n')
    with pytest.raises(storage.FormatError, match="bad.jsonl:2"):
        storage.read_calib(path)
    path.write_text('{"ids": [1]}\n')
    with pytest.raises(storage.FormatError, match="tokens"):
        storage.read_calib(path)


def test_stats_round_trip_exact(tmp_path, mini_stats):
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    loaded = storage.read_stats(path)
    assert set(loaded) == set(mini_stats)
    for key in mini_stats:
        # decimal round trip is lossless for 64-bit floats
        assert np.array_equal(loaded[key].v, mini_stats[key].v)
        assert np.array_equal(loaded[key].l1, mini_stats[key].l1)
        assert loaded[key].token_count == mini_stats[key].token_count


def test_read_stats_reports_key_path(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"layer.0.q": {"v": [1.0], "l1": []}}))
    with pytest.raises(storage.FormatError, match="layer.0.q"):
        storage.read_stats(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("v", float("nan")),
        ("v", -1.0),
        ("l1", float("inf")),
        pytest.param("v", 10**400, id="v-int-beyond-float64"),
        pytest.param("v", "1.0", id="v-string"),
        pytest.param("l1", True, id="l1-bool"),
        pytest.param("token_count", True, id="token_count-bool"),
        pytest.param("token_count", 1.0, id="token_count-float"),
    ],
)
def test_read_stats_rejects_non_finite_or_negative(tmp_path, mini_stats, field, value):
    # Each case replaces the first element of an array field, or a scalar field.
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    entry = doc["layer.0.q"]
    if isinstance(entry[field], list):
        entry[field][0] = value
    else:
        entry[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.FormatError, match=rf"layer.0.q.*{field}"):
        storage.read_stats(path)


@pytest.mark.parametrize("field", ["v", "l1"])
def test_read_stats_rejects_nested_arrays(tmp_path, mini_stats, field):
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    doc["layer.0.q"][field] = [[x] for x in doc["layer.0.q"][field]]
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.FormatError, match=rf"layer.0.q.*{field}"):
        storage.read_stats(path)


def test_masks_round_trip(tmp_path, mini_weights, mini_stats):
    _, masks = prune_model(mini_weights, mini_stats, preset("wanda"), SemiStructured(2, 4))
    path = tmp_path / "masks.opsh"
    storage.write_masks(path, masks)
    loaded = storage.read_masks(path)
    assert set(loaded) == set(masks)
    for key in masks:
        assert np.array_equal(loaded[key].bits, masks[key].bits)
        assert sparsity_of(loaded[key]) == sparsity_of(masks[key])
    again = tmp_path / "masks2.opsh"
    storage.write_masks(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_read_masks_rejects_non_binary(tmp_path):
    path = tmp_path / "masks.opsh"
    storage._write_container(path, {"kind": "masks"}, [("m", np.array([[0, 2]], dtype=np.uint8), 1)])
    with pytest.raises(storage.FormatError, match="0 or 1"):
        storage.read_masks(path)


def test_results_files(tmp_path, mini_ctx):
    result = nsga2_search(mini_ctx, SearchParams(population=8, budget=16, seed=1))
    json_path = tmp_path / "result.json"
    csv_path = tmp_path / "result.csv"
    storage.write_results(result, json_path, csv_path)

    doc = json.loads(json_path.read_text())
    assert doc["algorithm"] == "nsga2"
    assert doc["evaluations_used"] == result.evaluations_used
    assert len(doc["trials"]) == len(result.trials)
    assert doc["best"]["l_div"] == result.best_l_div

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,alpha,beta,f1,f2,l_div"
    assert len(lines) == len(result.trials) + 1

    # byte-identical on rewrite
    json2 = tmp_path / "r2.json"
    csv2 = tmp_path / "r2.csv"
    storage.write_results(result, json2, csv2)
    assert json2.read_bytes() == json_path.read_bytes()
    assert csv2.read_bytes() == csv_path.read_bytes()


def test_calibration_ids_checked_at_use_time(tmp_path, mini_weights):
    path = tmp_path / "calib.jsonl"
    storage.write_calib(path, CalibrationSet(sequences=((9999,),)))
    loaded = storage.read_calib(path)  # reading is fine
    from prunesearch.model import forward

    with pytest.raises(ValueError, match="out of range"):
        forward(mini_weights, loaded.sequences[0])
