"""Bit-exact serialization for models, calibration data, stats, masks, results.

Binary container layout (all integers little-endian):

    magic "OPSH" | version u32 | header_len u32 | header JSON (UTF-8) |
    tensor_count u32 | per tensor:
        name_len u16 | name UTF-8 | ndim u8 | dims u32 * ndim |
        dtype u8 (0 = float32, 1 = uint8) | payload, row-major

Weights are float32 on disk and in memory: a model read back is the payload
of its file, and arithmetic widens the weights to float64 where it reads them.
Writers are deterministic: identical inputs produce byte-identical files.
Readers reject anything a writer could not have produced, with a diagnostic.
A reader checks syntax, and the record it builds checks values: read_stats
checks each entry's JSON shape, and SubModuleStats its values.
"""

import csv
import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .metric import SubModuleStats
from .model import BLOCK_TENSORS, ModelConfig, ModelWeights, tensor_shapes
from .objective import ActivationStats, CalibrationSet
from .prune import Mask, MaskSet, pruned_tensors
from .search import SearchResult

MAGIC = b"OPSH"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1

_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("<u1")}


class FormatError(ValueError):
    """A file does not match what a writer could have produced."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct: json.loads would keep the
    last value of a repeated key, and no writer repeats one."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _parse_json(data: bytes, what: str):
    """UTF-8 JSON; any damage is a FormatError. Bad UTF-8, bad JSON, a key
    repeated in one object and an integer past Python's digit limit are
    ValueErrors; nesting too deep for the parser is a RecursionError."""
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what}: {exc}") from None


# -- binary container ---------------------------------------------------------


def _write_container(
    path, header: dict, tensors: Iterable[tuple[str, np.ndarray, int]], count: int | None = None
) -> None:
    """The container of `count` tensors (by default len(tensors)), each
    written as soon as `tensors` yields it and dropped before the next is
    asked for."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        f.write(struct.pack("<I", len(tensors) if count is None else count))
        for name, array, dtype_code in tensors:
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<B", array.ndim))
            for dim in array.shape:
                f.write(struct.pack("<I", dim))
            f.write(struct.pack("<B", dtype_code))
            # One converted copy, written from its buffer.
            f.write(np.ascontiguousarray(array, dtype=_DTYPES[dtype_code]))
            del array


def _read_exact(f, count: int, what: str) -> bytes:
    # Sizes come from the file itself, so check them against the bytes left
    # before reading: a forged size must not become a huge allocation.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise FormatError(f"truncated file while reading {what}: {count} bytes declared, {left} left")
    return f.read(count)


def _read_header(f, path, kind=None) -> dict:
    """The header of the container open in f; with a kind, a header of another
    kind is rejected."""
    if _read_exact(f, 4, "magic") != MAGIC:
        raise FormatError(f"bad magic in {path}; expected OPSH container")
    (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != VERSION:
        raise FormatError(f"unsupported container version {version} (expected {VERSION})")
    (header_len,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
    header = _parse_json(_read_exact(f, header_len, "header"), "bad container header")
    if not isinstance(header, dict):
        raise FormatError("container header must be a JSON object")
    if kind is not None and header.get("kind") != kind:
        raise FormatError(f"expected a {kind} container, got kind={header.get('kind')!r}")
    return header


def _read_container(path, kind=None, convert=lambda name, array: array) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and every tensor, each passed through convert(name, array)
    as soon as its payload is read. The array is a read-only view of the
    payload, and only the result is kept: a reader that converts holds at
    most one payload at a time, and one that keeps the view (the model
    reader) holds the payloads and no copy. With a kind, a header of another
    kind is rejected before any tensor is read."""
    with open(path, "rb") as f:
        header = _read_header(f, path, kind)
        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length"))
            try:
                name = _read_exact(f, name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"bad tensor name: {exc}") from None
            if name in tensors:
                raise FormatError(f"duplicate tensor name {name!r}")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, f"ndim of {name}"))
            dims = tuple(
                struct.unpack("<I", _read_exact(f, 4, f"dims of {name}"))[0] for _ in range(ndim)
            )
            (dtype_code,) = struct.unpack("<B", _read_exact(f, 1, f"dtype of {name}"))
            if dtype_code not in _DTYPES:
                raise FormatError(f"unknown dtype code {dtype_code} for tensor {name!r}")
            dtype = _DTYPES[dtype_code]
            payload = _read_exact(f, math.prod(dims) * dtype.itemsize, f"payload of {name}")
            tensors[name] = convert(name, np.frombuffer(payload, dtype=dtype).reshape(dims))
            del payload  # before the next payload is read
        if f.read(1):
            raise FormatError("trailing bytes after last tensor")
    return header, tensors


# -- model weights ------------------------------------------------------------


def write_model(path, weights: ModelWeights, masks: MaskSet | None = None) -> None:
    """The model file of weights. With masks, the file of apply_masks(weights,
    masks): each pruned tensor is made as it is written and dropped before the
    next, so no pruned copy of the model is held."""

    def tensors():
        for name, tensor in pruned_tensors(weights, masks or {}):
            yield name, tensor, DTYPE_F32
            del tensor  # before the next pruned tensor is made

    _write_container(path, {"kind": "model", "config": asdict(weights.config)}, tensors(),
                     len(tensor_shapes(weights.config)))


def _weights(name: str, array: np.ndarray) -> np.ndarray:
    if array.dtype != _DTYPES[DTYPE_F32]:
        raise FormatError(f"model tensor {name!r}: expected float32, got {array.dtype}")
    return array


def _model_config(header: dict) -> ModelConfig:
    try:
        return ModelConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad model config record: {exc}") from None


def read_model_config(path) -> ModelConfig:
    """The config of a model file, from its header alone: no tensor is read,
    so damage past the header is found only by read_model."""
    with open(path, "rb") as f:
        return _model_config(_read_header(f, path, "model"))


def read_model(path) -> ModelWeights:
    header, tensors = _read_container(path, "model", _weights)
    config = _model_config(header)

    # Two embeddings, the final norm and the BLOCK_TENSORS of each layer: count
    # first, so a forged n_layers cannot build a layout or message that large.
    expected = 3 + len(BLOCK_TENSORS) * config.n_layers
    if len(tensors) != expected:
        raise FormatError(
            f"model with {config.n_layers} layers has {expected} tensors, file holds {len(tensors)}"
        )
    shapes = tensor_shapes(config)
    if list(tensors) != list(shapes):
        missing = sorted(set(shapes) - set(tensors))
        extra = sorted(set(tensors) - set(shapes))
        raise FormatError(f"model tensor set mismatch: missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise FormatError(f"tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
        # The least and the greatest entry are NaN if any entry is, and
        # infinite if any is; unlike isfinite, they build no array.
        if not (np.isfinite(tensors[name].min()) and np.isfinite(tensors[name].max())):
            raise FormatError(f"tensor {name!r} holds non-finite values")
    return ModelWeights(config, tensors)


# -- calibration sets ---------------------------------------------------------


def write_calib(path, calib: CalibrationSet) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for seq in calib.sequences:
            f.write(json.dumps({"tokens": list(seq)}, separators=(",", ":")) + "\n")


def read_calib(path) -> CalibrationSet:
    sequences = []
    # bytes.splitlines breaks lines where text mode does: at \n, \r and \r\n.
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        record = _parse_json(line, f"{path}:{lineno}: malformed JSON line")
        if not isinstance(record, dict) or set(record) != {"tokens"}:
            raise FormatError(f"{path}:{lineno}: expected an object with only a 'tokens' array")
        # Ids out of the vocabulary are checked when used; ids beyond int64
        # could not reach that check.
        tokens = record["tokens"]
        if not isinstance(tokens, list) or not tokens or not all(
            type(t) is int and -(2**63) <= t < 2**63 for t in tokens
        ):
            raise FormatError(f"{path}:{lineno}: 'tokens' must be a non-empty array of int64 integers")
        sequences.append(tuple(tokens))
    if not sequences:
        raise FormatError("empty calibration set")
    return CalibrationSet(sequences=tuple(sequences))


# -- activation stats ---------------------------------------------------------


def write_stats(path, stats: ActivationStats) -> None:
    doc = {
        key: {
            "v": [float(x) for x in entry.v],
            "l1": [float(x) for x in entry.l1],
            "token_count": entry.token_count,
        }
        for key, entry in stats.items()
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_stats(path) -> ActivationStats:
    doc = _parse_json(Path(path).read_bytes(), f"{path}: malformed stats JSON")
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: stats document must be a JSON object")
    stats: ActivationStats = {}
    for key, entry in doc.items():
        if not isinstance(entry, dict) or set(entry) != {"v", "l1", "token_count"}:
            raise FormatError(f"stats[{key!r}]: expected an object with exactly v, l1 and token_count")
        for field in ("v", "l1"):
            # Exact types: true/false load as bool, an int subclass; nested arrays would convert.
            if not isinstance(entry[field], list) or not all(type(x) in (int, float) for x in entry[field]):
                raise FormatError(f"stats[{key!r}].{field}: must be a flat array of numbers")
            try:
                entry[field] = np.asarray(entry[field], dtype=np.float64)
            except OverflowError:
                raise FormatError(f"stats[{key!r}].{field}: an integer beyond float64") from None
        try:
            stats[key] = SubModuleStats(**entry)
        except ValueError as exc:  # the record's own checks name the field
            raise FormatError(f"stats[{key!r}].{exc}") from None
    if not stats:
        raise FormatError(f"{path}: stats document is empty")
    return stats


# -- masks ---------------------------------------------------------------------


def write_masks(path, masks: MaskSet) -> None:
    """One 2-D uint8 tensor per sub-module (a Mask is always 2-D)."""
    tensors = [(name, masks[name].bits, DTYPE_U8) for name in masks]
    _write_container(path, {"kind": "masks"}, tensors)


def _mask_bits(name: str, array: np.ndarray) -> np.ndarray:
    if array.dtype != np.uint8 or array.ndim != 2:
        raise FormatError(f"mask {name!r}: expected a 2-D uint8 tensor")
    if not (array <= 1).all():
        raise FormatError(f"mask {name!r}: flags must be 0 or 1")
    return array.astype(bool)


def read_masks(path) -> MaskSet:
    _, bits = _read_container(path, "masks", _mask_bits)
    return {name: Mask(bits=b) for name, b in bits.items()}


# -- search results -------------------------------------------------------------

RESULT_CSV_COLUMNS = ("trial", "alpha", "beta", "f1", "f2", "l_div")


def _trial_row(index: int, config, l_div: float) -> dict:
    return {
        "trial": index,
        "alpha": config.alpha.name.lower(),
        "beta": config.beta.name.lower(),
        "f1": config.f1.name.lower(),
        "f2": config.f2.name.lower(),
        "l_div": l_div,
    }


# A trial row as the C encoder writes it: sorted keys joined by what indent=2
# puts between the items of an object nested two deep.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def write_results(result: SearchResult, json_path, csv_path) -> None:
    """Full trial log as JSON, and a CSV with one row per trial.

    The JSON is the bytes of json.dumps(doc, indent=2, sort_keys=True) plus a
    newline, written a trial at a time: no row outlives its line, so the
    table is never held. "trials" sorts last, so its rows close the document.
    """
    doc = {
        "algorithm": result.algorithm,
        "seed": result.seed,
        "budget": result.budget,
        "evaluations_used": result.evaluations_used,
        "best": _trial_row(0, result.best_config, result.best_l_div) | {"trial": None},
        "trials": [],
    }
    head, tail = json.dumps(doc, indent=2, sort_keys=True).rsplit("[]", 1)
    with open(json_path, "w", encoding="utf-8") as json_file, \
            open(csv_path, "w", encoding="utf-8", newline="") as csv_file:
        writer = csv.writer(csv_file, lineterminator="\n")
        writer.writerow(RESULT_CSV_COLUMNS)
        json_file.write(head + "[")
        sep = "\n    {\n      "
        for i, cfg, l_div in result.trials:
            row = _trial_row(i, cfg, l_div)
            json_file.write(sep + _ROW_ENCODER.encode(row)[1:-1])
            sep = "\n    },\n    {\n      "
            writer.writerow([row[col] for col in RESULT_CSV_COLUMNS])
        json_file.write(("\n    }\n  ]" if result.trials else "]") + tail + "\n")
