"""Matrix files and deterministic JSON reports for the command line.

A matrix file is strict JSON with keys ``n`` (dimension), ``re`` (n x n
array of reals) and optionally ``im`` (same shape, defaults to zero).
Vectors use the same keys with flat arrays. Reports are serialized with
a fixed key order and 17-significant-digit floats, so identical inputs
produce byte-identical output and every written float reloads to the
same double. +inf is encoded as the string "+inf" to stay inside strict
JSON.
"""

import hashlib
import json
import math

import numpy as np

from .errors import InputError, NumericError

INF_SENTINEL = "+inf"


def _nested_numbers(value, shape) -> bool:
    # nested lists of exactly ``shape`` holding JSON numbers; bool is an
    # int subclass, but a JSON true is not a number
    if not shape:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return (isinstance(value, list) and len(value) == shape[0]
            and all(_nested_numbers(item, shape[1:]) for item in value))


def _shape_check(data, key, shape):
    value = data.get(key)
    if not _nested_numbers(value, shape):
        raise InputError(f"field {key!r} must be nested lists of JSON "
                         f"numbers of shape {shape}")
    try:
        arr = np.array(value, dtype=np.float64).reshape(shape)
    except OverflowError:
        raise InputError(f"field {key!r} holds an integer beyond float64")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"field {key!r} contains non-finite entries")
    return arr


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8, UTF-16 or UTF-32 text: "
                         f"{exc}")
    except RecursionError:
        raise InputError(f"{path} nests its JSON too deeply to parse")
    if not isinstance(data, dict):
        raise InputError(f"{path} must contain a JSON object")
    return data


def _dimension(data, path) -> int:
    n = data.get("n")
    # bool is an int subclass: a JSON true is not a dimension
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"{path}: field 'n' must be a nonnegative integer")
    return n


def _load(path: str, ndim: int) -> np.ndarray:
    data = _load_json(path)
    shape = (_dimension(data, path),) * ndim
    re = _shape_check(data, "re", shape)
    if data.get("im") is None:
        return re.astype(np.complex128)
    return re + 1j * _shape_check(data, "im", shape)


def load_matrix(path: str) -> np.ndarray:
    """Read a complex matrix from a matrix file."""
    return _load(path, 2)


def load_vector(path: str) -> np.ndarray:
    """Read a complex vector from a vector file (flat ``re``/``im``)."""
    return _load(path, 1)


def matrix_payload(m: np.ndarray) -> dict:
    """Matrix-file representation of a complex matrix, ``im`` always present."""
    m = np.asarray(m, dtype=np.complex128)
    return {
        "n": int(m.shape[0]),
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    }


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise NumericError("NaN is not representable in a report")
    if math.isinf(x):
        if x > 0:
            return json.dumps(INF_SENTINEL)
        raise NumericError("-inf is not representable in a report")
    return format(float(x), ".17g")


def dumps_report(obj) -> str:
    """Serialize a report deterministically (fixed order, 17 digits)."""
    return _dumps(obj) + "\n"


def _dumps(obj) -> str:
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(key))}:{_dumps(value)}"
                              for key, value in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(value) for value in obj) + "]"
    raise NumericError(f"cannot serialize object of type {type(obj)!r}")
