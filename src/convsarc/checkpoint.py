"""The checkpoint file format, shared by both model kinds.

A checkpoint is one JSON object with sorted keys and a trailing newline. It
carries its `kind` ("lstm" or "svm") and that kind's `format_version`;
float64 arrays are stored as base64 of their little-endian bytes. A file
that cannot be read as a checkpoint raises ConfigError naming its path.
"""
from __future__ import annotations

import base64
import json
from contextlib import contextmanager

import numpy as np

from .data import open_output
from .errors import ConfigError

VERSIONS = {"lstm": 3, "svm": 1}  # lstm 2 stacked the LSTM gates; 3 stores max_context


def read(path, kind: str | None = None, doc: dict | None = None) -> dict:
    """The checkpoint at path as a dict, after checking that it is one of
    kind (any known kind if None) at that kind's format_version. A doc that
    an earlier read returned for path is checked again without rereading
    the file."""
    if doc is None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        # unreadable, not UTF-8, not JSON, or nested deeper than the parser goes
        except (OSError, ValueError, RecursionError) as e:
            raise ConfigError(f"{path}: not a JSON checkpoint: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: checkpoint is not a JSON object")
    want = kind or doc.get("kind")
    if want not in tuple(VERSIONS):  # a tuple: the kind may be unhashable
        raise ConfigError(f"{path}: unknown checkpoint kind {want!r}")
    version = doc.get("format_version")
    if type(version) is not int or version != VERSIONS[want]:  # not true, not 2.0
        raise ConfigError(f"{path}: checkpoint format_version {version} "
                          f"not supported (expected {VERSIONS[want]})")
    if doc.get("kind") != want:
        raise ConfigError(f"{path}: not an {want} checkpoint")
    return doc


def write(kind: str, fields: dict, path) -> None:
    doc = {"format_version": VERSIONS[kind], "kind": kind, **fields}
    with open_output(path) as fh:
        json.dump(doc, fh, sort_keys=True)  # streamed: the text is never held whole
        fh.write("\n")


@contextmanager
def parsing(path):
    """Turns a missing field or a value of the wrong type, met while taking
    a read checkpoint apart, into a ConfigError naming path."""
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{path}: checkpoint lacks field {e}") from None
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise ConfigError(f"{path}: malformed checkpoint: {e}") from None


def number(value, name: str):
    """value if it is a JSON number (an int or a float, not a boolean);
    TypeError, which parsing reports as malformed, otherwise."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def window(value):
    """value if it is a context window a checkpoint may record: None (each
    instance's platform default) or a nonnegative JSON integer; ValueError,
    which parsing reports as malformed, otherwise."""
    if value is not None and (type(value) is not int or value < 0):
        raise ValueError(f"max_context must be null or a nonnegative integer, got {value!r}")
    return value


def encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def decode(data: str) -> np.ndarray:
    """The float64 array encode stored; ValueError unless it is whole and finite."""
    arr = np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8").astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values in tensor data")
    return arr
