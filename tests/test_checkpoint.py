"""The checkpoint file format: one module owns it, and no checkpoint of
either kind, however mangled, gets past the loaders as anything but a
ConfigError that names the file."""
import ast
import copy
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import convsarc
from convsarc import checkpoint
from convsarc.errors import ConfigError
from convsarc.features import FeatureRegistry, SvmModel, load_svm_checkpoint, save_svm_checkpoint
from convsarc.models import init_params, load_checkpoint, save_checkpoint
from convsarc.nn import new_rng
from pass_memory import traced_peak

SRC = Path(convsarc.__file__).parent


def saved(tmp_path, kind):
    """A valid checkpoint of kind, as written, and its path."""
    path = tmp_path / f"{kind}.json"
    if kind == "lstm":
        save_checkpoint(init_params("hier_attn", 3, 2, 2, rng=new_rng(1)), path)
    else:
        model = SvmModel(FeatureRegistry(["r|ng1:a", "c|cat:x", "incongruity"]),
                         np.array([0.5, -1.25, 3.0]), 0.75,
                         {"S": Fraction(3, 2), "NS": Fraction(3, 4)})
        save_svm_checkpoint(model, "context_and_reply", 5, path)
    return path


LOADERS = {"lstm": load_checkpoint, "svm": load_svm_checkpoint}


def test_only_the_checkpoint_module_knows_the_file_format():
    for f in sorted(SRC.glob("*.py")):
        if f.name == "checkpoint.py":
            continue
        text = f.read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "base64" not in imported, f.name
        assert "format_version" not in text, f.name
        if f.name in ("models.py", "features.py"):
            assert "json" not in imported, f.name


@pytest.mark.parametrize("kind", ["lstm", "svm"])
def test_write_gives_sorted_keys_and_one_trailing_newline(tmp_path, kind):
    text = saved(tmp_path, kind).read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert checkpoint.read(tmp_path / f"{kind}.json")["kind"] == kind


@pytest.mark.parametrize("kind", ["lstm", "svm"])
def test_unreadable_file_is_config_error_naming_path(tmp_path, kind):
    for path in (tmp_path / "absent.json", tmp_path):
        with pytest.raises(ConfigError, match="not a JSON checkpoint"):
            LOADERS[kind](path)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "caf\xe9"}')
    with pytest.raises(ConfigError, match=r"latin1\.json: not a JSON checkpoint"):
        LOADERS[kind](path)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "mystery", "format_version": 1}, "unknown checkpoint kind 'mystery'"),
    ({"format_version": 2}, "unknown checkpoint kind None"),
    ({"kind": ["lstm"], "format_version": 2}, r"unknown checkpoint kind \['lstm'\]"),
    ({"kind": "svm", "format_version": 2},
     r"checkpoint format_version 2 not supported \(expected 1\)"),
])
def test_read_of_any_kind_refuses_unknown_kinds_and_versions(tmp_path, doc, message):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"odd\.json: " + message):
        checkpoint.read(path)


def test_read_of_one_kind_refuses_the_other(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "svm", "format_version": checkpoint.VERSIONS["lstm"]}),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=r"odd\.json: not an lstm checkpoint"):
        checkpoint.read(path, "lstm")


def test_decode_inverts_encode_and_refuses_non_finite_values():
    arr = np.array([[0.1, -0.0, 5e-324], [1e308, -2.5, 7.0]])
    back = checkpoint.decode(checkpoint.encode(arr)).reshape(arr.shape)
    assert back.tobytes() == arr.tobytes() and back.flags.writeable
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            checkpoint.decode(checkpoint.encode(np.array([1.0, bad])))


# -- fuzzing -------------------------------------------------------------------

ODD_VALUES = [None, True, False, 0, -1, 1, 2.5, 10 ** 13, -10 ** 13, "x", "", [], {},
              [1, 2], {"a": 1}, math.nan, math.inf, "AAAA", [10 ** 13, 1], [-1]]
DIMS = [0, -1, -7, 10 ** 13, -10 ** 13]
WINDOWS = ["absent", -1, 1.5, "5", True]  # stored max_context values to refuse


def paths(doc, prefix=()):
    """Every key or index path into doc's objects and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def base64_paths(doc):
    tensors = doc.get("tensors")
    names = list(tensors) if isinstance(tensors, dict) else []
    return [("weights",)] + [("tensors", name, "data") for name in names]


def corrupt(data, text):
    """text, base64 of float64s, corrupted in one of several ways."""
    n = max(len(text) * 3 // 4 // 8, 1)
    how = data.draw(st.sampled_from(["cut", "insert", "nan", "resize"]))
    if how == "cut":
        return text[:data.draw(st.integers(0, max(len(text) - 1, 0)))]
    if how == "insert":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + data.draw(st.sampled_from(["!", "=", "A", " ", "é"])) + text[at:]
    if how == "nan":
        values = np.ones(n)
        values[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        return checkpoint.encode(values)
    return checkpoint.encode(np.ones(n + data.draw(st.sampled_from([-1, 1, 7]))))


def mutate(data, doc):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        ops = ["drop", "retype", "corrupt"] + (["dims"] if "dims" in doc else [])
        ops += ["window"] if "max_context" in doc else []
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "window":
            value = data.draw(st.sampled_from(WINDOWS))
            if value == "absent":
                del doc["max_context"]
            else:
                doc["max_context"] = value
            continue
        if op == "dims" and isinstance(doc["dims"], dict):
            key = data.draw(st.sampled_from(["embed_dim", "hidden_dim", "att_dim"]))
            doc["dims"][key] = data.draw(st.sampled_from(DIMS))
            continue
        if op == "corrupt":
            candidates = [p for p in base64_paths(doc) if isinstance(_get(doc, p), str)]
            if candidates:
                path = data.draw(st.sampled_from(candidates))
                _set(doc, path, corrupt(data, _get(doc, path)))
            continue
        all_paths = list(paths(doc))
        if not all_paths:
            return
        path = data.draw(st.sampled_from(all_paths), label="path")
        parent = _get(doc, path[:-1])
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))


def _get(doc, path):
    try:
        for key in path:
            doc = doc[key]
        return doc
    except (KeyError, IndexError, TypeError):
        return None


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


@pytest.mark.parametrize("kind", ["lstm", "svm"])
@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_checkpoint_loads_or_is_config_error_naming_path(tmp_path, kind, data):
    path = saved(tmp_path, kind)
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(data, doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        loaded = LOADERS[kind](path)
    except ConfigError as e:
        assert str(path) in str(e)
        return
    if kind == "lstm":
        values = list(loaded.tensors().values())
    else:
        values = [loaded[0].weights, np.array([loaded[0].bias])]
    assert all(np.isfinite(v).all() for v in values)


LSTM_VERSION = checkpoint.VERSIONS["lstm"]
WINDOW_MESSAGE = "max_context must be null or a nonnegative integer"


@pytest.mark.parametrize("kind, fields, message", [
    ("svm", {"format_version": True}, r"format_version True not supported \(expected 1\)"),
    ("svm", {"format_version": 1.0}, r"format_version 1\.0 not supported \(expected 1\)"),
    ("lstm", {"format_version": float(LSTM_VERSION)},
     rf"format_version {LSTM_VERSION}\.0 not supported \(expected {LSTM_VERSION}\)"),
    ("svm", {"bias": "1.5"}, "bias must be a number, got '1.5'"),
    ("svm", {"bias": False}, "bias must be a number, got False"),
    ("svm", {"class_weights": {"S": "3/2", "NS": 0.75}}, "class weight 'S' must be a number"),
    ("svm", {"class_weights": {"S": 1.5, "NS": True}}, "class weight 'NS' must be a number"),
    # the three together: this file used to load as bias 1.5 and weights 3/2 and 1
    ("svm", {"bias": "1.5", "class_weights": {"S": "3/2", "NS": True}, "format_version": True},
     "format_version True not supported"),
    ("lstm", {"max_context": -1}, WINDOW_MESSAGE + ", got -1"),
    ("lstm", {"max_context": 1.5}, WINDOW_MESSAGE + r", got 1\.5"),
    ("lstm", {"max_context": "5"}, WINDOW_MESSAGE + ", got '5'"),
    ("lstm", {"max_context": True}, WINDOW_MESSAGE + ", got True"),
    ("svm", {"max_context": True}, WINDOW_MESSAGE + ", got True"),
], ids=["svm-version-true", "svm-version-float", "lstm-version-float", "bias-string",
        "bias-bool", "class-weight-string", "class-weight-bool", "all-three",
        "lstm-window-negative", "lstm-window-float", "lstm-window-string", "lstm-window-bool",
        "svm-window-bool"])
def test_values_of_the_wrong_json_type_are_refused(tmp_path, kind, fields, message):
    path = saved(tmp_path, kind)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(fields)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"{kind}\.json: .*{message}"):
        LOADERS[kind](path)


def test_svm_numbers_may_be_json_integers(tmp_path):
    path = saved(tmp_path, "svm")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(bias=2, class_weights={"S": 1, "NS": 3})
    path.write_text(json.dumps(doc), encoding="utf-8")
    model, _, _ = load_svm_checkpoint(path)
    assert model.bias == 2.0 and type(model.bias) is float
    assert model.class_weights == {"S": Fraction(1), "NS": Fraction(3)}


@pytest.mark.parametrize("kind", ["lstm", "svm"])
def test_loaders_take_a_read_document_without_rereading(tmp_path, kind):
    path = saved(tmp_path, kind)
    doc = checkpoint.read(path)
    want = LOADERS[kind](path)
    path.unlink()
    got = LOADERS[kind](path, doc)
    if kind == "lstm":
        assert all(np.array_equal(got.tensors()[k], t) for k, t in want.tensors().items())
    else:
        assert got[0].weights.tobytes() == want[0].weights.tobytes() and got[1:] == want[1:]
    other = checkpoint.read(saved(tmp_path, "svm" if kind == "lstm" else "lstm"))
    with pytest.raises(ConfigError, match=rf"{kind}\.json: checkpoint format_version"):
        LOADERS[kind](path, other)


def test_a_checkpoint_write_streams_its_json(tmp_path):
    # the base64 text of every tensor is held while json.dump streams the
    # document; building the document's whole text as well would double that
    params = init_params("word_attn", 300, 300, rng=new_rng(0))
    path = tmp_path / "checkpoint.json"
    _, peak = traced_peak(save_checkpoint, params, path)
    assert peak < 2 * path.stat().st_size
