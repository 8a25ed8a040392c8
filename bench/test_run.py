"""Self-test of the benchmark at toy size (D=12). No wall-clock thresholds.

    python -m pytest bench -q
"""
import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_toy(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "WORKLOADS", run.TOY)
    monkeypatch.setattr(run, "REP_S", 0.0)  # each variant trains once a round
    monkeypatch.setattr(run, "SVM_EXTRA", 1)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_toy_sizes_cover_every_workload():
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOADS) == set(run.TOY) == names
    assert all(w.dim == 12 for w in run.TOY.values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_prints_with_its_unit(monkeypatch, capsys, workload):
    code, report, result = _run_toy(monkeypatch, capsys, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["machine"]["seed"] == 3
    assert report["inputs"]["tokens"] > 0


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    code, report, result = _run_toy(monkeypatch, capsys, "cli_pipeline", trace=1)
    assert code == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert report["absent_targets"] == []
    # both rounds do the same fixed work, however fast it runs
    assert report["samples"]["trainings"] == {v: 2 for v in run.VARIANTS}
    assert report["samples"]["embedding_loads"] == 2 * run.FIXED_LOADS
    assert report["samples"]["rounds"] == 2
    m = result["metrics"]
    assert m["nn.lstm_backward.steps.word_attn"]["value"] > 0
    assert m["features.svm.n_features"]["value"] > 0
    assert m["evaluate.export_heatmap.calls"]["value"] > 0
    assert (Path(run.ROOT) / report["spans_file"]).exists()


def test_corrupted_gradient_fails_the_directional_check(monkeypatch, capsys):
    original = run.models.lstm_backward

    def off_by_one_percent(*args, **kwargs):
        grads, dx, d0 = original(*args, **kwargs)
        return {k: 1.01 * g for k, g in grads.items()}, dx, d0

    monkeypatch.setattr(run.models, "lstm_backward", off_by_one_percent)
    code, report, result = _run_toy(monkeypatch, capsys, "twitter_train", trace=0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= len(run.VARIANTS)
    assert result["failed"] / result["attempted"] > 0
    assert all(any(e.startswith(f"gradcheck {v}:") for e in report["errors"])
               for v in run.VARIANTS)


def test_removed_target_is_reported_absent_and_wrappers_come_off():
    original = run.models.sgd_step
    tracer = run.spans.Tracer()
    tracer.install([("gone", "convsarc.models", "no_such_function", None),
                    ("nn.sgd_step", "convsarc.models", "sgd_step", None)])
    try:
        assert tracer.absent == ["convsarc.models.no_such_function"]
        assert run.models.sgd_step is not original
    finally:
        tracer.uninstall()
    assert run.models.sgd_step is original


def test_paced_time_rescales_to_the_reference_speed(monkeypatch):
    ctx = run.Context(*[None] * 9)
    # the reference loop ran at half the reference speed before and after
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REF_S)
    assert ctx.paced(3.0, 2 * run.REF_S) == pytest.approx(1.5)
    assert ctx.refs == [2 * run.REF_S] * 2


def test_self_time_subtracts_child_spans():
    spans = [["outer", 0.0, 10.0, -1, "concat", None],
             ["inner", 1.0, 4.0, 0, "concat", {"steps": 3}],
             ["inner", 5.0, 6.0, 0, "concat", {"steps": 2}]]
    summary = run.spans.summarize(spans)
    assert summary[("outer", "concat")]["self_s"] == pytest.approx(6.0)
    assert summary[("inner", None)]["s"] == pytest.approx(4.0)
    assert summary[("inner", "concat")]["info"]["steps"] == 5
