import json

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from convsarc.errors import DomainError
from convsarc.evaluate import (attention_overlap, export_heatmap, f1_score,
                               format_table, metrics_to_dict, prf1)


# ----------------------------------------------------------------- f1 / prf1

def test_f1_reproduces_reported_conditional_rows():
    # harmonic-mean consistency with the published per-class scores
    assert f1_score(70.03, 76.92) == pytest.approx(73.32, abs=0.01)
    assert f1_score(76.08, 76.53) == pytest.approx(76.30, abs=0.01)


def test_f1_zero_inputs():
    assert f1_score(0.0, 0.0) == 0.0


def test_prf1_all_correct_is_100():
    m = prf1(["S", "NS", "S"], ["S", "NS", "S"])
    for lab in ("S", "NS"):
        sc = m.per_class[lab]
        assert sc.precision == 100.0
        assert sc.recall == 100.0
        assert sc.f1 == 100.0


def test_prf1_hand_built_confusion_fixture():
    gold = ["S", "S", "S", "S", "NS", "NS", "NS", "NS", "NS", "NS"]
    pred = ["S", "S", "NS", "NS", "S", "NS", "NS", "NS", "NS", "NS"]
    m = prf1(gold, pred)
    s = m.per_class["S"]
    assert (s.tp, s.fp, s.fn, s.tn) == (2, 1, 2, 5)
    assert s.precision == pytest.approx(100 * 2 / 3)
    assert s.recall == pytest.approx(50.0)
    ns = m.per_class["NS"]
    assert (ns.tp, ns.fp, ns.fn, ns.tn) == (5, 2, 1, 2)
    assert m.total == 10


def test_prf1_undefined_ratio_flagged():
    m = prf1(["NS", "NS"], ["NS", "NS"])
    s = m.per_class["S"]
    assert s.precision == 0.0
    assert "precision" in s.undefined
    assert "recall" in s.undefined
    assert "f1" in s.undefined


def test_prf1_length_mismatch():
    with pytest.raises(DomainError):
        prf1(["S"], ["S", "NS"])


def test_prf1_empty():
    with pytest.raises(DomainError):
        prf1([], [])


@given(st.lists(st.tuples(st.sampled_from(["S", "NS"]),
                          st.sampled_from(["S", "NS"])),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_prf1_permutation_invariant_and_counts_sum(pairs, rnd):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    base = prf1(gold, pred)
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    shuffled = prf1([gold[i] for i in order], [pred[i] for i in order])
    for lab in ("S", "NS"):
        a, b = base.per_class[lab], shuffled.per_class[lab]
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)
        assert a.f1 == b.f1
        assert a.tp + a.fp + a.fn + a.tn == len(pairs)


@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_f1_symmetric_and_bounded_by_max(p, r):
    assert f1_score(p, r) == f1_score(r, p)
    assert f1_score(p, r) <= max(p, r) + 1e-9
    if abs(p - r) > 1e-9:
        assert f1_score(p, r) < max(p, r)
    else:
        assert f1_score(p, r) == pytest.approx(p, abs=1e-6)


# --------------------------------------------------------- attention overlap

def test_overlap_match_and_miss():
    assert attention_overlap([(np.array([0.1, 0.2, 0.7]), [2])]) == 1.0
    assert attention_overlap([(np.array([0.9, 0.05, 0.05]), [1, 3])]) == 0.0


def test_overlap_constructed_41_percent():
    records = []
    for i in range(100):
        if i < 41:
            records.append((np.array([0.2, 0.8]), [1]))
        else:
            records.append((np.array([0.8, 0.2]), [1]))
    assert attention_overlap(records) == pytest.approx(0.41)


def test_overlap_tie_goes_to_lowest_index():
    assert attention_overlap([(np.array([0.5, 0.5]), [0])]) == 1.0
    assert attention_overlap([(np.array([0.5, 0.5]), [1])]) == 0.0


def test_overlap_empty_inputs_rejected():
    with pytest.raises(DomainError):
        attention_overlap([])
    with pytest.raises(DomainError):
        attention_overlap([(np.array([0.5, 0.5]), [])])


# scaling by a power of two is exact in float64, so it keeps every pair of
# weights strictly ordered; a power such as x ** 0.25 can round two weights
# an ulp apart to one value and create a tie
@given(st.lists(st.tuples(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.integers(0, 5)), min_size=1, max_size=20),
    st.integers(-10, 10))
@settings(max_examples=50, deadline=None)
@example(items=[([1 - 2**-53, 1.0], 1)], k=-2)
def test_overlap_invariant_under_monotone_transform(items, k):
    records = []
    for weights, trig in items:
        w = np.asarray(weights) / np.sum(weights)
        records.append((w, [trig % len(w)]))
    transformed = [(w * 2.0 ** k, t) for w, t in records]
    assert attention_overlap(records) == attention_overlap(transformed)


# ----------------------------------------------------------------- heatmaps

def test_heatmap_three_rows_structure(tmp_path):
    path = tmp_path / "map.svg"
    export_heatmap(["First one.", "Second & best.", "Third."], np.array([0.2, 0.5, 0.3]), path,
                   human_triggers=[1])
    svg = path.read_text(encoding="utf-8")
    assert svg.count("<rect") == 3
    assert 'fill-opacity="0.200000"' in svg
    assert 'fill-opacity="0.500000"' in svg
    assert ">0.500<" in svg  # weight printed to 3 decimals
    assert "Second &amp; best." in svg  # XML escaping
    assert svg.count('stroke="#000000"') == 1  # the trigger row is outlined


def test_heatmap_byte_identical(tmp_path):
    weights = np.array([0.25, 0.75])
    export_heatmap(["a", "b"], weights, tmp_path / "one.svg")
    export_heatmap(["a", "b"], weights, tmp_path / "two.svg")
    assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()


def test_heatmap_bytes_for_markup_characters(tmp_path):
    # & < > are escaped, quotes are not; these bytes predate the escaping
    # function now used
    export_heatmap(['Tom & Jerry <3 "quoted"', "it's > 2 & < 5 'ok'"], np.array([0.25, 0.75]),
                   tmp_path / "m.svg", human_triggers=[0])
    assert (tmp_path / "m.svg").read_bytes() == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<svg xmlns="http://www.w3.org/2000/svg" width="1200" height="84" '
        b'font-family="monospace" font-size="13">\n'
        b'<rect x="8" y="8" width="560" height="28" fill="#d62728" '
        b'fill-opacity="0.250000" stroke="#000000" stroke-width="2"/>\n'
        b'<text x="576" y="27">0.250</text>\n'
        b'<text x="632" y="27">Tom &amp; Jerry &lt;3 "quoted"</text>\n'
        b'<rect x="8" y="42" width="560" height="28" fill="#d62728" '
        b'fill-opacity="0.750000" stroke="none"/>\n'
        b'<text x="576" y="61">0.750</text>\n'
        b"<text x=\"632\" y=\"61\">it's &gt; 2 &amp; &lt; 5 'ok'</text>\n"
        b'</svg>\n')


def test_heatmap_single_full_intensity_row(tmp_path):
    export_heatmap(["only sentence"], np.array([1.0]), tmp_path / "m.svg")
    svg = (tmp_path / "m.svg").read_text(encoding="utf-8")
    assert svg.count("<rect") == 1
    assert 'fill-opacity="1.000000"' in svg


def test_heatmap_reply_side(tmp_path):
    # any weight vector draws, such as a reply's: one row per weight
    export_heatmap(["r1", "r2"], np.array([0.4, 0.6]), tmp_path / "r.svg")
    assert (tmp_path / "r.svg").read_text(encoding="utf-8").count("<rect") == 2


def test_heatmap_count_mismatch(tmp_path):
    with pytest.raises(DomainError):
        export_heatmap(["only one"], np.array([0.5, 0.5]), tmp_path / "x.svg")


# ------------------------------------------------------------------ reports

def test_report_line_and_table():
    m = prf1(["S", "NS"], ["S", "S"])
    line = json.dumps(metrics_to_dict("toy", m), sort_keys=True)
    assert '"name": "toy"' in line
    table = format_table([("toy", m)])
    assert "Experiment" in table and "toy" in table
    assert "S-F1" in table and "NS-F1" in table
