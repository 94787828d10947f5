import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairwise_auc
from dxpipe.metrics import (
    EvalReport,
    ReportError,
    build_report,
    compare_report,
    comparison_to_csv,
    confusion,
    multiclass_auc,
    per_class_metrics,
    render_per_class_table,
    roc_curve,
    roc_to_csv,
)


def test_confusion_perfect_is_diagonal():
    cm = confusion([0, 1, 2, 2], [0, 1, 2, 2], 3)
    assert cm.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 2]]


def test_confusion_fixture():
    cm = confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert cm.tolist() == [[1, 1], [0, 2]]
    assert cm.sum() == 4


def test_confusion_range_check():
    with pytest.raises(ValueError, match="range"):
        confusion([0, 3], [0, 1], 3)


def test_per_class_diagonal_all_ones():
    m = per_class_metrics(np.diag([4, 2, 9]))
    np.testing.assert_allclose(m.precision, 1.0)
    np.testing.assert_allclose(m.sensitivity, 1.0)
    np.testing.assert_allclose(m.specificity, 1.0)
    assert m.accuracy == 1.0


def test_per_class_binary_fixture():
    # hand-count oracle on [[3,1],[2,4]]
    m = per_class_metrics(np.array([[3, 1], [2, 4]]))
    assert abs(m.precision[0] - 3 / 5) < 1e-12
    assert abs(m.sensitivity[0] - 3 / 4) < 1e-12
    assert abs(m.specificity[0] - 4 / 6) < 1e-12
    # weighted sensitivity with supports (4, 6)
    expected = (0.75 * 4 + (4 / 6) * 6) / 10
    assert abs(m.weighted_sensitivity - expected) < 1e-12
    assert abs(m.weighted_sensitivity - 0.70) < 1e-12
    assert abs(m.accuracy - 0.7) < 1e-12


def test_per_class_undefined_flagged_as_zero():
    # class 1 never predicted and never present -> precision/sensitivity 0/0
    cm = np.array([[5, 0], [0, 0]])
    m = per_class_metrics(cm)
    assert m.precision[1] == 0.0
    assert m.undefined["precision"][1]
    assert m.undefined["sensitivity"][1]
    assert not m.undefined["precision"][0]


def test_weighted_average_bounded_by_extremes():
    rng = np.random.default_rng(0)
    cm = rng.integers(0, 30, size=(4, 4))
    m = per_class_metrics(cm)
    for value, arr in (
        (m.weighted_precision, m.precision),
        (m.weighted_sensitivity, m.sensitivity),
        (m.weighted_specificity, m.specificity),
    ):
        assert arr.min() - 1e-12 <= value <= arr.max() + 1e-12


def test_accuracy_is_trace_over_total():
    rng = np.random.default_rng(1)
    cm = rng.integers(0, 20, size=(5, 5))
    m = per_class_metrics(cm)
    assert abs(m.accuracy - np.trace(cm) / cm.sum()) < 1e-12


def test_roc_perfect_separation():
    curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert curve.auc == 1.0
    assert tuple(curve.points[0]) == (0.0, 0.0)
    assert tuple(curve.points[-1]) == (1.0, 1.0)


def test_roc_fixture_075():
    curve = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert abs(curve.auc - 0.75) < 1e-12


def test_roc_inverted_labels():
    curve = roc_curve([0.1, 0.4, 0.35, 0.8], [1, 1, 0, 0])
    assert abs(curve.auc - 0.25) < 1e-12


def test_roc_monotone_and_bounded():
    rng = np.random.default_rng(2)
    scores = rng.random(60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    curve = roc_curve(scores, labels)
    fpr, tpr = curve.points[:, 0], curve.points[:, 1]
    assert (np.diff(fpr) >= 0).all()
    assert (np.diff(tpr) >= 0).all()
    assert tuple(curve.points[0]) == (0.0, 0.0)
    assert tuple(curve.points[-1]) == (1.0, 1.0)


def test_roc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.random(n), 1)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        auc = roc_curve(scores, labels).auc
        assert abs(auc - pairwise_auc(scores, labels)) < 1e-12


def test_roc_rejects_single_class():
    with pytest.raises(ValueError, match="positive"):
        roc_curve([0.1, 0.2], [1, 1])


def test_roc_csv_format():
    curve = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    lines = roc_to_csv(curve).strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert lines[1].startswith("inf,0.0,0.0")
    assert len(lines) == len(curve.points) + 1


def test_multiclass_perfect_one_hot():
    labels = np.array([0, 1, 2, 0, 1, 2])
    scores = np.eye(3)[labels]
    per_class, macro = multiclass_auc(scores, labels)
    assert per_class == [1.0, 1.0, 1.0]
    assert macro == 1.0


def test_multiclass_uniform_scores_give_half():
    labels = np.array([0, 1, 2, 0, 1, 2])
    scores = np.full((6, 3), 0.5)
    per_class, macro = multiclass_auc(scores, labels)
    assert per_class == [0.5, 0.5, 0.5]
    assert macro == 0.5


def test_multiclass_matches_per_class_oracle():
    rng = np.random.default_rng(4)
    labels = np.array([0, 0, 1, 1, 2, 2])
    scores = rng.random((6, 3))
    per_class, macro = multiclass_auc(scores, labels)
    for c in range(3):
        binary = (labels == c).astype(int)
        assert abs(per_class[c] - pairwise_auc(scores[:, c], binary)) < 1e-12
    assert abs(macro - np.mean(per_class)) < 1e-12


def test_multiclass_rejects_degenerate_class():
    labels = np.array([0, 0, 1, 1])
    scores = np.random.default_rng(5).random((4, 3))
    with pytest.raises(ValueError, match="class 2"):
        multiclass_auc(scores, labels)


def test_build_report_fields_and_json_round_trip():
    labels = [0, 0, 1, 1, 2, 2]
    rng = np.random.default_rng(6)
    scores = rng.random((6, 3))
    report = build_report(labels, scores)
    assert report.total == 6
    assert report.num_classes == 3
    assert len(report.per_class) == 3
    assert report.macro_auc is not None
    assert all(0.0 <= row["auc"] <= 1.0 for row in report.per_class)
    # the curves written as roc_class<k>.csv carry the reported AUCs
    per_class, macro = multiclass_auc(scores, labels)
    assert report.per_class_auc == per_class == [curve.auc for curve in report.roc_curves]
    assert [row["auc"] for row in report.per_class] == per_class
    assert report.macro_auc == macro
    loaded = EvalReport.from_json(report.to_json())
    assert loaded.accuracy == report.accuracy
    assert loaded.per_class == report.per_class
    assert loaded.macro_auc == report.macro_auc


def test_build_report_flags_the_auc_of_a_class_the_labels_lack():
    labels = np.array([0, 0, 1, 1, 0])  # class 2 absent: no positives
    rng = np.random.default_rng(8)
    scores = rng.random((5, 3))
    report = build_report(labels, scores)
    assert report.roc_curves[2] is None
    assert report.per_class_auc[2] is None and report.per_class[2]["auc"] is None
    assert "auc" in report.per_class[2]["undefined"]
    assert report.per_class[2]["undefined"] == sorted(report.per_class[2]["undefined"])
    for c in (0, 1):
        binary = (labels == c).astype(int)
        assert abs(report.per_class_auc[c] - pairwise_auc(scores[:, c], binary)) < 1e-12
        assert "auc" not in report.per_class[c]["undefined"]
    assert report.macro_auc == float(np.mean(report.per_class_auc[:2]))
    d = json.loads(report.to_json())
    assert d["per_class_auc"][2] is None and d["per_class"][2]["auc"] is None
    loaded = EvalReport.from_json(report.to_json())
    assert loaded.per_class_auc == report.per_class_auc
    assert loaded.macro_auc == report.macro_auc


def test_build_report_with_one_label_has_no_auc_at_all():
    # every class lacks positives or negatives: no curve, no macro AUC
    labels = np.array([1, 1, 1])
    scores = np.random.default_rng(9).random((3, 2))
    report = build_report(labels, scores)
    assert report.roc_curves == [None, None]
    assert report.per_class_auc == [None, None]
    assert report.macro_auc is None
    assert json.loads(report.to_json())["macro_auc"] is None


def test_balanced_precision_is_macro_mean():
    cm = np.array([[8, 2], [3, 7]])
    m = per_class_metrics(cm)
    assert abs(m.balanced_precision - np.mean(m.precision)) < 1e-12


def test_render_per_class_table_shape():
    report = build_report([0, 1], np.eye(2))
    table = render_per_class_table(report)
    lines = table.strip().splitlines()
    assert lines[0].startswith("class")
    assert len(lines) == 4  # header + 2 classes + weighted avg


def test_render_per_class_table_prints_a_flagged_ratio_as_n_a():
    # class 2 has no members and is never predicted: its precision and
    # sensitivity are 0/0, flagged, while class 0's and 1's are measured
    report = build_report([0, 1, 1], np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 0]]))
    assert report.per_class[2]["undefined"] == ["auc", "precision", "sensitivity"]
    assert render_per_class_table(report) == (
        "class  precision  sensitivity  specificity\n"
        "    0       0.50         1.00         0.50\n"
        "    1       1.00         0.50         1.00\n"
        "    2        n/a          n/a         1.00\n"
        "w_avg       0.83         0.67         0.83\n"
    )


def make_report(accuracy, balanced_precision, specificity, num_classes=6):
    return EvalReport(
        num_classes=num_classes,
        total=100,
        accuracy=accuracy,
        balanced_precision=balanced_precision,
        weighted_precision=0.0,
        weighted_sensitivity=0.0,
        weighted_specificity=specificity,
        per_class=[],
        confusion=[],
        per_class_auc=[None] * num_classes,
        macro_auc=None,
    )


def test_compare_report_reference_rows_verbatim():
    model = make_report(0.87, 0.88, 0.87)
    doctors = make_report(0.85, 0.87, 0.85)
    rows = compare_report(model, [doctors], model_name="fusion-cnn", annotators_name="doctors")
    text = comparison_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "name,accuracy,balanced_precision,specificity"
    assert lines[1] == "doctors,0.85,0.87,0.85"
    assert lines[2] == "fusion-cnn,0.87,0.88,0.87"


def test_compare_report_self_comparison_identical_rows():
    r = make_report(0.9, 0.8, 0.7)
    rows = compare_report(r, [r])
    assert rows[0].accuracy == rows[1].accuracy
    assert rows[0].balanced_precision == rows[1].balanced_precision
    assert rows[0].specificity == rows[1].specificity


def test_compare_report_empty_annotators():
    rows = compare_report(make_report(0.9, 0.8, 0.7), [])
    assert len(rows) == 1
    assert rows[0].name == "model"


def test_compare_report_averages_annotators():
    rows = compare_report(
        make_report(0.9, 0.9, 0.9),
        [make_report(0.8, 0.6, 0.4), make_report(0.6, 0.8, 0.6)],
    )
    assert abs(rows[0].accuracy - 0.7) < 1e-12
    assert abs(rows[0].balanced_precision - 0.7) < 1e-12
    assert abs(rows[0].specificity - 0.5) < 1e-12


def test_compare_report_rejects_mismatched_classes():
    with pytest.raises(ValueError, match="class count"):
        compare_report(make_report(0.9, 0.8, 0.7, 6), [make_report(0.9, 0.8, 0.7, 4)])


def test_report_metrics_all_within_unit_interval():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 4, size=40)
    report = build_report(labels, rng.random((40, 4)))
    values = [report.accuracy, report.balanced_precision, report.weighted_precision,
              report.weighted_sensitivity, report.weighted_specificity]
    values += [row[k] for row in report.per_class for k in ("precision", "sensitivity", "specificity")]
    assert all(0.0 <= v <= 1.0 for v in values)


@st.composite
def eval_reports(draw):
    """build_report over drawn labels and scores, ties and all-zero rows included."""
    n = draw(st.integers(1, 5))
    size = draw(st.integers(0, 12))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    score = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    rows = draw(st.lists(st.lists(score, min_size=n, max_size=n), min_size=size, max_size=size))
    return build_report(labels, np.array(rows, dtype=np.float64).reshape(size, n))


def _accepted_report_is_usable(text: str) -> None:
    """from_json either raises ReportError or returns a report that renders,
    compares and writes back to the same layout."""
    try:
        report = EvalReport.from_json(text)
    except ReportError:
        return
    render_per_class_table(report)
    comparison_to_csv(compare_report(report, [report]))
    assert EvalReport.from_json(report.to_json()).to_json() == report.to_json()


@settings(max_examples=100, deadline=None)
@given(report=eval_reports())
def test_report_json_round_trips_exactly(report):
    text = report.to_json()
    loaded = EvalReport.from_json(text)
    assert loaded.to_json() == text
    assert loaded.per_class == report.per_class and loaded.confusion == report.confusion


_HOSTILE = st.sampled_from(
    ["x", None, True, -1, 0, 7, 2**70, 0.5, -0.5, 1.5, float("nan"), float("inf"), [], {}, [1, 2],
     ["auc"], ["sensitivity", "auc"], [[0]], {"a": 1}]
)


def _paths(value, prefix=()):
    """Every key/index path inside a JSON value, the value's own path first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


@settings(max_examples=200, deadline=None)
@given(report=eval_reports(), data=st.data())
def test_a_mutated_report_field_loads_usably_or_raises_report_error(report, data):
    d = json.loads(report.to_json())
    path = data.draw(st.sampled_from(list(_paths(d))[1:]))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()) and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_HOSTILE)
    _accepted_report_is_usable(json.dumps(d))


_REPORT_TOKENS = ["", "{", "}", "[", "]", ",", ":", '"', "null", "NaN", "-", "1e999", "0", "7",
                  "true", '"auc"', "\\u0000"]


@settings(max_examples=100, deadline=None)
@given(report=eval_reports(), data=st.data())
def test_mutated_report_text_loads_usably_or_raises_report_error(report, data):
    text = report.to_json()
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 4))
        token = data.draw(st.sampled_from(_REPORT_TOKENS) | st.text(max_size=3))
        text = text[:i] + token + text[i + cut :]
    _accepted_report_is_usable(text)


def _edited(edit) -> str:
    d = json.loads(build_report([0, 1, 1], np.eye(3, 2)).to_json())  # predicts 0, 1, 0
    edit(d)
    return json.dumps(d)


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected an object with keys num_classes, total, accuracy"),
    ("{", "not JSON: "),
    ("[" * 100_000, "not JSON: "),
    ('{"total": 1, "total": 2}', "duplicate key 'total'"),
    (_edited(lambda d: d.pop("macro_auc")), "expected an object with keys"),
    (_edited(lambda d: d.update(extra=1)), "expected an object with keys"),
    (_edited(lambda d: d.update(accuracy="x")), "field accuracy: expected a finite number"),
    (_edited(lambda d: d.update(accuracy=float("nan"))), "field accuracy: expected a finite"),
    (_edited(lambda d: d.update(weighted_specificity=1)), "field weighted_specificity:"),
    (_edited(lambda d: d.update(num_classes=True)), "field num_classes: expected an integer"),
    (_edited(lambda d: d.update(num_classes=3)), "field per_class_auc: expected a list of 3 AUCs"),
    (_edited(lambda d: d.update(total=-1)), "field total: expected an integer >= 0"),
    (_edited(lambda d: d["per_class_auc"].__setitem__(1, 1.5)), "field per_class_auc:"),
    (_edited(lambda d: d.update(macro_auc=-0.1)), "field macro_auc:"),
    (_edited(lambda d: d.update(per_class_auc=None)), "field per_class_auc: expected a list of 2"),
    (_edited(lambda d: d["per_class"].pop()), "field per_class: expected a list of 2 rows"),
    (_edited(lambda d: d["per_class"][1].pop("auc")), "field per_class[1]: expected an object"),
    (_edited(lambda d: d["per_class"][1].update(class_id=0)), "field per_class[1].class_id:"),
    (_edited(lambda d: d["per_class"][0].update(support=0.5)), "field per_class[0].support:"),
    (_edited(lambda d: d["per_class"][0].update(precision=None)), "field per_class[0].precision:"),
    (_edited(lambda d: d["per_class"][0].update(undefined=["x"])), "field per_class[0].undefined:"),
    (_edited(lambda d: d["per_class"][0].update(undefined=["sensitivity", "auc"])),
     "field per_class[0].undefined:"),
    (_edited(lambda d: d["per_class"][0].update(auc="0.5")), "field per_class[0].auc:"),
    (_edited(lambda d: d["confusion"][1].append(0)), "field confusion: expected a 2x2 matrix"),
    (_edited(lambda d: d["confusion"][0].__setitem__(0, -1)), "field confusion:"),
])
def test_report_reader_refuses_what_to_json_never_writes(text, message):
    with pytest.raises(ReportError, match=re.escape(message)):
        EvalReport.from_json(text)


def test_to_json_refuses_a_report_without_its_rows():
    report = make_report(0.87, 0.88, 0.87)  # six classes, per_class=[] and confusion=[]
    with pytest.raises(ReportError, match=re.escape("field per_class: expected a list of 6 rows")):
        report.to_json()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(accuracy=float("nan")), "field accuracy: expected a finite number"),
    (lambda d: d.update(weighted_precision=float("inf")), "field weighted_precision:"),
    (lambda d: d.update(total=-1), "field total: expected an integer >= 0"),
    (lambda d: d.update(num_classes=3), "field per_class_auc: expected a list of 3 AUCs"),
    (lambda d: d.update(per_class_auc=None), "field per_class_auc: expected a list of 2"),
    (lambda d: d["per_class"].pop(), "field per_class: expected a list of 2 rows"),
    (lambda d: d["per_class"][1].pop("auc"), "field per_class[1]: expected an object"),
    (lambda d: d["per_class"][1].update(class_id=0), "field per_class[1].class_id:"),
    (lambda d: d["per_class"][0].update(undefined=["x"]), "field per_class[0].undefined:"),
    (lambda d: d["confusion"][1].append(0), "field confusion: expected a 2x2 matrix"),
])
def test_to_json_refuses_what_from_json_refuses(edit, message):
    d = json.loads(build_report([0, 1, 1], np.eye(3, 2)).to_json())
    edit(d)
    with pytest.raises(ReportError, match=re.escape(message)):
        EvalReport.from_json(json.dumps(d))
    with pytest.raises(ReportError, match=re.escape(message)):
        EvalReport(**d).to_json()


def test_every_build_report_output_round_trips():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for size in (0, 1, 2, 5, 40):
            labels = rng.integers(0, n, size=size)
            one_class = np.full(size, n - 1)  # every other class lacks positives
            for truth in (labels, one_class):
                for scores in (rng.random((size, n)), np.zeros((size, n))):
                    text = build_report(truth, scores).to_json()
                    assert EvalReport.from_json(text).to_json() == text
