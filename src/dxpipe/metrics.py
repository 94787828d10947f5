"""Confusion-matrix metrics, one-vs-rest ROC curves with trapezoidal AUC,
and the comparison-table report.

The trapezoidal AUC over the threshold-sweep curve equals the pairwise
ranking statistic P(score+ > score-) + P(tie)/2; tests hold the two within
1e-9.  Undefined 0/0 ratios are reported as 0.0 and flagged rather than
dropped, so table shapes stay stable; an undefined per-class AUC (a class
with no positives or no negatives) is None, flagged the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from dxpipe.fileio import csv_text


def confusion(labels, predictions, num_classes: int) -> np.ndarray:
    """Counts[true][predicted] over paired label/prediction sequences."""
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions must have equal length")
    if labels.size and (
        labels.min() < 0
        or labels.max() >= num_classes
        or predictions.min() < 0
        or predictions.max() >= num_classes
    ):
        raise ValueError(f"labels/predictions out of range 0..{num_classes - 1}")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (labels, predictions), 1)
    return cm


@dataclass
class PerClassMetrics:
    precision: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    support: np.ndarray
    undefined: dict[str, np.ndarray]  # 0/0 flags per metric
    weighted_precision: float
    weighted_sensitivity: float
    weighted_specificity: float
    accuracy: float
    balanced_precision: float  # macro-averaged precision


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    undefined = den == 0
    out = np.zeros(len(num), dtype=np.float64)
    ok = ~undefined
    out[ok] = num[ok] / den[ok]
    return out, undefined


def per_class_metrics(cm: np.ndarray) -> PerClassMetrics:
    """One-vs-rest precision/sensitivity/specificity per class plus
    support-weighted averages."""
    cm = np.asarray(cm, dtype=np.int64)
    c = cm.shape[0]
    if cm.shape != (c, c) or (cm < 0).any():
        raise ValueError("confusion matrix must be square and nonnegative")
    total = cm.sum()
    tp = np.diag(cm).astype(np.float64)
    support = cm.sum(axis=1).astype(np.float64)
    fn = support - tp
    fp = cm.sum(axis=0) - tp
    tn = total - tp - fn - fp

    precision, p_undef = _safe_ratio(tp, tp + fp)
    sensitivity, s_undef = _safe_ratio(tp, tp + fn)
    specificity, sp_undef = _safe_ratio(tn, tn + fp)

    w = support / total if total else np.zeros(c)
    return PerClassMetrics(
        precision=precision,
        sensitivity=sensitivity,
        specificity=specificity,
        support=support.astype(np.int64),
        undefined={"precision": p_undef, "sensitivity": s_undef, "specificity": sp_undef},
        weighted_precision=float((precision * w).sum()),
        weighted_sensitivity=float((sensitivity * w).sum()),
        weighted_specificity=float((specificity * w).sum()),
        accuracy=float(tp.sum() / total) if total else 0.0,
        balanced_precision=float(precision.mean()),
    )


@dataclass
class RocCurve:
    points: np.ndarray  # (M, 2) columns (fpr, tpr), starts (0,0), ends (1,1)
    thresholds: np.ndarray  # (M,), +inf sentinel for the (0,0) point
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """Threshold-sweep ROC over binary labels; AUC by the trapezoidal rule."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and equal length")
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos + neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if pos == 0 or neg == 0:
        raise ValueError("need at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp_cum = np.cumsum(sorted_labels)
    fp_cum = np.cumsum(1 - sorted_labels)
    # keep only the last index of each tie group
    distinct = np.nonzero(np.diff(sorted_scores, append=-np.inf))[0]
    tpr = np.concatenate([[0.0], tp_cum[distinct] / pos])
    fpr = np.concatenate([[0.0], fp_cum[distinct] / neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct]])

    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(points=np.column_stack([fpr, tpr]), thresholds=thresholds, auc=auc)


def _one_vs_rest_curves(score_matrix: np.ndarray, labels) -> list[RocCurve | None]:
    """One ROC curve per score column, class c against the rest; None for a
    class with no positives or no negatives, whose curve is undefined (0/0)."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or len(scores) != len(labels):
        raise ValueError("score matrix must be (N, C) with one row per label")
    curves = []
    for c in range(scores.shape[1]):
        binary = (labels == c).astype(np.int64)
        defined = 0 < binary.sum() < len(binary)
        curves.append(roc_curve(scores[:, c], binary) if defined else None)
    return curves


def multiclass_auc(score_matrix: np.ndarray, labels) -> tuple[list[float], float]:
    """One-vs-rest AUC per class on score columns, plus the unweighted mean.
    Every class needs positives and negatives."""
    curves = _one_vs_rest_curves(score_matrix, labels)
    if None in curves:
        raise ValueError(f"class {curves.index(None)} has no positives or no negatives")
    per_class = [curve.auc for curve in curves]
    return per_class, float(np.mean(per_class))


def roc_to_csv(curve: RocCurve) -> str:
    return csv_text(
        ["threshold", "fpr", "tpr"],
        ([repr(float(th)), repr(float(fpr)), repr(float(tpr))]
         for th, (fpr, tpr) in zip(curve.thresholds, curve.points)),
    )


class ReportError(ValueError):
    """Raised for eval report JSON that is not in the layout to_json writes."""


_RATIO_KEYS = (
    "accuracy",
    "balanced_precision",
    "weighted_precision",
    "weighted_sensitivity",
    "weighted_specificity",
)
_REPORT_KEYS = ("num_classes", "total", *_RATIO_KEYS, "per_class", "confusion",
                "per_class_auc", "macro_auc")
_ROW_KEYS = ("class_id", "support", "precision", "sensitivity", "specificity", "undefined")
_UNDEFINED_FLAGS = ("auc", "precision", "sensitivity", "specificity")


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ReportError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _require(ok: bool, field: str, expected: str) -> None:
    if not ok:
        raise ReportError(f"field {field}: expected {expected}")


def _is_object(value, keys) -> bool:
    return isinstance(value, dict) and set(value) == set(keys)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_finite(value) -> bool:
    return type(value) is float and math.isfinite(value)


def _is_auc(value) -> bool:
    return value is None or (type(value) is float and 0.0 <= value <= 1.0)


def _check_layout(d) -> None:
    """Raise ReportError, naming the field, unless d is in to_dict's layout."""
    if not _is_object(d, _REPORT_KEYS):
        raise ReportError(f"expected an object with keys {', '.join(_REPORT_KEYS)}")
    n = d["num_classes"]
    _require(type(n) is int and n >= 1, "num_classes", "an integer >= 1")
    _require(_is_count(d["total"]), "total", "an integer >= 0")
    for key in _RATIO_KEYS:
        _require(_is_finite(d[key]), key, "a finite number")
    aucs = d["per_class_auc"]
    _require(
        aucs is None or (isinstance(aucs, list) and len(aucs) == n and all(map(_is_auc, aucs))),
        "per_class_auc",
        f"null or a list of {n} AUCs, each null or in [0, 1]",
    )
    _require(_is_auc(d["macro_auc"]) and (aucs is not None or d["macro_auc"] is None),
             "macro_auc", "null, or a number in [0, 1] when per_class_auc is a list")
    rows = d["per_class"]
    _require(isinstance(rows, list) and len(rows) == n, "per_class", f"a list of {n} rows")
    row_keys = _ROW_KEYS if aucs is None else (*_ROW_KEYS, "auc")
    for c, row in enumerate(rows):
        field = f"per_class[{c}]"
        _require(_is_object(row, row_keys), field, f"an object with keys {', '.join(row_keys)}")
        _require(type(row["class_id"]) is int and row["class_id"] == c, f"{field}.class_id", str(c))
        _require(_is_count(row["support"]), f"{field}.support", "an integer >= 0")
        for key in ("precision", "sensitivity", "specificity"):
            _require(_is_finite(row[key]), f"{field}.{key}", "a finite number")
        flags = row["undefined"]
        _require(
            isinstance(flags, list)
            and all(isinstance(f, str) and f in _UNDEFINED_FLAGS for f in flags)
            and flags == sorted(set(flags)),
            f"{field}.undefined",
            f"a sorted list of distinct names from {', '.join(_UNDEFINED_FLAGS)}",
        )
        if aucs is not None:
            _require(_is_auc(row["auc"]), f"{field}.auc", "null or a number in [0, 1]")
    cm = d["confusion"]
    _require(
        isinstance(cm, list)
        and len(cm) == n
        and all(isinstance(r, list) and len(r) == n and all(map(_is_count, r)) for r in cm),
        "confusion",
        f"a {n}x{n} matrix of integers >= 0",
    )


@dataclass
class EvalReport:
    num_classes: int
    total: int
    accuracy: float
    balanced_precision: float
    weighted_precision: float
    weighted_sensitivity: float
    weighted_specificity: float
    per_class: list[dict]
    confusion: list[list[int]]
    per_class_auc: list[float | None] | None = None  # None: undefined, flagged
    macro_auc: float | None = None  # mean of the defined per-class AUCs
    roc_curves: list[RocCurve | None] | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _REPORT_KEYS}

    def to_json(self) -> str:
        """The report as JSON; raises ReportError, naming the field, when
        from_json would refuse the text."""
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        _check_layout(json.loads(text))  # as from_json parses it
        return text

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """The report in to_json's layout; anything else raises ReportError
        naming the field."""
        try:
            d = json.loads(text, object_pairs_hook=_unique_keys)
        except ReportError:
            raise
        except (ValueError, RecursionError) as exc:
            raise ReportError(f"not JSON: {exc}") from None
        _check_layout(d)
        return cls(**d)


def build_report(
    labels, predictions, num_classes: int, score_matrix: np.ndarray | None = None
) -> EvalReport:
    """Full evaluation report; AUC columns require the score matrix.

    A class with no positives or no negatives among the labels has no ROC
    curve: its AUC is None and flagged "auc" in its undefined list, and the
    macro AUC is the mean over the other classes (None if there are none)."""
    cm = confusion(labels, predictions, num_classes)
    m = per_class_metrics(cm)
    per_class = []
    for c in range(num_classes):
        per_class.append(
            {
                "class_id": c,
                "support": int(m.support[c]),
                "precision": float(m.precision[c]),
                "sensitivity": float(m.sensitivity[c]),
                "specificity": float(m.specificity[c]),
                "undefined": sorted(k for k, v in m.undefined.items() if v[c]),
            }
        )
    report = EvalReport(
        num_classes=num_classes,
        total=int(cm.sum()),
        accuracy=m.accuracy,
        balanced_precision=m.balanced_precision,
        weighted_precision=m.weighted_precision,
        weighted_sensitivity=m.weighted_sensitivity,
        weighted_specificity=m.weighted_specificity,
        per_class=per_class,
        confusion=[[int(v) for v in row] for row in cm],
    )
    if score_matrix is not None:
        report.roc_curves = _one_vs_rest_curves(score_matrix, labels)
        report.per_class_auc = [None if cv is None else cv.auc for cv in report.roc_curves]
        defined = [a for a in report.per_class_auc if a is not None]
        report.macro_auc = float(np.mean(defined)) if defined else None
        for row, a in zip(report.per_class, report.per_class_auc):
            row["auc"] = a
            if a is None:
                row["undefined"] = sorted(row["undefined"] + ["auc"])
    return report


def render_per_class_table(report: EvalReport) -> str:
    """Plain-text per-class table (precision / sensitivity / specificity)."""
    lines = ["class  precision  sensitivity  specificity"]
    for row in report.per_class:
        lines.append(
            f"{row['class_id']:>5}  {row['precision']:>9.2f}  "
            f"{row['sensitivity']:>11.2f}  {row['specificity']:>11.2f}"
        )
    lines.append(
        f"w_avg  {report.weighted_precision:>9.2f}  "
        f"{report.weighted_sensitivity:>11.2f}  {report.weighted_specificity:>11.2f}"
    )
    return "\n".join(lines) + "\n"


@dataclass
class ComparisonRow:
    name: str
    accuracy: float
    balanced_precision: float
    specificity: float


def compare_report(
    model_report: EvalReport,
    annotator_reports: list[EvalReport],
    model_name: str = "model",
    annotators_name: str = "annotators",
) -> list[ComparisonRow]:
    """Comparison rows (accuracy, balanced precision, specificity): the mean
    of the annotators, then the model."""
    for r in annotator_reports:
        if r.num_classes != model_report.num_classes:
            raise ValueError("annotator report class count differs from model report")
    rows = []
    if annotator_reports:
        rows.append(
            ComparisonRow(
                name=annotators_name,
                accuracy=float(np.mean([r.accuracy for r in annotator_reports])),
                balanced_precision=float(
                    np.mean([r.balanced_precision for r in annotator_reports])
                ),
                specificity=float(
                    np.mean([r.weighted_specificity for r in annotator_reports])
                ),
            )
        )
    rows.append(
        ComparisonRow(
            name=model_name,
            accuracy=model_report.accuracy,
            balanced_precision=model_report.balanced_precision,
            specificity=model_report.weighted_specificity,
        )
    )
    return rows


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    return csv_text(
        ["name", "accuracy", "balanced_precision", "specificity"],
        ([r.name, f"{r.accuracy:.2f}", f"{r.balanced_precision:.2f}", f"{r.specificity:.2f}"]
         for r in rows),
    )
