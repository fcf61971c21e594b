"""Offset-based scoring of extractions against gold annotations.

Gold spans come from BRAT standoff files and carry one of three
categories: inLoc (inside the area of interest), outLoc (outside it),
and ambLoc (ambiguous without context). An exact offset match with an
inLoc span is a true positive; an overlapping-but-inexact match costs
half a false positive plus half a false negative. Predictions exactly
matching outLoc/ambLoc spans are ignored in standard mode and counted
as full false positives in lnex_strict mode.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import AnnotationError, DataError

CATEGORIES = ("inLoc", "outLoc", "ambLoc")
MODES = ("standard", "lnex_strict")

_HASHTAG_RE = re.compile(r"#\w+")


@dataclass(frozen=True)
class GoldAnnotation:
    """One gold span with character offsets into its document."""

    doc_id: str
    char_start: int
    char_end: int
    surface: str
    category: str


@dataclass(frozen=True)
class ScoreReport:
    """Precision/recall/F1 over (possibly half-valued) match counts."""

    tp: float
    fp: float
    fn: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp, fp, fn) -> "ScoreReport":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(tp=tp, fp=fp, fn=fn,
                   precision=precision, recall=recall, f1=f1)

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall,
            "f1": self.f1,
        }


def load_annotations(ann_path, txt_path) -> list[GoldAnnotation]:
    """Read BRAT standoff T-lines and validate them against the text.

    Lines look like "T1<TAB>inLoc 26 42<TAB>Ganapathy Colony"; other
    standoff line types (notes, attributes, relations) are skipped. A
    surface that does not match the text at its offsets, or an unknown
    category label, raises AnnotationError naming the annotation; a file
    that is not UTF-8 raises DataError naming the file.
    """
    return _parse_annotations(ann_path, Path(txt_path).stem,
                              _read_utf8(txt_path))


def _parse_annotations(ann_path, doc_id, text) -> list[GoldAnnotation]:
    """load_annotations for a document whose text is already read."""
    annotations = []
    for line in _read_utf8(ann_path).split("\n"):
        if not line or not line.startswith("T"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise AnnotationError("expected 3 tab-separated columns",
                                  parts[0] if parts else None)
        ann_id, span_spec, surface = parts[0], parts[1], parts[2]
        pieces = span_spec.split()
        if len(pieces) != 3:
            raise AnnotationError(
                f"expected 'Category start end', got {span_spec!r}", ann_id)
        category, start_s, end_s = pieces
        if category not in CATEGORIES:
            raise AnnotationError(f"unknown category {category!r}", ann_id)
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise AnnotationError(
                f"non-integer offsets in {span_spec!r}", ann_id) from None
        if not (0 <= start < end <= len(text)):
            raise AnnotationError(
                f"offsets {start}..{end} outside document", ann_id)
        if text[start:end] != surface:
            raise AnnotationError(
                f"surface {surface!r} does not match text "
                f"{text[start:end]!r} at {start}..{end}", ann_id)
        annotations.append(GoldAnnotation(
            doc_id=doc_id, char_start=start, char_end=end,
            surface=surface, category=category))
    return annotations


def _read_utf8(path) -> str:
    """The text of a file, or DataError naming it when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _span(obj) -> tuple[int, int]:
    if isinstance(obj, tuple):
        return int(obj[0]), int(obj[1])
    return obj.char_start, obj.char_end


def _overlap(a, b) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def normalize_hashtag_spans(spans, text) -> list[tuple[int, int]]:
    """Widen any span inside a hashtag to cover the full hashtag token."""
    hashtags = [(m.start(), m.end()) for m in _HASHTAG_RE.finditer(text)]
    normalized = []
    for span in spans:
        start, end = _span(span)
        for h_start, h_end in hashtags:
            if start >= h_start and end <= h_end:
                start, end = h_start, h_end
                break
        normalized.append((start, end))
    return normalized


def match_spans(predicted, gold, mode="standard",
                partial_tp_credit=0.0) -> ScoreReport:
    """Score one document's predictions against its gold spans.

    Predictions and gold spans are matched one-to-one, greedily by
    maximal character overlap with ties going to the leftmost
    prediction. Exact inLoc matches earn a TP; partial inLoc matches
    cost 1/2 FP + 1/2 FN (plus partial_tp_credit TPs); unmatched
    predictions cost an FP unless they exactly match an outLoc/ambLoc
    span (ignored in standard mode, a full FP in lnex_strict mode);
    unmatched inLoc gold spans cost an FN each.
    """
    if mode not in MODES:
        raise ValueError(f"unknown eval mode: {mode!r}")
    pred_spans = [_span(p) for p in predicted]
    gold_list = list(gold)

    pairs = []
    for p_idx, p_span in enumerate(pred_spans):
        for g_idx, g in enumerate(gold_list):
            size = _overlap(p_span, (g.char_start, g.char_end))
            if size > 0:
                pairs.append((-size, p_span[0], p_span[1],
                              g.char_start, p_idx, g_idx))
    pairs.sort()

    pred_match: dict[int, int] = {}
    gold_match: dict[int, int] = {}
    for _, _, _, _, p_idx, g_idx in pairs:
        if p_idx not in pred_match and g_idx not in gold_match:
            pred_match[p_idx] = g_idx
            gold_match[g_idx] = p_idx

    tp = fp = fn = 0.0
    for p_idx, p_span in enumerate(pred_spans):
        g_idx = pred_match.get(p_idx)
        if g_idx is None:
            fp += 1.0
            continue
        g = gold_list[g_idx]
        exact = p_span == (g.char_start, g.char_end)
        if g.category == "inLoc":
            if exact:
                tp += 1.0
            else:
                tp += partial_tp_credit
                fp += 0.5
                fn += 0.5
        else:
            if exact:
                if mode == "lnex_strict":
                    fp += 1.0
            else:
                fp += 1.0
    for g_idx, g in enumerate(gold_list):
        if g.category == "inLoc" and g_idx not in gold_match:
            fn += 1.0

    return ScoreReport.from_counts(tp, fp, fn)


def aggregate(reports) -> ScoreReport:
    """Micro-average: sum raw counts, then recompute the metrics."""
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate zero reports")
    return ScoreReport.from_counts(
        sum(r.tp for r in reports),
        sum(r.fp for r in reports),
        sum(r.fn for r in reports),
    )


def format_table(rows: dict) -> str:
    """Render {label: ScoreReport} as an aligned plain-text table."""
    header = ("document", "tp", "fp", "fn", "precision", "recall", "f1")
    body = [
        (label, f"{r.tp:g}", f"{r.fp:g}", f"{r.fn:g}",
         f"{r.precision:.4f}", f"{r.recall:.4f}", f"{r.f1:.4f}")
        for label, r in rows.items()
    ]
    widths = [max(len(row[i]) for row in [header, *body])
              for i in range(len(header))]
    lines = []
    for row in [header, *body]:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
