"""IOU matching of detections against ground truth and accuracy tables.

One greedy matcher serves both protocols: detections, in confidence order,
each claim the unclaimed ground-truth box of highest IOU at or above the
threshold. ``greedy_multi`` runs it over every detection and records
per-box recall for multi-instance annotations; ``top1`` runs it over the
first detection alone, so an image is a hit when the highest-confidence
detection overlaps any ground-truth box at the threshold. Tables report
accuracy at the five fixed IOU thresholds. ``eval``, the ``tune``
objective and ``demo`` all score through ``ground_truth`` ->
``match_image`` -> ``accuracy``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import annotation_store as store
from .annotation_store import Box

IOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)
MATCH_MODES = ("top1", "greedy_multi")


class SpaceMismatchError(ValueError):
    pass


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes in the same coordinate space."""
    if a.space != b.space:
        raise SpaceMismatchError(
            f"cannot compare boxes across spaces: {a.space!r} vs {b.space!r}"
        )
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix
    ih = iy2 - iy
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


@dataclass(frozen=True)
class ThresholdOutcome:
    hit: bool
    recall: float
    pairs: tuple[tuple[int, int, float], ...]  # (detection idx, gt idx, iou)


@dataclass(frozen=True)
class MatchResult:
    image_id: str
    n_gts: int
    outcomes: dict[float, ThresholdOutcome] = field(default_factory=dict)

    @property
    def excluded(self) -> bool:
        """No ground truth: accuracy tables leave the image out."""
        return self.n_gts == 0

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "n_gts": self.n_gts,
            "excluded": self.excluded,
            "outcomes": {
                f"{t:g}": {
                    "hit": o.hit,
                    "recall": o.recall,
                    "pairs": [list(p) for p in o.pairs],
                }
                for t, o in sorted(self.outcomes.items())
            },
        }


def ground_truth(source, space: str) -> dict[str, list[Box]]:
    """Boxes of every image of a COCO export, by image id, in ``native`` or
    ``net416`` space (each axis rescaled on its own); unannotated images get []."""
    if space not in ("native", "net416"):
        raise SpaceMismatchError(f"cannot score boxes in {space!r} space against "
                                 f"ground truth, which is native or net416")
    # through the module, so that wrappers set on it see every call
    images, annotations = store.load_coco(source)
    dims = {im.image_id: (im.width, im.height) for im in images}
    gts: dict[str, list[Box]] = {im.image_id: [] for im in images}
    for ann in annotations:
        for box in ann.boxes:
            if space == "net416":
                box = store.rescale_box(box, dims[ann.image_id],
                                        (store.NET_SIZE, store.NET_SIZE), to_space="net416")
            gts[ann.image_id].append(box)
    return gts


def check_iou_threshold(threshold: float) -> None:
    """Refuse an IOU threshold outside (0, 1], NaN included."""
    if not 0 < threshold <= 1:
        raise ValueError(f"IOU threshold must be in (0, 1], got {threshold!r}")


def match_image(dets, gts, threshold, mode: str = "top1", image_id: str = "") -> MatchResult:
    """Match detections against ground-truth boxes at one or more thresholds.

    ``dets`` must be sorted by confidence descending. Each detection in
    turn claims the unclaimed box of highest IOU at or above the threshold,
    the first such box on ties. ``greedy_multi`` matches every detection;
    ``top1`` matches ``dets[0]`` alone, so it hits when the first detection's
    best IOU reaches the threshold. Images with no ground truth are flagged
    excluded and skipped by accuracy tables.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MATCH_MODES}")
    thresholds = (threshold,) if isinstance(threshold, (int, float)) else tuple(threshold)
    for t in thresholds:
        check_iou_threshold(t)
    if not gts:
        return MatchResult(image_id=image_id, n_gts=0)

    matched = dets[:1] if mode == "top1" else dets
    ious = [[iou(d.box, g) for g in gts] for d in matched]

    outcomes = {}
    for t in thresholds:
        taken = set()
        pairs = []
        for i, row in enumerate(ious):
            best_gt, best_iou = -1, 0.0
            for j, v in enumerate(row):
                if v >= t and v > best_iou and j not in taken:
                    best_gt, best_iou = j, v
            if best_gt >= 0:
                taken.add(best_gt)
                pairs.append((i, best_gt, best_iou))
        outcomes[float(t)] = ThresholdOutcome(hit=bool(pairs), recall=len(pairs) / len(gts),
                                              pairs=tuple(pairs))
    return MatchResult(image_id=image_id, n_gts=len(gts), outcomes=outcomes)


def match_images(per_image, gts, threshold, mode: str = "top1") -> list[MatchResult]:
    """``match_image`` for every image of ``gts``, in image-id order; an
    image missing from ``per_image`` has no detections."""
    return [match_image(per_image.get(image_id, []), boxes, threshold, mode=mode,
                        image_id=image_id)
            for image_id, boxes in sorted(gts.items())]


@dataclass
class EvalTable:
    """Accuracy rows at ``IOU_THRESHOLDS``, by method."""
    rows: dict[str, tuple[float, ...]]

    def __post_init__(self):
        for method, accs in self.rows.items():
            if len(accs) != len(IOU_THRESHOLDS):
                raise ValueError(f"row {method!r} has {len(accs)} values")
            if any(a < 0 or a > 1 for a in accs):
                raise ValueError(f"row {method!r} has accuracy outside [0, 1]")


def accuracy(results, threshold) -> float:
    """Images hit at ``threshold`` over images evaluated; excluded images
    do not enter the denominator."""
    included = [r for r in results if not r.excluded]
    if not included:
        raise ValueError("no images with ground truth to evaluate")
    return sum(1 for r in included if r.outcomes[float(threshold)].hit) / len(included)


def accuracy_table(results, method: str = "detections") -> EvalTable:
    """Aggregate per-image match results into one table row of ``accuracy``
    at each of ``IOU_THRESHOLDS``."""
    return EvalTable(rows={method: tuple(accuracy(results, t) for t in IOU_THRESHOLDS)})


def micro_recall(results, threshold) -> float:
    """Matched ground-truth boxes over all ground-truth boxes."""
    included = [r for r in results if not r.excluded]
    total = sum(r.n_gts for r in included)
    if total == 0:
        raise ValueError("no ground-truth boxes")
    # the matcher claims each box at most once
    matched = sum(len(r.outcomes[float(threshold)].pairs) for r in included)
    return matched / total


def render_table(table: EvalTable, format: str = "csv") -> str:
    """Render a table, 3-decimal fixed point, deterministic bytes."""
    header = ["IOU"] + [f"{t:g}" for t in IOU_THRESHOLDS]
    body = [[method] + [f"{a:.3f}" for a in accs] for method, accs in table.rows.items()]
    if format == "csv":
        lines = [",".join(header)] + [",".join(row) for row in body]
    elif format == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("| " + " | ".join("---" for _ in header) + " |")
        lines.extend("| " + " | ".join(row) + " |" for row in body)
    else:
        raise ValueError(f"unknown format {format!r}")
    return "\n".join(lines) + "\n"


def load_table_fixture(path) -> EvalTable:
    """A published accuracy table; it must be given at ``IOU_THRESHOLDS``."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    thresholds = tuple(doc.get("thresholds", IOU_THRESHOLDS))
    if thresholds != IOU_THRESHOLDS:
        raise ValueError(f"{path}: thresholds must be {list(IOU_THRESHOLDS)}, "
                         f"not {list(thresholds)}")
    return EvalTable(rows={name: tuple(accs) for name, accs in doc["rows"]})


def diagnostics_json(results) -> str:
    doc = {
        "excluded_images": sorted(r.image_id for r in results if r.excluded),
        "images": [r.to_dict() for r in results if not r.excluded],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
