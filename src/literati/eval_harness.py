"""IOU matching of detections against ground truth and accuracy tables.

Two matching protocols are provided. ``top1`` scores an image as a hit
when the single highest-confidence detection overlaps any ground-truth box
at the threshold; ``greedy_multi`` lets detections claim unmatched boxes
in confidence order and additionally records per-box recall for
multi-instance annotations. Tables report accuracy at the five fixed IOU
thresholds. ``eval``, the ``tune`` objective and ``demo`` all score through
``ground_truth`` -> ``match_image`` -> ``accuracy``.
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
    excluded: bool
    outcomes: dict[float, ThresholdOutcome] = field(default_factory=dict)

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

    ``dets`` must be sorted by confidence descending. Images with no
    ground truth are flagged excluded and skipped by accuracy tables.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MATCH_MODES}")
    thresholds = (threshold,) if isinstance(threshold, (int, float)) else tuple(threshold)
    for t in thresholds:
        check_iou_threshold(t)
    if not gts:
        return MatchResult(image_id=image_id, n_gts=0, excluded=True)

    boxes = [d.box for d in dets]
    ious = [[iou(b, g) for g in gts] for b in boxes]

    outcomes = {}
    for t in thresholds:
        if mode == "top1":
            pairs = ()
            hit = False
            if boxes:
                best_gt = max(range(len(gts)), key=lambda j: ious[0][j])
                if ious[0][best_gt] >= t:
                    hit = True
                    pairs = ((0, best_gt, ious[0][best_gt]),)
            recall = len({g for _, g, _ in pairs}) / len(gts)
        else:
            taken = set()
            pair_list = []
            for i in range(len(boxes)):
                best_gt, best_iou = -1, 0.0
                for j in range(len(gts)):
                    if j in taken:
                        continue
                    if ious[i][j] >= t and ious[i][j] > best_iou:
                        best_gt, best_iou = j, ious[i][j]
                if best_gt >= 0:
                    taken.add(best_gt)
                    pair_list.append((i, best_gt, best_iou))
            pairs = tuple(pair_list)
            hit = bool(pairs)
            recall = len(taken) / len(gts)
        outcomes[float(t)] = ThresholdOutcome(hit=hit, recall=recall, pairs=pairs)
    return MatchResult(image_id=image_id, n_gts=len(gts), excluded=False, outcomes=outcomes)


def match_images(per_image, gts, threshold, mode: str = "top1") -> list[MatchResult]:
    """``match_image`` for every image of ``gts``, in image-id order; an
    image missing from ``per_image`` has no detections."""
    return [match_image(per_image.get(image_id, []), boxes, threshold, mode=mode,
                        image_id=image_id)
            for image_id, boxes in sorted(gts.items())]


@dataclass
class EvalTable:
    rows: dict[str, tuple[float, ...]]
    n_images: int | None = None
    thresholds: tuple[float, ...] = IOU_THRESHOLDS

    def __post_init__(self):
        if tuple(self.thresholds) != IOU_THRESHOLDS:
            raise ValueError(f"thresholds must be {IOU_THRESHOLDS}")
        for method, accs in self.rows.items():
            if len(accs) != len(self.thresholds):
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


def accuracy_table(results, thresholds=IOU_THRESHOLDS, method: str = "detections") -> EvalTable:
    """Aggregate per-image match results into one table row of ``accuracy``
    at each threshold."""
    accs = tuple(accuracy(results, t) for t in thresholds)
    n_images = sum(1 for r in results if not r.excluded)
    return EvalTable(rows={method: accs}, n_images=n_images, thresholds=tuple(thresholds))


def micro_recall(results, threshold) -> float:
    """Matched ground-truth boxes over all ground-truth boxes."""
    included = [r for r in results if not r.excluded]
    total = sum(r.n_gts for r in included)
    if total == 0:
        raise ValueError("no ground-truth boxes")
    matched = sum(len({g for _, g, _ in r.outcomes[float(threshold)].pairs}) for r in included)
    return matched / total


def render_table(table: EvalTable, format: str = "csv") -> str:
    """Render a table, 3-decimal fixed point, deterministic bytes."""
    header = ["IOU"] + [f"{t:g}" for t in table.thresholds]
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
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {name: tuple(accs) for name, accs in doc["rows"]}
    return EvalTable(
        rows=rows,
        n_images=doc.get("n_images"),
        thresholds=tuple(doc.get("thresholds", IOU_THRESHOLDS)),
    )


def diagnostics_json(results) -> str:
    doc = {
        "excluded_images": sorted(r.image_id for r in results if r.excluded),
        "images": [r.to_dict() for r in results if not r.excluded],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
