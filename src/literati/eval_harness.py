"""IOU matching of detections against ground truth and accuracy tables.

One greedy matcher serves both protocols: detections, in confidence order,
each claim the unclaimed ground-truth box of highest IOU at or above the
threshold. ``greedy_multi`` runs it over every detection and records
per-box recall for multi-instance annotations; ``top1`` runs it over the
first detection alone, so an image is a hit when the highest-confidence
detection overlaps any ground-truth box at the threshold. Tables report
accuracy at the five fixed IOU thresholds. ``eval`` and ``demo`` score a
detections file through ``match_detections_file`` (``demo`` the one it has
just written), and run ``ground_truth`` -> ``match_image`` -> ``accuracy``.
The ``tune`` objective scores decoded maps with ``match_image`` over the
images ``accuracy`` counts; in ``top1`` mode, a map whose first box is
known only to lie between two boxes is scored by ``hit_between`` where
the ``iou_bounds`` of the two decide it.
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


def _check_space(a: Box, *others: Box) -> None:
    for b in others:
        if a.space != b.space:
            raise SpaceMismatchError(
                f"cannot compare boxes across spaces: {a.space!r} vs {b.space!r}"
            )


def _intersection(a: Box, b: Box) -> float:
    """Area of the overlap of two boxes, 0.0 when they do not overlap."""
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    return iw * ih if iw > 0 and ih > 0 else 0.0


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes in the same coordinate space."""
    _check_space(a, b)
    inter = _intersection(a, b)
    return inter / (a.w * a.h + b.w * b.h - inter) if inter else 0.0


def iou_bounds(inner: Box, outer: Box, gt: Box) -> tuple[float, float]:
    """(low, high) bounds on ``iou(box, gt)`` over every box that holds
    ``inner`` and lies in ``outer``.

    Such a box meets ``gt`` in at least ``inner`` meets it and at most
    ``outer`` does, and its union with ``gt`` lies between theirs, so its
    IoU is at least |inner & gt| / |outer | gt| and at most
    |outer & gt| / |inner | gt|. Each bound is computed with the operations
    of ``iou``, so with ``inner`` and ``outer`` equal both are its value.
    """
    _check_space(gt, inner, outer)
    gt_area = gt.w * gt.h
    low, high = _intersection(inner, gt), _intersection(outer, gt)
    return (low / (outer.w * outer.h + gt_area - high),
            high / (inner.w * inner.h + gt_area - low))


def _margin(inner: Box, outer: Box, gt: Box) -> float:
    """Twice the most by which rounding can move an IoU or bound that
    ``hit_between`` compares, 256u * (R / m + 1), as its docstring derives."""
    reach = max(abs(outer.x), abs(outer.y), abs(outer.x + outer.w), abs(outer.y + outer.h),
                abs(gt.x), abs(gt.y), abs(gt.x + gt.w), abs(gt.y + gt.h))
    return 2.0 ** -45 * (reach / min(inner.w, inner.h, gt.w, gt.h) + 1)


def hit_between(inner: Box, outer: Box, gts, threshold: float) -> bool | None:
    """Whether a top-1 match of any one box between ``inner`` and ``outer``
    hits one of ``gts`` at ``threshold``: True when every such box does,
    False when none does, None when the bounds leave it open.

    The boxes are taken to be rescaled from whole cells, as
    ``detection_to_net416`` rescales a map box: each edge that ``iou``
    reads, x, y, x + w and y + h, is then within e = 3u * R of an exact
    edge, u = 2**-53 and R the largest edge magnitude of ``outer`` and the
    ground-truth box, and the exact boxes nest. Moving one edge of a box by
    e moves its IoU with another by at most 2e over the box's extent along
    the move, and no extent is shorter than m, the least side of ``inner``
    and the ground-truth box; ``iou`` reads each area as w * h, not from the
    edges, which moves it by as much again; and the float operations of
    ``iou`` and ``iou_bounds`` move it by at most 13u. So each IoU and bound
    is computed within eta = 16e / m + 16u of its exact value, and a bound
    that clears the threshold by 2 * eta decides every box between. The
    margin, 256u * (R / m + 1), exceeds 2 * eta = 96u * R / m + 32u with
    room for second-order terms.
    """
    undecided = False
    for gt in gts:
        low, high = iou_bounds(inner, outer, gt)
        margin = _margin(inner, outer, gt)
        if low >= threshold + margin:
            return True
        undecided = undecided or high >= threshold - margin
    return None if undecided else False


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


def match_detections_file(path, coco, mode: str) -> list[MatchResult]:
    """``match_images`` of the detections file at ``path`` against the ground
    truth of ``coco`` (a COCO path or document) at each of ``IOU_THRESHOLDS``,
    in the detections' coordinate space (``native`` when there are none)."""
    from .detections import detections_from_json  # loaded only when a file is scored

    per_image = detections_from_json(path)
    spaces = {d.box.space for dets in per_image.values() for d in dets}
    if len(spaces) > 1:
        raise ValueError(f"detections mix coordinate spaces: {sorted(spaces)}")
    gts = ground_truth(coco, spaces.pop() if spaces else "native")
    return match_images(per_image, gts, IOU_THRESHOLDS, mode)


def check_row_label(method: str) -> None:
    """Refuse a row label that would split a csv or markdown table."""
    if any(c in method for c in ",|\r\n"):
        raise ValueError(f"row label {method!r} holds ',', '|' or a line break")


@dataclass
class EvalTable:
    """Accuracy rows at ``IOU_THRESHOLDS``, by method."""
    rows: dict[str, tuple[float, ...]]

    def __post_init__(self):
        for method, accs in self.rows.items():
            check_row_label(method)
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
    doc = store.read_json(path, dict)
    if "rows" not in doc:
        raise ValueError(f"{path}: a table needs 'rows'")
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
