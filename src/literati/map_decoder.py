"""Decode per-class probability maps into bounding-box detections.

The pipeline per class channel: softmax across channels gives a per-cell
class distribution; cells that dominate their Chebyshev-d window (ties to
the lowest row-major index) and clear the probability floor ``tau`` become
peaks; each peak grows an 8-connected region over cells within
[alpha * peak, peak]; the region's bounding rectangle becomes the
detection box, with the region centroid kept as metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .annotation_store import Box

MAP_SPACE = "map"


@dataclass(frozen=True)
class DecodeParams:
    d: int = 3        # Chebyshev neighborhood radius, in cells
    tau: float = 0.5  # probability floor for peaks
    alpha: float = 0.5  # region growth keeps cells >= alpha * peak

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"d must be an integer >= 1, got {self.d}")
        if not 0 <= self.tau < 1:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class PeakRegion:
    class_index: int
    members: frozenset[tuple[int, int]]  # (row, col) grid cells
    centroid: tuple[float, float]        # (row, col), mean of members
    peak_prob: float
    member_count: int
    peak: tuple[int, int]


@dataclass(frozen=True)
class Detection:
    class_index: int
    box: Box
    confidence: float
    centroid: tuple[float, float]


def validate_logit_map(logits: np.ndarray) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"logit map must be [K, H, W], got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("logit map needs at least 2 channels (background + class)")
    if not np.all(np.isfinite(arr)):
        k, r, c = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite logit at channel {k}, cell ({r}, {c})")
    return arr


def softmax_map(logits: np.ndarray) -> np.ndarray:
    """Per-cell softmax across class channels, max-subtracted for stability."""
    arr = validate_logit_map(logits)
    shifted = arr - arr.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# windowed argmax: for every cell, the row-major index of the best cell in
# its (2d+1) x (2d+1) Chebyshev window, "best" meaning highest value with
# ties going to the lowest index. Separable: a horizontal then a vertical
# pass over (value, index) pairs.

def _numpy_window_winner(p: np.ndarray, d: int) -> np.ndarray:
    H, W = p.shape
    sentinel = H * W  # never wins: paired with -inf value
    idx = np.arange(H * W, dtype=np.int64).reshape(H, W)
    L = 2 * d + 1

    pv = np.pad(p, ((0, 0), (d, d)), constant_values=-np.inf)
    pi = np.pad(idx, ((0, 0), (d, d)), constant_values=sentinel)
    wv = sliding_window_view(pv, L, axis=1)
    wi = sliding_window_view(pi, L, axis=1)
    bv = wv.max(axis=2)
    bi = np.where(wv == bv[:, :, None], wi, sentinel).min(axis=2)

    bvp = np.pad(bv, ((d, d), (0, 0)), constant_values=-np.inf)
    bip = np.pad(bi, ((d, d), (0, 0)), constant_values=sentinel)
    wv2 = sliding_window_view(bvp, L, axis=0)
    wi2 = sliding_window_view(bip, L, axis=0)
    bv2 = wv2.max(axis=2)
    return np.where(wv2 == bv2[:, :, None], wi2, sentinel).min(axis=2)


# ---------------------------------------------------------------------------
# region growing: seeds are processed in the given order; each unclaimed
# seed floods 8-connected unclaimed cells with alpha*peak <= p <= peak.
# A seed landing on an already-claimed cell is merged into that region.

def _numpy_assign_regions(p: np.ndarray, seeds: np.ndarray, alpha: float):
    claimed = np.full(p.shape, -1, dtype=np.int32)
    seed_region = np.empty(len(seeds), dtype=np.int32)
    eight = np.ones((3, 3), dtype=bool)
    next_id = 0
    for i, (r, c) in enumerate(seeds):
        if claimed[r, c] != -1:
            seed_region[i] = claimed[r, c]
            continue
        peak = p[r, c]
        mask = (claimed == -1) & (p >= alpha * peak) & (p <= peak)
        labels, _ = ndimage.label(mask, structure=eight)
        claimed[labels == labels[r, c]] = next_id
        seed_region[i] = next_id
        next_id += 1
    return claimed, seed_region


def maximal_filter_regions(
    prob_map: np.ndarray,
    class_index: int,
    params: DecodeParams,
) -> list[PeakRegion]:
    """Peak regions of one class channel.

    A cell is a peak when its probability is >= tau and no cell in its
    (2d+1) x (2d+1) window beats it (higher value, or equal value at a
    lower row-major index). Peaks are processed by descending probability
    (row-major on ties); each claims the connected component of unclaimed
    cells within [alpha * peak, peak] around it, and peaks landing inside
    an existing region merge into it.
    """
    if not 0 <= class_index < prob_map.shape[0]:
        raise ValueError(
            f"class index {class_index} out of range for {prob_map.shape[0]} channels"
        )
    p = np.ascontiguousarray(prob_map[class_index], dtype=np.float64)
    H, W = p.shape
    winner = _numpy_window_winner(p, int(params.d))
    own = np.arange(H * W, dtype=np.int64).reshape(H, W)
    rs, cs = np.nonzero((winner == own) & (p >= params.tau))
    seeds = sorted(
        zip(rs.tolist(), cs.tolist()),
        key=lambda rc: (-p[rc[0], rc[1]], rc[0] * W + rc[1]),
    )
    if not seeds:
        return []
    seed_arr = np.asarray(seeds, dtype=np.int64)
    claimed, seed_region = _numpy_assign_regions(p, seed_arr, float(params.alpha))

    regions: list[PeakRegion] = []
    for s_idx, (r, c) in enumerate(seeds):
        rid = int(seed_region[s_idx])
        if rid != len(regions):
            continue  # merged into an earlier region
        mr, mc = np.nonzero(claimed == rid)
        members = frozenset(zip(mr.tolist(), mc.tolist()))
        centroid = (int(mr.sum()) / mr.size, int(mc.sum()) / mc.size)
        regions.append(PeakRegion(
            class_index=class_index,
            members=members,
            centroid=centroid,
            peak_prob=float(p[r, c]),
            member_count=int(mr.size),
            peak=(r, c),
        ))
    return regions


def region_to_detection(region: PeakRegion) -> Detection:
    """Axis-aligned bounding rectangle of the region's member cells."""
    rows = [r for r, _ in region.members]
    cols = [c for _, c in region.members]
    box = Box(
        x=float(min(cols)),
        y=float(min(rows)),
        w=float(max(cols) - min(cols) + 1),
        h=float(max(rows) - min(rows) + 1),
        space=MAP_SPACE,
    )
    return Detection(
        class_index=region.class_index,
        box=box,
        confidence=region.peak_prob,
        centroid=region.centroid,
    )


def decode(logits: np.ndarray, params: DecodeParams) -> list[Detection]:
    """Full decode of a logit map: softmax, per-class regions, boxes.

    Channel 0 is the background and yields no detections.

    Detections come back sorted by confidence descending, ties broken by
    (class index, row-major centroid).
    """
    probs = softmax_map(logits)
    detections = []
    for k in range(1, probs.shape[0]):
        for region in maximal_filter_regions(probs, k, params):
            detections.append(region_to_detection(region))
    detections.sort(key=lambda det: (-det.confidence, det.class_index, det.centroid))
    return detections


# ---------------------------------------------------------------------------
# map files: one .npy (float32, C-order, [K, H, W]) plus a .json sidecar


@dataclass(frozen=True)
class MapMeta:
    image_id: str
    classes: tuple[str, ...]
    space: str = MAP_SPACE
    map_to_net_scale: float = 1.0

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "classes": list(self.classes),
            "space": self.space,
            "map_to_net_scale": self.map_to_net_scale,
        }


@dataclass(frozen=True)
class LoadedMap:
    meta: MapMeta
    logits: np.ndarray  # float64 [K, H, W]


def save_map(directory, meta: MapMeta, logits: np.ndarray) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arr = np.ascontiguousarray(validate_logit_map(logits), dtype=np.float32)
    npy_path = directory / f"{meta.image_id}.npy"
    np.save(npy_path, arr)
    sidecar = directory / f"{meta.image_id}.json"
    sidecar.write_text(json.dumps(meta.to_dict(), indent=2) + "\n", encoding="utf-8")
    return npy_path


def load_map(npy_path) -> LoadedMap:
    npy_path = Path(npy_path)
    sidecar = npy_path.with_suffix(".json")
    if not sidecar.exists():
        raise ValueError(f"map {npy_path.name} has no JSON sidecar")
    meta_doc = json.loads(sidecar.read_text(encoding="utf-8"))
    try:
        meta = MapMeta(
            image_id=meta_doc["image_id"],
            classes=tuple(meta_doc["classes"]),
            space=meta_doc.get("space", MAP_SPACE),
            map_to_net_scale=float(meta_doc.get("map_to_net_scale", 1.0)),
        )
    except KeyError as e:
        raise ValueError(f"{sidecar}: missing field {e}") from e
    arr = np.load(npy_path, allow_pickle=False)
    if arr.dtype != np.float32:
        raise ValueError(f"map {npy_path.name}: expected float32, got {arr.dtype}")
    arr = validate_logit_map(arr)
    if arr.shape[0] != len(meta.classes):
        raise ValueError(
            f"map {npy_path.name}: {arr.shape[0]} channels but "
            f"{len(meta.classes)} class names in sidecar"
        )
    return LoadedMap(meta=meta, logits=arr)


def load_maps_dir(directory) -> list[LoadedMap]:
    directory = Path(directory)
    paths = sorted(directory.glob("*.npy"))
    if not paths:
        raise ValueError(f"no .npy maps found in {directory}")
    return [load_map(p) for p in paths]


def detection_to_net416(det: Detection, meta: MapMeta) -> Detection:
    s = meta.map_to_net_scale
    box = Box(det.box.x * s, det.box.y * s, det.box.w * s, det.box.h * s, "net416")
    return Detection(det.class_index, box, det.confidence, det.centroid)


def detections_to_json(per_image: dict[str, list[Detection]], classes_by_image: dict[str, tuple[str, ...]]) -> str:
    entries = []
    for image_id in sorted(per_image):
        for det in per_image[image_id]:
            classes = classes_by_image[image_id]
            entries.append({
                "image_id": image_id,
                "class": classes[det.class_index],
                "box": det.box.as_list(),
                "space": det.box.space,
                "confidence": det.confidence,
                "centroid": [det.centroid[0], det.centroid[1]],
            })
    return json.dumps(entries, indent=2)


def detections_from_json(path) -> dict[str, list[Detection]]:
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    per_image: dict[str, list[Detection]] = {}
    for i, e in enumerate(entries):
        try:
            box = Box(*(float(v) for v in e["box"]), space=e["space"])
            det = Detection(
                class_index=0,  # class carried by name in the file
                box=box,
                confidence=float(e["confidence"]),
                centroid=(float(e["centroid"][0]), float(e["centroid"][1])),
            )
            image_id = e["image_id"]
        except KeyError as err:
            raise ValueError(f"{path}: entry {i}: missing field {err}") from err
        per_image.setdefault(image_id, []).append(det)
    for dets in per_image.values():
        dets.sort(key=lambda det: (-det.confidence, det.centroid))
    return per_image
