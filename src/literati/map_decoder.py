"""Decode per-class probability maps into bounding-box detections.

The pipeline per class channel: softmax across channels gives a per-cell
class distribution; cells that dominate their Chebyshev-d window (ties to
the lowest row-major index) and clear the probability floor ``tau`` become
peaks; each peak grows an 8-connected region over unclaimed cells within
[alpha * peak, peak]; the region's bounding rectangle becomes the
detection box, with the region centroid kept as metadata.

Peaks come from separable maximum filters over the whole channel, in
O(H * W * d). Each region is labelled on a crop around its peak that
widens only while the region reaches a crop edge inside the map, so
region growth costs about the size of the regions found, not
peaks x H x W. Regions are kept as a bounding box plus a boolean mask of
that box, never as per-cell Python objects.

Work that no parameter touches is done once per map: a PreparedMap
validates and softmaxes the logits once and keeps the class channels.
Each class yields its regions lazily, in decode's order
(``iter_regions``). Its first peak is its first row-major maximum at
every d, grown with nothing claimed, so the first region needs only the
channel's memoised maximum. The window winners of a d are memoised per
class, sorted by descending probability with no tau cut, and computed
only when a caller reads past the first region; the peaks for a tau are a
prefix of that order, found by one binary search. ``top_detection``
reads only decode's first detection. It comes from the first class whose
maximum is the highest, and unless that maximum ties within the class it
is the memoised first region, read with no window winners.

The first region itself is memoised by threshold. It is the component of
the maximum's cell in {p >= alpha * max}, and as that threshold falls
these components nest, so each one stays the same over an interval
(below, least]: ``least`` is its least cell, and ``below`` the highest
cell under the threshold in its bounding box widened by one cell, which
holds every 8-neighbour of the region. A threshold in that interval keeps
every cell of the region and still leaves out every neighbour, so it
gives the same component. Each channel keeps one (least, below, region)
entry per distinct first region asked for, and a threshold in an entry's
interval grows nothing. Regions are shared between calls, so their masks
are read-only.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np
from scipy import ndimage

from .annotation_store import NET_SIZE, Box, is_finite_number, read_json, rescale_box

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
    bbox: tuple[int, int, int, int]  # (row0, col0, row1, col1), ends exclusive
    mask: np.ndarray = field(compare=False, repr=False)  # bool, bbox-sized
    centroid: tuple[float, float]    # (row, col), mean of members
    peak_prob: float
    member_count: int
    peak: tuple[int, int]

    @property
    def members(self) -> frozenset[tuple[int, int]]:
        """The region's (row, col) grid cells."""
        rr, cc = np.nonzero(self.mask)
        return frozenset(zip((rr + self.bbox[0]).tolist(), (cc + self.bbox[1]).tolist()))

    def __eq__(self, other):
        if not isinstance(other, PeakRegion):
            return NotImplemented
        return (self.class_index, self.bbox, self.centroid, self.peak_prob, self.peak) == (
            other.class_index, other.bbox, other.centroid, other.peak_prob, other.peak
        ) and np.array_equal(self.mask, other.mask)


@dataclass(frozen=True)
class Detection:
    class_index: int
    box: Box
    confidence: float
    centroid: tuple[float, float]


def validate_logit_map(logits: np.ndarray) -> np.ndarray:
    """``logits`` as float64 [K, H, W]: K >= 2, at least one cell, all finite."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"logit map must be [K, H, W], got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("logit map needs at least 2 channels (background + class)")
    if arr.size == 0:
        raise ValueError(f"no cells (shape {arr.shape})")
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
# peaks: a cell wins its (2d+1) x (2d+1) window when it equals the window's
# maximum and no cell before it in row-major order holds that value. The
# window cells before (r, c) are the d rows above it, full window width,
# and the d cells to its left, so both maxima come from separable 1-D
# filters plus 2d shifted maxima: O(H * W * d), with no per-cell Python
# even on plateaus. The winners are sorted once by descending probability,
# so the peaks for any tau are the prefix with p >= tau.

def _window_winners(p: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, -p) of the window winners by descending p, row-major on ties."""
    L = 2 * d + 1
    row_max = ndimage.maximum_filter1d(p, L, axis=1, mode="constant", cval=-np.inf)
    window_max = ndimage.maximum_filter1d(row_max, L, axis=0, mode="constant", cval=-np.inf)
    before = np.full_like(p, -np.inf)
    for k in range(1, d + 1):
        np.maximum(before[k:], row_max[:-k], out=before[k:])
        np.maximum(before[:, k:], p[:, :-k], out=before[:, k:])
    rs, cs = np.nonzero((p == window_max) & (p > before))
    neg = -p[rs, cs]
    order = np.argsort(neg, kind="stable")  # nonzero is row-major
    return rs[order], cs[order], neg[order]


class _Channel:
    """One class channel's probabilities, with what decoding reads of it
    memoised: its maximum, its first region per threshold interval, and its
    window winners per d."""

    def __init__(self, p: np.ndarray):
        self.p = p
        self._top: tuple[float, tuple[int, int], bool] | None = None
        self._winners: dict[int, tuple] = {}
        self._first: list[tuple[float, float, PeakRegion]] = []  # (least, below, region)

    def top(self) -> tuple[float, tuple[int, int], bool]:
        """(maximum, its first cell in row-major order, whether no other cell
        holds it). That cell wins its window at every d, so it is the first
        peak whenever the maximum is >= tau."""
        if self._top is None:
            r, c = divmod(int(np.argmax(self.p)), self.p.shape[1])
            peak = self.p[r, c]
            self._top = (float(peak), (r, c), int(np.count_nonzero(self.p == peak)) == 1)
        return self._top

    def peaks(self, d: int, tau: float) -> list[tuple[int, int]]:
        """Peak cells by descending probability, row-major on ties."""
        if d not in self._winners:
            self._winners[d] = _window_winners(self.p, d)
        rs, cs, neg = self._winners[d]
        n = int(np.searchsorted(neg, -tau, side="right"))  # -p <= -tau
        return list(zip(rs[:n].tolist(), cs[:n].tolist()))

    def first_region(self, class_index: int, alpha: float) -> PeakRegion:
        """The region of the maximum's first cell, grown with nothing claimed.

        Entries are sorted by ``least`` and their intervals (below, least]
        are disjoint, so only the first entry with least >= alpha * max can
        hold the threshold.
        """
        _, (r, c), _ = self.top()
        lo = alpha * self.p[r, c]  # the threshold _grow compares with
        i = bisect_left(self._first, lo, key=itemgetter(0))
        if i < len(self._first) and self._first[i][1] < lo:
            return self._first[i][2]
        region = _region(self.p, None, class_index, r, c, alpha)
        row0, col0, row1, col1 = region.bbox
        least = float(self.p[row0:row1, col0:col1][region.mask].min())
        # the box one cell wider holds every 8-neighbour of the region
        near = self.p[max(0, row0 - 1):row1 + 1, max(0, col0 - 1):col1 + 1]
        left_out = near[near < lo]
        below = float(left_out.max()) if left_out.size else -np.inf
        entry = (least, below, region)
        if i < len(self._first) and self._first[i][0] == least:
            # nested regions differ in their least cell, so this is the same
            # region, now known to hold down to a lower threshold
            self._first[i] = entry
        else:
            self._first.insert(i, entry)
        return region


class PreparedMap:
    """A logit map validated and softmaxed once, to decode under many params.

    Keeps the class channels 1..K-1 of the softmax (channel 0, the
    background, is never decoded), each with its memoised maximum and
    window winners. ``shape`` is the (K, H, W) of the logit map.
    """

    def __init__(self, logits: np.ndarray):
        probs = softmax_map(logits)
        self.shape = probs.shape
        class_probs = probs[1:].copy()
        class_probs.flags.writeable = False  # the memos depend on it
        self._channels = [_Channel(p) for p in class_probs]

    def _class(self, class_index: int) -> _Channel:
        if not 1 <= class_index < self.shape[0]:
            raise ValueError(
                f"class index {class_index} out of range for classes 1..{self.shape[0] - 1}"
            )
        return self._channels[class_index - 1]

    def channel(self, class_index: int) -> np.ndarray:
        """Read-only probabilities of class channel ``class_index`` (1..K-1)."""
        return self._class(class_index).p


# ---------------------------------------------------------------------------
# region growth: each unclaimed peak labels the 8-connected components of
# unclaimed cells within [alpha * peak, peak] on a crop around itself. An
# 8-connected component that touches no crop edge lying inside the map has
# no neighbour outside the crop, so it is the whole region; for each inner
# edge it does touch, the crop's reach past the peak on that side doubles
# and the crop is labelled again. The last crop reaches at most twice as
# far as the region on each side (or _GROW_RADIUS), and each side doubles
# at most log2(map side / _GROW_RADIUS) times, so the cost follows region
# size, not peaks x H x W. Peaks landing on claimed cells cost one lookup.

_GROW_RADIUS = 16  # half-width of the first crop, in cells
_EIGHT = np.ones((3, 3), dtype=bool)


def _grow(p: np.ndarray, claimed: np.ndarray | None, r: int, c: int, alpha: float):
    """Region of the peak at (r, c): (row0, col0, mask) of its crop.
    ``claimed`` is None when no cell is claimed."""
    H, W = p.shape
    peak = p[r, c]
    lo = alpha * peak
    up = down = left = right = _GROW_RADIUS  # crop reach on each side of (r, c)
    while True:
        r0, r1 = max(0, r - up), min(H, r + down + 1)
        c0, c1 = max(0, c - left), min(W, c + right + 1)
        crop = p[r0:r1, c0:c1]
        mask = (crop >= lo) & (crop <= peak)
        if claimed is not None:
            mask &= ~claimed[r0:r1, c0:c1]
        labels, _ = ndimage.label(mask, structure=_EIGHT)
        region = labels == labels[r - r0, c - c0]
        grown = False
        if r0 > 0 and region[0].any():
            up, grown = 2 * up, True
        if r1 < H and region[-1].any():
            down, grown = 2 * down, True
        if c0 > 0 and region[:, 0].any():
            left, grown = 2 * left, True
        if c1 < W and region[:, -1].any():
            right, grown = 2 * right, True
        if not grown:
            return r0, c0, region


def _region(p: np.ndarray, claimed: np.ndarray | None, class_index: int, r: int, c: int,
            alpha: float) -> PeakRegion:
    """Grow the peak at (r, c) over the unclaimed cells."""
    r0, c0, region = _grow(p, claimed, r, c, alpha)
    rr, cc = np.nonzero(region)
    n = rr.size
    top, left = int(rr.min()), int(cc.min())
    bottom, right = int(rr.max()) + 1, int(cc.max()) + 1
    mask = region[top:bottom, left:right].copy()
    mask.flags.writeable = False  # a memoised region is shared between calls
    return PeakRegion(
        class_index=class_index,
        bbox=(r0 + top, c0 + left, r0 + bottom, c0 + right),
        mask=mask,
        centroid=((int(rr.sum()) + r0 * n) / n, (int(cc.sum()) + c0 * n) / n),
        peak_prob=float(p[r, c]),
        member_count=n,
        peak=(r, c),
    )


def _claim(claimed: np.ndarray, region: PeakRegion) -> None:
    row0, col0, row1, col1 = region.bbox
    claimed[row0:row1, col0:col1] |= region.mask


def _iter_regions(channel: _Channel, class_index: int, d: int, tau: float,
                  alpha: float) -> Iterator[PeakRegion]:
    """The channel's regions in decode's order, each grown as it is read.

    The first is the channel's memoised first region; the window winners
    of d are computed, and cells claimed, only when a caller reads past it.
    """
    peak, _, _ = channel.top()
    if peak < tau:
        return
    first = channel.first_region(class_index, alpha)
    yield first
    claimed = np.zeros(channel.p.shape, dtype=bool)
    _claim(claimed, first)
    for r, c in channel.peaks(d, tau)[1:]:  # the first peak is the maximum's cell
        if not claimed[r, c]:  # else merged into an earlier region
            region = _region(channel.p, claimed, class_index, r, c, alpha)
            _claim(claimed, region)
            yield region


def iter_regions(prepared: PreparedMap, class_index: int,
                 params: DecodeParams) -> Iterator[PeakRegion]:
    """``maximal_filter_regions`` of a PreparedMap as a lazy stream: each
    region is grown only when it is read."""
    return _iter_regions(prepared._class(class_index), class_index, int(params.d),
                         params.tau, float(params.alpha))


def maximal_filter_regions(
    prob_map: np.ndarray | PreparedMap,
    class_index: int,
    params: DecodeParams,
) -> list[PeakRegion]:
    """Peak regions of one class channel.

    ``prob_map`` is a PreparedMap, whose memoised maximum and peaks are
    read, or a [K, H, W] array of probabilities.

    A cell is a peak when its probability is >= tau and no cell in its
    (2d+1) x (2d+1) window beats it (higher value, or equal value at a
    lower row-major index). Peaks are processed by descending probability
    (row-major on ties); each claims the connected component of unclaimed
    cells within [alpha * peak, peak] around it, and peaks landing inside
    an existing region merge into it.
    """
    if isinstance(prob_map, PreparedMap):
        channel = prob_map._class(class_index)
    else:
        if not 0 <= class_index < prob_map.shape[0]:
            raise ValueError(
                f"class index {class_index} out of range for {prob_map.shape[0]} channels"
            )
        channel = _Channel(np.ascontiguousarray(prob_map[class_index], dtype=np.float64))
    return list(_iter_regions(channel, class_index, int(params.d), params.tau,
                              float(params.alpha)))


def region_to_detection(region: PeakRegion) -> Detection:
    """Axis-aligned bounding rectangle of the region's member cells."""
    row0, col0, row1, col1 = region.bbox
    box = Box(
        x=float(col0),
        y=float(row0),
        w=float(col1 - col0),
        h=float(row1 - row0),
        space=MAP_SPACE,
    )
    return Detection(
        class_index=region.class_index,
        box=box,
        confidence=region.peak_prob,
        centroid=region.centroid,
    )


def _decode_order(det: Detection):
    return -det.confidence, det.class_index, det.centroid


def decode(logits: np.ndarray | PreparedMap, params: DecodeParams) -> list[Detection]:
    """Full decode of a logit map: softmax, per-class regions, boxes.

    ``logits`` is a [K, H, W] array, prepared afresh, or a PreparedMap
    that is reused across calls. Channel 0 is the background and yields
    no detections.

    Detections come back sorted by confidence descending, ties broken by
    (class index, row-major centroid).
    """
    prepared = logits if isinstance(logits, PreparedMap) else PreparedMap(logits)
    detections = []
    for k in range(1, prepared.shape[0]):
        for region in maximal_filter_regions(prepared, k, params):
            detections.append(region_to_detection(region))
    detections.sort(key=_decode_order)
    return detections


def top_detection(prepared: PreparedMap, params: DecodeParams) -> Detection | None:
    """``decode(prepared, params)[0]``, or None when decode finds nothing.

    That detection comes from the first class whose maximum is the highest,
    so no other class is read. Unless another cell of that class holds its
    maximum, it is the class's memoised first region, read without window
    winners. Otherwise it is the region of least centroid among those of
    the class's peaks at that maximum, the first on equal centroids, as
    decode's stable sort keeps them.
    """
    channels = [prepared._class(k) for k in range(1, prepared.shape[0])]
    best = max(channel.top()[0] for channel in channels)
    if best < params.tau:
        return None
    k, channel = next((k, c) for k, c in enumerate(channels, 1) if c.top()[0] == best)
    _, _, unique = channel.top()
    regions = _iter_regions(channel, k, int(params.d), best, float(params.alpha))
    return region_to_detection(min(islice(regions, 1) if unique else regions,
                                   key=attrgetter("centroid")))


# ---------------------------------------------------------------------------
# map files: one .npy (float32, C-order, [K, H, W]) plus a .json sidecar


@dataclass(frozen=True)
class MapMeta:
    image_id: str
    classes: tuple[str, ...]
    size: tuple[int, int]  # (width, height) in cells, taken from the .npy

    def to_dict(self) -> dict:
        """The sidecar, format 2: the size is the .npy's, so it is not written."""
        return {"image_id": self.image_id, "classes": list(self.classes)}


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
    meta_doc = read_json(sidecar, dict)
    try:
        image_id, classes = meta_doc["image_id"], meta_doc["classes"]
    except KeyError as e:
        raise ValueError(f"{sidecar}: missing field {e}") from e
    space = meta_doc.get("space", MAP_SPACE)
    if not isinstance(image_id, str) or not image_id:
        raise ValueError(f"{sidecar}: 'image_id' must be a non-empty string, not {image_id!r}")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ValueError(f"{sidecar}: 'classes' must be a list of strings, not {classes!r}")
    if space != MAP_SPACE:
        raise ValueError(f"{sidecar}: 'space' must be {MAP_SPACE!r}, not {space!r}")
    try:
        arr = np.load(npy_path, allow_pickle=False)
        if arr.dtype != np.float32:
            raise ValueError(f"expected float32, got {arr.dtype}")
        arr = validate_logit_map(arr)
        if arr.shape[0] != len(classes):
            raise ValueError(f"{arr.shape[0]} channels but {len(classes)} class names in sidecar")
    except (ValueError, EOFError) as e:  # numpy raises EOFError for an empty file
        raise ValueError(f"map {npy_path.name}: {e}") from e
    _, height, width = arr.shape
    # format 1 held the width's scale; any other would now decode to other boxes
    if "map_to_net_scale" in meta_doc:
        scale = meta_doc["map_to_net_scale"]
        if not (is_finite_number(scale) and scale == NET_SIZE / width):
            raise ValueError(f"{sidecar}: 'map_to_net_scale' must be {NET_SIZE} / {width} "
                             f"({NET_SIZE} over the map's width in cells), not {scale!r}")
    meta = MapMeta(image_id=image_id, classes=tuple(classes), size=(width, height))
    return LoadedMap(meta=meta, logits=arr)


def map_paths(directory) -> list[Path]:
    """The ``.npy`` maps of ``directory``, sorted by name; a directory with
    none is refused."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.npy"))
    if not paths:
        raise ValueError(f"no .npy maps found in {directory}")
    return paths


def claim_image_id(seen: dict, meta: MapMeta, path) -> None:
    """Record in ``seen`` (image id -> path) that the map at ``path`` holds
    ``meta.image_id``, refusing an id that an earlier map holds: detections
    and scores are keyed by image id."""
    if meta.image_id in seen:
        raise ValueError(f"{seen[meta.image_id]} and {path} both hold "
                         f"image_id {meta.image_id!r}")
    seen[meta.image_id] = path


def iter_maps(paths) -> Iterator[LoadedMap]:
    """The maps at ``paths``, loaded one at a time, each once its image id is claimed."""
    seen = {}
    for path in paths:
        m = load_map(path)
        claim_image_id(seen, m.meta, path)
        yield m


def load_maps_dir(directory) -> list[LoadedMap]:
    """Every map of ``directory``, loaded in ``map_paths`` order."""
    return list(iter_maps(map_paths(directory)))


def detection_to_net416(det: Detection, meta: MapMeta) -> Detection:
    """``det`` with its box stretched to net416 on each axis, as ground truth is."""
    box = rescale_box(det.box, meta.size, (NET_SIZE, NET_SIZE), to_space="net416")
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


def _finite_numbers(value, n: int, what: str, where: str) -> list[float]:
    if not (isinstance(value, list) and len(value) == n and all(map(is_finite_number, value))):
        raise ValueError(f"{where}: {what} must be a list of {n} numbers, each finite, "
                         f"not {value!r}")
    return [float(v) for v in value]


def detections_from_json(path) -> dict[str, list[Detection]]:
    """Detections by image id, by descending confidence; ties keep the
    file's order, which is the order ``decode`` gave them."""
    entries = read_json(path, list)
    per_image: dict[str, list[Detection]] = {}
    for i, e in enumerate(entries):
        where = f"{path}: entry {i}"
        if not isinstance(e, dict):
            raise ValueError(f"{where}: not an object")
        try:
            image_id, confidence = e["image_id"], e["confidence"]
            box_values = _finite_numbers(e["box"], 4, "box", where)
            centroid = _finite_numbers(e["centroid"], 2, "centroid", where)
            space = e["space"]
        except KeyError as err:
            raise ValueError(f"{where}: missing field {err}") from err
        if not isinstance(image_id, str) or not image_id:
            raise ValueError(f"{where}: 'image_id' must be a non-empty string, not {image_id!r}")
        if not is_finite_number(confidence):
            raise ValueError(f"{where}: 'confidence' must be a finite number, "
                             f"not {confidence!r}")
        try:
            box = Box(*box_values, space=space)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from err
        det = Detection(class_index=0,  # class carried by name in the file
                        box=box, confidence=float(confidence), centroid=tuple(centroid))
        per_image.setdefault(image_id, []).append(det)
    for dets in per_image.values():
        dets.sort(key=lambda det: -det.confidence)  # stable
    return per_image
