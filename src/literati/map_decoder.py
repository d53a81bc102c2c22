"""Decode per-class probability maps into bounding-box detections.

The pipeline per class channel: softmax across channels gives a per-cell
class distribution; cells that dominate their Chebyshev-d window (ties to
the lowest row-major index) and clear the probability floor ``tau`` become
peaks; each peak grows an 8-connected region over unclaimed cells within
[alpha * peak, peak]; the region's bounding rectangle becomes the
detection box, with the region centroid kept as metadata.

Peaks come from separable maximum filters over the whole channel, in
O(H * W * d), with d capped at the radius whose window covers the whole
map from every cell. Each region is labelled on a crop around its peak
that widens only while the region reaches a crop edge inside the map, so
region growth costs about the size of the regions found, not
peaks x H x W. Regions are kept as a bounding box plus a boolean mask of
that box, never as per-cell Python objects.

Work that no parameter touches is done once per map: a PreparedMap
validates and softmaxes the logits once and keeps the class channels, each
with its maximum, the maximum's first row-major cell and whether another
cell holds it, and the map's top class: the first whose maximum is the
highest. Each class yields its regions lazily, in decode's order
(``iter_regions``). Its first peak is its first row-major maximum at
every d, grown with nothing claimed, so the first region needs only the
channel's maximum. The window winners of a d are memoised per class,
sorted by descending probability with no tau cut, and computed only when
a caller reads past the first region; the peaks for a tau are a prefix of
that order, found by one binary search. ``top_detections`` reads only
decode's first detection of each map. It comes from the top class, and
unless that class's maximum ties within it, it is the detection of the
memoised first region, read with no window winners.

The first region itself is memoised by threshold. It is the component of
the maximum's cell in {p >= alpha * max}, and as that threshold falls
these components nest, so each one stays the same over an interval
(below, least]: ``least`` is its least cell, and ``below`` the highest
cell under the threshold in its bounding box widened by one cell, which
holds every 8-neighbour of the region. A threshold in that interval keeps
every cell of the region and still leaves out every neighbour, so it
gives the same component. Each channel keeps one entry per distinct first
region asked for, sorted by ``least``, and a threshold in an entry's
interval grows nothing. A threshold that falls between entries is grown
inside the entry at the next lower threshold, when there is one: by the
nesting, that entry's region holds the new one, so one labelling of
{p >= alpha * max} on that entry's box finds it, with no crop to widen.

When the threshold falls strictly between two entries, the region it
would grow also holds the region of the entry at the next higher
threshold, the inner one, and lies in the outer one's, so its box holds
inner's box and lies in outer's. ``top_detections`` finds those two
entries by the one memo search it makes per map (``_Channel._find``) and
asks its caller whether their detections will do. The tuner takes them
when the IoU bounds of ``eval_harness.hit_between`` clear its threshold
by a margin that covers the rounding of the rescaled boxes and of
``iou``, and then the region is not grown.

``top_detections`` reads the first detections of many maps at one set of
params, as a tune trial does, and grows the first regions their memos
miss, and their caller leaves open, together: each is one plane of a
stack, padded with False, and one ``ndimage.label`` call, whose
structure joins cells within a plane only, labels them all. Every
plane's box, cell count, centroid and crop-edge touches are then read at
once from the row and column counts of the stack's regions, so a round
settles its regions with a fixed number of array calls, not a few per
region; each region's own box then gives its least cell and ``below``. A
region that reaches an inner crop edge goes on to the next call with its
crop widened, so a trial makes one call per crop round, not one per map.
``decode`` grows a first region by the same code, with one plane, and its
later regions are read by the same counts, on a stack of one plane. An entry keeps the region's Detection
too, built the first time ``top_detections`` reads the entry, so a
repeated trial gets the same object back; ``decode`` builds its own, one
per region. Regions are shared between calls, so their masks are
read-only.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np
from scipy import ndimage

from .annotation_store import NET_SIZE, Box, is_finite_number, read_json, rescale_box
# the detections file's codec lives in .detections, free of numpy and scipy
from .detections import Detection, detections_from_json, detections_to_json  # noqa: F401

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
    e = arr - arr.max(axis=0, keepdims=True)  # a new array: the logits are not touched
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


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


class _FirstRegion:
    """A memoised first region, the same for every threshold in (below,
    least] (the channel keeps ``least`` in a sorted list of its own), and
    its detection once ``top_detections`` has read it."""

    __slots__ = ("below", "region", "detection")

    def __init__(self, below: float, region: PeakRegion):
        self.below = below
        self.region = region
        self.detection: Detection | None = None


class _Channel:
    """One class channel's probabilities, with what decoding reads of it
    memoised: its maximum, its first region per threshold interval with
    that region's detection, and its window winners per d."""

    def __init__(self, p: np.ndarray, class_index: int):
        self.p = p
        self.class_index = class_index
        # the maximum's first cell in row-major order wins its window at
        # every d, so it is the first peak whenever the maximum is >= tau
        r, c = divmod(int(np.argmax(p)), p.shape[1])
        self.peak_cell = (r, c)
        self.peak = float(p[r, c])
        self.unique = int(np.count_nonzero(p == p[r, c])) == 1  # no other cell holds it
        self._winners: dict[int, tuple] = {}
        self._least: list[float] = []  # per first region, sorted ascending
        self._first: list[_FirstRegion] = []

    def peaks(self, d: int, tau: float) -> list[tuple[int, int]]:
        """Peak cells by descending probability, row-major on ties."""
        # a window of this radius already covers the map from every cell,
        # so a wider one finds the same peaks
        d = min(d, max(1, max(self.p.shape) - 1))
        if d not in self._winners:
            self._winners[d] = _window_winners(self.p, d)
        rs, cs, neg = self._winners[d]
        n = int(np.searchsorted(neg, -tau, side="right"))  # -p <= -tau
        return list(zip(rs[:n].tolist(), cs[:n].tolist()))

    def _find(self, lo: float) -> tuple[int, bool]:
        """The memo index of threshold ``lo``, the first entry with least
        >= lo, and whether that entry holds lo. The entries are sorted by
        least and their intervals (below, least] are disjoint, so no other
        entry can hold it."""
        i = bisect_left(self._least, lo)
        return i, i < len(self._least) and self._first[i].below < lo

    def _settle(self, i: int, lo: float, region: PeakRegion) -> _FirstRegion:
        """The memo entry of ``region``, grown at threshold ``lo`` where the
        memo missed at index ``i``: the entry at i when it holds the same
        region, else a new entry inserted there."""
        row0, col0, row1, col1 = region.bbox
        least = float(np.minimum.reduce(self.p[row0:row1, col0:col1], axis=None,
                                        where=region.mask, initial=np.inf))
        # the box one cell wider holds every 8-neighbour of the region
        near = self.p[max(0, row0 - 1):row1 + 1, max(0, col0 - 1):col1 + 1]
        below = float(np.maximum.reduce(near, axis=None, where=near < lo, initial=-np.inf))
        if i < len(self._least) and self._least[i] == least:
            # nested regions differ in their least cell, so this is the same
            # region, now known to hold down to a lower threshold
            self._first[i].below = below
            return self._first[i]
        entry = _FirstRegion(below, region)
        self._least.insert(i, least)
        self._first.insert(i, entry)
        return entry


class PreparedMap:
    """A logit map validated and softmaxed once, to decode under many params.

    Keeps the class channels 1..K-1 of the softmax (channel 0, the
    background, is never decoded), each with its memoised maximum and
    window winners, and the top class: the first whose maximum is the
    highest. ``shape`` is the (K, H, W) of the logit map.
    """

    def __init__(self, logits: np.ndarray):
        probs = softmax_map(logits)
        self.shape = probs.shape
        class_probs = probs[1:].copy()
        class_probs.flags.writeable = False  # the memos depend on it
        self._channels = [_Channel(p, k) for k, p in enumerate(class_probs, 1)]
        self._top = max(self._channels, key=attrgetter("peak"))  # the first on ties

    def _class(self, class_index: int) -> _Channel:
        if not 1 <= class_index < self.shape[0]:
            raise ValueError(
                f"class index {class_index} out of range for classes 1..{self.shape[0] - 1}"
            )
        return self._channels[class_index - 1]


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
# First regions, grown with nothing claimed, follow the same crop rule in
# _first_regions, many channels to one labelling per round.

_GROW_RADIUS = 16  # half-width of the first crop, in cells
_EIGHT = np.ones((3, 3), dtype=bool)
# a stack of planes: each cell joins its 8 neighbours in its own plane only
_PLANES = np.zeros((3, 3, 3), dtype=bool)
_PLANES[1] = True


def _crop(shape: tuple[int, int], r: int, c: int, reach: tuple[int, int, int, int]):
    """(row0, row1, col0, col1), ends exclusive, of the crop of a map of
    ``shape`` that reaches (up, down, left, right) cells past (r, c)."""
    H, W = shape
    up, down, left, right = reach
    return max(0, r - up), min(H, r + down + 1), max(0, c - left), min(W, c + right + 1)


def _widen(touches: tuple[bool, bool, bool, bool], shape: tuple[int, int],
           crop: tuple[int, int, int, int], reach: tuple[int, int, int, int]):
    """The reach with each side doubled where the region touches a crop
    edge inside the map, ``touches`` telling whether it reaches the crop's
    (top, bottom, left, right) edge; None when it touches no inner edge,
    so the region is whole."""
    r0, r1, c0, c1 = crop
    H, W = shape
    inner = (r0 > 0, r1 < H, c0 > 0, c1 < W)
    grown = tuple(2 * side if touch and edge else side
                  for side, touch, edge in zip(reach, touches, inner))
    return None if grown == reach else grown


def _grow(p: np.ndarray, claimed: np.ndarray, r: int, c: int, alpha: float):
    """Region of the peak at (r, c) over the unclaimed cells: (row0, col0,
    mask, stats) of its crop, ``stats`` as ``_region_stats`` gives them."""
    peak = p[r, c]
    lo = alpha * peak
    reach = (_GROW_RADIUS,) * 4
    while reach:
        crop = r0, r1, c0, c1 = _crop(p.shape, r, c, reach)
        window = p[r0:r1, c0:c1]
        mask = (window >= lo) & (window <= peak) & ~claimed[r0:r1, c0:c1]
        labels, _ = ndimage.label(mask, structure=_EIGHT)
        region = labels == labels[r - r0, c - c0]
        # its edges tell whether to widen; the stats read the whole crop, so
        # they are read once, on the last
        touches = (region[0].any(), region[-1].any(), region[:, 0].any(), region[:, -1].any())
        reach = _widen(touches, p.shape, crop, reach)
    return r0, c0, region, _region_stats(region[None])[0]


def _region_stats(regions: np.ndarray) -> list[tuple[int, ...]]:
    """Per plane of a boolean stack [n, H, W], each plane holding a cell:
    (top, bottom, left, right, count, row sum, col sum) of its cells, the
    box's ends exclusive and the sums of their row and column indices,
    read from per-plane row and column counts, the same few array calls
    for any number of planes."""
    _, H, W = regions.shape
    # int32 counts (a row holds at most W cells) sum twice as fast as int64
    rows = np.add.reduce(regions, axis=2, dtype=np.int32)  # [n, H]: cells per row
    cols = np.add.reduce(regions, axis=1, dtype=np.int32)  # [n, W]: cells per column
    any_row, any_col = rows > 0, cols > 0
    return list(zip(
        any_row.argmax(axis=1).tolist(), (H - any_row[:, ::-1].argmax(axis=1)).tolist(),
        any_col.argmax(axis=1).tolist(), (W - any_col[:, ::-1].argmax(axis=1)).tolist(),
        np.add.reduce(rows, axis=1, dtype=np.int64).tolist(),
        (rows @ np.arange(H)).tolist(), (cols @ np.arange(W)).tolist()))


def _peak_region(p: np.ndarray, class_index: int, r: int, c: int, r0: int, c0: int,
                 region: np.ndarray, stats: tuple[int, ...]) -> PeakRegion:
    """The region of the peak at (r, c), given as a boolean crop at (r0, c0)
    and its ``_region_stats``."""
    top, bottom, left, right, n, row_sum, col_sum = stats
    mask = region[top:bottom, left:right].copy()
    mask.flags.writeable = False  # a memoised region is shared between calls
    return PeakRegion(
        class_index=class_index,
        bbox=(r0 + top, c0 + left, r0 + bottom, c0 + right),
        mask=mask,
        centroid=((row_sum + r0 * n) / n, (col_sum + c0 * n) / n),
        peak_prob=float(p[r, c]),
        member_count=n,
        peak=(r, c),
    )


def _claim(claimed: np.ndarray, region: PeakRegion) -> None:
    row0, col0, row1, col1 = region.bbox
    claimed[row0:row1, col0:col1] |= region.mask


def _first_regions(channels: list[_Channel], alpha: float) -> list[_FirstRegion]:
    """Each channel's memo entry holding the region of its maximum's
    first cell, grown with nothing claimed, with the regions that miss the
    memos labelled together: one ``ndimage.label`` call per crop round,
    over a stack of planes, one per missing channel.

    Only the first entry with least >= alpha * max can hold the threshold
    (``_Channel._find``). An entry before it was grown at a lower
    threshold, so its region holds the one grown here, and the box of the
    entry just before is the plane, labelled in one round: a cell of that
    box which the new component reaches is in the entry's region too. With
    no such entry the plane is a crop around the maximum, widened as
    ``_grow`` widens it, and a region that touches an inner crop edge goes
    to the next round. A channel that a batch repeats misses at the same
    index with the same threshold, so its second region finds the first
    one's entry.
    """
    entries: list[_FirstRegion | None] = [None] * len(channels)
    pending = []  # (slot, channel, threshold, memo index, crop, reach or None)
    for slot, ch in enumerate(channels):
        lo = alpha * ch.peak  # the threshold _grow compares with
        i, held = ch._find(lo)
        if held:
            entries[slot] = ch._first[i]
        elif i:
            row0, col0, row1, col1 = ch._first[i - 1].region.bbox
            pending.append((slot, ch, lo, i, (row0, row1, col0, col1), None))
        else:
            reach = (_GROW_RADIUS,) * 4
            pending.append((slot, ch, lo, i, _crop(ch.p.shape, *ch.peak_cell, reach), reach))
    while pending:
        height = max(r1 - r0 for *_, (r0, r1, _, _), _ in pending)
        width = max(c1 - c0 for *_, (_, _, c0, c1), _ in pending)
        stack = np.zeros((len(pending), height, width), dtype=bool)  # False pads each plane
        for plane, (_, ch, lo, _, (r0, r1, c0, c1), _) in zip(stack, pending):
            # nothing is claimed, and no cell is above the maximum
            np.greater_equal(ch.p[r0:r1, c0:c1], lo, out=plane[:r1 - r0, :c1 - c0])
        labels, _ = ndimage.label(stack, structure=_PLANES)
        # each plane's region is the component of its maximum's cell
        seeds = np.array([labels[k, ch.peak_cell[0] - crop[0], ch.peak_cell[1] - crop[2]]
                          for k, (_, ch, _, _, crop, _) in enumerate(pending)])
        regions = labels == seeds[:, None, None]
        wider = []
        for region, stats, (slot, ch, lo, i, crop, reach) in zip(
                regions, _region_stats(regions), pending):
            r0, r1, c0, c1 = crop
            r, c = ch.peak_cell
            top, bottom, left, right = stats[:4]
            touches = (top == 0, bottom == r1 - r0, left == 0, right == c1 - c0)
            if reach is not None and (grown := _widen(touches, ch.p.shape, crop, reach)):
                wider.append((slot, ch, lo, i, _crop(ch.p.shape, r, c, grown), grown))
            else:
                entries[slot] = ch._settle(
                    i, lo, _peak_region(ch.p, ch.class_index, r, c, r0, c0, region, stats))
        pending = wider
    return entries


def _iter_regions(channel: _Channel, d: int, tau: float, alpha: float) -> Iterator[PeakRegion]:
    """The channel's regions in decode's order, each grown as it is read.

    The first is the channel's memoised first region; the window winners
    of d are computed, and cells claimed, only when a caller reads past it.
    """
    if channel.peak < tau:
        return
    first = _first_regions([channel], alpha)[0].region
    yield first
    claimed = np.zeros(channel.p.shape, dtype=bool)
    _claim(claimed, first)
    for r, c in channel.peaks(d, tau)[1:]:  # the first peak is the maximum's cell
        if not claimed[r, c]:  # else merged into an earlier region
            region = _peak_region(channel.p, channel.class_index, r, c,
                                  *_grow(channel.p, claimed, r, c, alpha))
            _claim(claimed, region)
            yield region


def iter_regions(prepared: PreparedMap, class_index: int,
                 params: DecodeParams) -> Iterator[PeakRegion]:
    """``maximal_filter_regions`` of a PreparedMap as a lazy stream: each
    region is grown only when it is read."""
    return _iter_regions(prepared._class(class_index), int(params.d), params.tau,
                         float(params.alpha))


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
        channel = _Channel(np.ascontiguousarray(prob_map[class_index], dtype=np.float64),
                           class_index)
    return list(_iter_regions(channel, int(params.d), params.tau, float(params.alpha)))


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


def _detection(entry: _FirstRegion) -> Detection:
    """The detection of a memo entry's region, built the first time it is read."""
    if entry.detection is None:
        entry.detection = region_to_detection(entry.region)
    return entry.detection


def top_detections(maps: Sequence[PreparedMap], params: DecodeParams,
                   decides: Callable[[int, Detection, Detection], bool],
                   ) -> list[tuple[Detection, Detection] | tuple[None, None]]:
    """Per map ``m``, detections (inner, outer) whose boxes bound that of
    ``decode(m, params)[0]``, read with one search of the map's memo:
    the first detection itself, twice, when it is known, and (None, None)
    where decode finds nothing.

    Each first detection comes from its map's top class, the first whose
    maximum is the highest, so no other class is read. Unless another cell
    of that class holds its maximum, it is the detection kept with the
    class's memoised first region, read without window winners. When the
    memo misses the threshold strictly between two entries, the region
    holds inner's, the entry at the next higher threshold, and lies in
    outer's, so its box does too; ``decides(k, inner, outer)`` tells
    whether that pair will do for ``maps[k]``, and then no region is grown.
    The other misses are grown together: one ``ndimage.label`` call per
    crop round, not one per map. Where another cell holds the maximum,
    the first detection is the region of least centroid among those of
    the class's peaks at that maximum, the first on equal centroids, as
    decode's stable sort keeps them.
    """
    tau, alpha = params.tau, float(params.alpha)
    tops: list = [(None, None)] * len(maps)
    entries, missed = {}, []  # map index -> its memo entry; the maps whose region is grown
    for k, m in enumerate(maps):
        ch = m._top
        if ch.peak < tau:
            continue
        i, held = ch._find(alpha * ch.peak)
        if held:
            entries[k] = ch._first[i]
            continue
        if ch.unique and 0 < i < len(ch._first):
            tops[k] = _detection(ch._first[i]), _detection(ch._first[i - 1])
            if decides(k, *tops[k]):
                continue
        missed.append(k)
    entries.update(zip(missed, _first_regions([maps[k]._top for k in missed], alpha)))
    for k, entry in entries.items():
        ch = maps[k]._top
        if ch.unique:
            top = _detection(entry)
        else:  # its regions start with the first, now memoised
            regions = _iter_regions(ch, int(params.d), ch.peak, alpha)
            top = region_to_detection(min(regions, key=attrgetter("centroid")))
        tops[k] = top, top
    return tops


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
    if "" in classes:
        raise ValueError(f"{sidecar}: class names must be non-empty, not {classes!r}")
    if len(set(classes)) != len(classes):  # detections name their class
        raise ValueError(f"{sidecar}: class names must be unique, not {classes!r}")
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
