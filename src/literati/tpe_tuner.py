"""Tree-structured Parzen estimator for decoder hyperparameters.

Completed trials are split at the ceil(GAMMA * n) best into a good and a
bad set; per dimension, each set gets a Parzen density (truncated normal
kernels at the observed points for continuous dimensions, add-one-smoothed
category counts for integer and choice dimensions). Candidates drawn from
the good density are ranked by the density ratio l(x)/g(x) and the best
one is evaluated next. Objectives are maximized.

Suggestions are a deterministic function of (seed, history).

A suggestion fits, samples and scores all dimensions in a fixed number of
array passes. Each continuous dimension is a row of one kernel array, its
good kernels sorted, then its bad ones sorted; the row order, the bounds on
the kernel axis (the log axis for ``log_uniform``) and each discrete value's
index are built once per search space. One erf pass gives every kernel's
cdf at both bounds, so its truncation mass, and each candidate's truncation
interval is gathered from that pass. l and g are evaluated on one
(dimension, candidate, kernel) array, each summing its own slice of the
kernels; discrete counts come from ``np.bincount``. The draws, made per
dimension in space order, and every float operation are those of one
density per dimension and set, so trial logs are unchanged, byte for byte.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .annotation_store import is_finite_number, read_json

logger = logging.getLogger(__name__)

PARAM_KINDS = ("uniform", "log_uniform", "integer_uniform", "choice")
GAMMA = 0.25  # share of the completed trials that form the good set
N_CANDIDATES = 24  # candidates drawn from the good density per suggestion
MAX_INTEGER_VALUES = 10_000  # the TPE densities list every value of an integer range

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str
    low: float | None = None
    high: float | None = None
    choices: tuple | None = None

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown param kind {self.kind!r}")
        if self.kind == "choice":
            if not self.choices:
                raise ValueError(f"param {self.name!r}: choices must be non-empty")
            first = {}  # the densities index each choice by equality
            for i, c in enumerate(self.choices):
                j = first.setdefault(c, i)
                if j != i:
                    raise ValueError(f"param {self.name!r}: choices {self.choices[j]!r} and "
                                     f"{c!r} are equal")
        else:
            if self.low is None or self.high is None:
                raise ValueError(f"param {self.name!r}: low and high required")
            if not (is_finite_number(self.low) and is_finite_number(self.high)):
                raise ValueError(f"param {self.name!r}: bounds must be finite")
            if self.low >= self.high:
                raise ValueError(f"param {self.name!r}: low must be < high")
            if not is_finite_number(self.high - self.low):  # numpy samples no wider range
                raise ValueError(f"param {self.name!r}: high - low must be finite")
            if self.kind == "log_uniform" and self.low <= 0:
                raise ValueError(f"param {self.name!r}: log_uniform needs low > 0")
            if self.kind == "integer_uniform":
                if int(self.low) != self.low or int(self.high) != self.high:
                    raise ValueError(f"param {self.name!r}: integer bounds required")
                if self.high - self.low >= MAX_INTEGER_VALUES:
                    raise ValueError(f"param {self.name!r}: integer range [{self.low}, "
                                     f"{self.high}] holds more than {MAX_INTEGER_VALUES} values")


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[ParamSpec, ...]

    def __post_init__(self):
        if not self.params:
            raise ValueError("search space must have at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in search space")

    @cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self.params)

    @classmethod
    def from_file(cls, path) -> "SearchSpace":
        """Read a JSON array of parameter objects; a ValueError names the
        file, the entry index and the key at fault."""
        specs = []
        for i, entry in enumerate(read_json(path, list)):
            where = f"{path}: entry {i}"
            if not isinstance(entry, dict):
                raise ValueError(f"{where}: not an object")
            for key in ("name", "kind"):
                if key not in entry:
                    raise ValueError(f"{where}: missing {key!r}")
                if not isinstance(entry[key], str):
                    raise ValueError(f"{where}: {key!r} must be a string, not {entry[key]!r}")
            for key in ("low", "high"):
                value = entry.get(key, 0.0)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"{where}: {key!r} must be a number, not {value!r}")
            choices = entry.get("choices", [])  # the densities hash each choice
            if not isinstance(choices, list) or any(isinstance(c, (list, dict)) for c in choices):
                raise ValueError(f"{where}: 'choices' must be an array of strings, numbers, "
                                 f"booleans or nulls")
            try:
                specs.append(ParamSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    low=entry.get("low"),
                    high=entry.get("high"),
                    choices=tuple(entry["choices"]) if "choices" in entry else None,
                ))
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from e
        try:
            return cls(tuple(specs))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


@dataclass(frozen=True)
class TpeConfig:
    n_startup: int = 10  # trials sampled uniformly before the densities are fit
    seed: int = 0

    def __post_init__(self):
        if self.n_startup < 1:
            raise ValueError("n_startup must be >= 1")


@dataclass(frozen=True)
class Trial:
    params: dict
    objective: float
    status: str  # "complete" | "failed"

    def to_dict(self) -> dict:
        return {"params": self.params, "objective": self.objective, "status": self.status}


# ---------------------------------------------------------------------------
# Parzen densities


def _norm_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _norm_cdf(z):
    return 0.5 * (1.0 + special.erf(z / _SQRT2))


def _norm_ppf(u):
    return _SQRT2 * special.erfinv(2.0 * u - 1.0)


def _universe(spec: ParamSpec) -> Sequence | None:
    """The values of a discrete dimension; None for a continuous one."""
    if spec.kind == "integer_uniform":
        return range(int(spec.low), int(spec.high) + 1)
    return spec.choices if spec.kind == "choice" else None


class _Layout:
    """A search space as the TPE densities read it: one row per dimension,
    ``uniform``, then ``log_uniform``, then discrete ones, each in space
    order, with its bounds and span on the kernel axis (the log axis for
    ``log_uniform``), or its values and the index of each value."""

    def __init__(self, params: Sequence[ParamSpec]):
        plain = [p for p in params if p.kind == "uniform"]
        log = [p for p in params if p.kind == "log_uniform"]
        disc = [p for p in params if _universe(p) is not None]
        self.names = [p.name for p in plain + log + disc]
        self.order = [self.names.index(p.name) for p in params]  # rows in space order
        self.n_cont = n = len(plain) + len(log)
        self.logs = slice(len(plain), n)  # the log_uniform rows
        lows = [p.low for p in plain] + [math.log(p.low) for p in log]
        highs = [p.high for p in plain] + [math.log(p.high) for p in log]
        # Python numbers, divided as scalars: an int span's floor stays exact
        self.spans = [high - low for low, high in zip(lows, highs)]
        self.bounds = np.array([lows, highs], dtype=np.float64).reshape(2, n, 1)
        self.rows = np.arange(n).reshape(n, 1)
        self.values = [list(_universe(p)) for p in disc]
        self.index = [{v: i for i, v in enumerate(values)} for values in self.values]


def _holds(spec: ParamSpec, value) -> bool:
    """Whether ``value`` lies in the dimension's domain."""
    universe = _universe(spec)
    if universe is not None:
        return value in universe
    return spec.low <= value <= spec.high


def _sample_uniform(spec: ParamSpec, rng: np.random.Generator):
    universe = _universe(spec)
    if universe is not None:
        return universe[int(rng.integers(0, len(universe)))]
    if spec.kind == "log_uniform":
        return float(np.exp(rng.uniform(math.log(spec.low), math.log(spec.high))))
    return float(rng.uniform(spec.low, spec.high))


# ---------------------------------------------------------------------------
# suggestion and optimization


def _suggest(history: Sequence[Trial], space: SearchSpace, cfg: TpeConfig):
    """Next parameter point, and for a TPE point its candidate values per
    dimension, their log density ratios and the chosen candidate's index;
    None in their place for a start-up point."""
    rng = np.random.default_rng([cfg.seed, len(history)])
    complete = [t for t in history if t.status == "complete"]

    n_good = math.ceil(GAMMA * len(complete))
    # a degenerate split leaves too few trials to model "bad"
    if len(complete) < cfg.n_startup or n_good >= len(complete):
        return {p.name: _sample_uniform(p, rng) for p in space.params}, None

    # best first, so the good set leads; the sort is stable, ties keep history order
    ranked = [t.params for t in sorted(complete, key=lambda t: -t.objective)]
    n_bad = len(ranked) - n_good
    lay = space._layout
    nc, logs, (low, high) = lay.n_cont, lay.logs, lay.bounds
    columns = {p.name: [params[p.name] for params in ranked] for p in space.params}

    # continuous rows: the good kernels, sorted, then the bad ones, sorted
    obs = np.array([columns[name] for name in lay.names[:nc]], dtype=np.float64)
    obs = obs.reshape(nc, len(ranked))  # two axes even with no continuous row
    obs[logs] = np.log(obs[logs])
    obs = np.minimum(np.maximum(obs, low), high)
    obs[:, :n_good].sort()
    obs[:, n_good:].sort()
    # bandwidth: the larger gap to a neighbour in the kernel's own set,
    # floored at span / min(100, size of the set)
    gaps = obs[:, 1:] - obs[:, :-1]
    gaps[:, n_good - 1] = 0.0  # the last good kernel and the first bad one
    floors = [[span / min(100, n_good), span / min(100, n_bad)] for span in lay.spans]
    sigma = np.repeat(np.array(floors).reshape(nc, 2), (n_good, n_bad), axis=1)
    np.maximum(sigma[:, 1:], gaps, out=sigma[:, 1:])
    np.maximum(sigma[:, :-1], gaps, out=sigma[:, :-1])
    cdf = _norm_cdf((lay.bounds - obs) / sigma)  # each kernel's cdf at low and at high
    mass = cdf[1] - cdf[0]  # truncation mass per kernel

    # discrete rows: add-one-smoothed counts of the good and the bad values
    probs = []
    for name, values, index in zip(lay.names[nc:], lay.values, lay.index):
        idx = [index.get(v, -1) for v in columns[name]]  # found by equality: 3.0 is 3
        if -1 in idx:
            raise ValueError(f"value {columns[name][idx.index(-1)]!r} is not among {values}")
        k = len(values)
        counts = np.bincount(idx[:n_good] + [i + k for i in idx[n_good:]], minlength=2 * k)
        counts = counts.reshape(2, k) + 1.0
        counts[0] /= k + n_good
        counts[1] /= k + n_bad
        probs.append(counts)

    # draws, in space order: per continuous dimension a good kernel and a
    # point in its truncation interval, per discrete one a value from l
    comp = np.empty((nc, N_CANDIDATES), dtype=np.intp)
    u = np.empty((nc, N_CANDIDATES))
    picks = []
    for row in lay.order:
        if row < nc:
            comp[row] = rng.integers(0, n_good, size=N_CANDIDATES)
            u[row] = rng.uniform(*cdf[:, row, comp[row]])
        else:
            p_l = probs[row - nc][0]
            picks.append(rng.choice(len(p_l), size=N_CANDIDATES, p=p_l))
    x = obs[lay.rows, comp] + sigma[lay.rows, comp] * _norm_ppf(u)
    x = np.minimum(np.maximum(x, low), high)
    cand = x.tolist()
    # a log_uniform candidate is its value off the log axis; l and g read
    # it back on the log axis, where it may fall just out of bounds
    off_log = np.exp(x[logs])
    cand[logs] = off_log.tolist()
    x[logs] = np.log(off_log)

    # l and g at every continuous candidate, in one pass over all kernels
    z = (x[:, :, None] - obs[:, None, :]) / sigma[:, None, :]
    dens = _norm_pdf(z) / sigma[:, None, :] / mass[:, None, :]
    lg = np.empty((2, len(lay.names), N_CANDIDATES))
    lg[0, :nc] = np.add.reduce(dens[..., :n_good], axis=-1) / n_good
    lg[1, :nc] = np.add.reduce(dens[..., n_good:], axis=-1) / n_bad
    lg[:, logs] = np.where((x[logs] >= low[logs]) & (x[logs] <= high[logs]), lg[:, logs], 0.0)
    for row, (p, idx, values) in enumerate(zip(probs, picks, lay.values), nc):
        lg[:, row] = p[:, idx]
        cand.append([values[i] for i in idx.tolist()])
    with np.errstate(divide="ignore"):  # g underflows to 0 far from every bad kernel
        log_lg = np.log(lg)
    diff = log_lg[0] - log_lg[1]
    log_ratios = np.zeros(N_CANDIDATES)
    for row in lay.order:
        log_ratios += diff[row]

    candidate_values = {lay.names[row]: cand[row] for row in lay.order}
    chosen = int(log_ratios.argmax())
    params = {name: vals[chosen] for name, vals in candidate_values.items()}
    return params, (candidate_values, log_ratios, chosen)


def suggest(history: Sequence[Trial], space: SearchSpace, cfg: TpeConfig) -> dict:
    """Next parameter point: drawn uniformly during start-up, else the
    TPE candidate of highest log density ratio, as ``_suggest`` gives it."""
    return _suggest(history, space, cfg)[0]


def optimize(
    objective: Callable[[dict], float],
    space: SearchSpace,
    budget: int,
    cfg: TpeConfig | None = None,
    initial_params: Sequence[dict] | None = None,
) -> tuple[Trial, list[Trial]]:
    """Sequential suggest/evaluate loop; returns (best trial, history).

    Evaluations that raise or return a non-finite value are recorded as
    failed and excluded from the density fits. ``initial_params`` are
    evaluated first and count against the budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cfg = cfg or TpeConfig()
    history: list[Trial] = []

    def evaluate(params: dict) -> Trial:
        try:
            value = float(objective(params))
        except Exception as e:  # objective failures are data, not crashes
            logger.warning("trial %d failed: %s", len(history), e)
            return Trial(params=params, objective=float("nan"), status="failed")
        if not math.isfinite(value):
            return Trial(params=params, objective=value, status="failed")
        return Trial(params=params, objective=value, status="complete")

    for params in initial_params or ():
        if len(history) >= budget:
            break
        history.append(evaluate(dict(params)))
    while len(history) < budget:
        history.append(evaluate(suggest(history, space, cfg)))

    complete = [t for t in history if t.status == "complete"]
    if not complete:
        raise RuntimeError("all trials failed")
    best = max(complete, key=lambda t: t.objective)
    return best, history


def write_trials(dest, history: Sequence[Trial]) -> None:
    """Write the trial log to ``dest``, a path or a text file open for writing."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as f:
            write_trials(f, history)
        return
    json.dump([t.to_dict() for t in history], dest, indent=2)


DECODER_PARAMS = ("d", "tau", "alpha")  # the DecodeParams fields a space may tune


def _decoder_fault(spec: ParamSpec, check: Callable) -> str | None:
    """A value ``spec`` can give that ``check`` (DecodeParams, with that one
    parameter set) refuses, with the reason; None when it refuses none. The
    decoder's domains are intervals, so a range is checked at its two ends,
    each of which a draw can return, and a choice at each value."""
    for value in spec.choices if spec.kind == "choice" else (spec.low, spec.high):
        if not is_finite_number(value):  # a bool, a string, null or an infinity
            return f"{value!r}, which is not a number"
        try:
            check(**{spec.name: value})
        except ValueError as e:
            return f"{value!r}, which the decoder refuses: {e}"
    return None


def default_decoder_space() -> SearchSpace:
    return SearchSpace((
        ParamSpec("d", "integer_uniform", 1, 8),
        ParamSpec("tau", "uniform", 0.05, 0.9),
        ParamSpec("alpha", "uniform", 0.2, 0.95),
    ))


def tune_decoder(
    maps,
    gts_net416: dict[str, list],
    space: SearchSpace | None = None,
    budget: int = 40,
    cfg: TpeConfig | None = None,
    iou_threshold: float = 0.1,
    mode: str = "top1",
):
    """Tune decode parameters against detection accuracy on held-out maps.

    ``maps`` are (MapMeta, PreparedMap) pairs, read once, after the
    arguments are checked; each map is prepared once and reused by every
    trial. ``gts_net416`` maps image ids to ground-truth boxes in net416
    space, and the objective scores every one of its images as ``eval``
    does. A space that can give a value ``DecodeParams`` refuses is refused
    before any map is read. When the space holds the decoder defaults,
    they are evaluated as trial 0, so the returned best can never be worse
    than the baseline. A map whose image has no ground truth is left out
    of every score, so it is never decoded. Trials run in this process, in
    map order: with the memos below a trial costs less than a round trip
    to a worker process would.

    In ``top1`` mode a trial is one ``top_detections`` call over the scored
    maps, which reads only each map's first detection, the one
    ``match_image`` matches: a region of the map's top class, the first
    whose maximum is the highest, which the map keeps, with window winners
    only where that maximum ties in its class. Each class memoises its
    first regions by the interval of ``alpha * maximum`` over which they
    stay the same, each with its detection, so across trials a region is
    grown and its detection built once, not once per trial. A threshold
    strictly between two known regions often needs no region at all: first
    regions nest as the threshold falls, so the one it would grow holds the
    inner known region and lies in the outer one, and so does its box.
    ``top_detections`` finds the two in the same memo search that finds a
    known region, and asks ``decides``, which settles the map by
    ``harness.hit_between`` when, for some ground-truth box, the least IoU
    of any box between them reaches the threshold, or, for every
    ground-truth box, the greatest falls short of it, each by a margin
    that covers the rounding of the rescaled boxes and of ``iou``. The
    regions left to grow are labelled together, in one ``ndimage.label``
    call per crop round, and their boxes, counts and centroids are read
    from that call's labelled stack at once.
    Each map also memoises, by map box, the hit and the net416 box of every
    first detection it has scored, and the verdict of every pair of boxes,
    so a trial that repeats one neither rescales nor rematches it: on a
    repeat, a trial is a lookup. The objective is the hits over the images
    ``harness.accuracy`` counts: the scored maps and the annotated images
    without a map, each a miss.

    In ``greedy_multi`` mode an image is a hit exactly when some detection
    reaches the threshold with some box, whatever the order: the first such
    detection finds every box unclaimed, since each detection before it
    claims none. So a trial walks each class's lazy region stream
    (``iter_regions``) and stops a map at its first region that hits; each
    channel's window winners are memoised per d.
    Returns (best DecodeParams, best Trial, history).
    """
    from . import eval_harness as harness
    from .map_decoder import (DecodeParams, detection_to_net416, iter_regions,
                              region_to_detection, top_detections)

    harness.check_iou_threshold(iou_threshold)
    space = space or default_decoder_space()
    for spec in space.params:
        if spec.name not in DECODER_PARAMS:
            raise ValueError(f"search space parameter {spec.name!r} is not a decoder "
                             f"parameter ({', '.join(DECODER_PARAMS)})")
        if spec.name == "d" and spec.kind in ("uniform", "log_uniform"):  # to_params: int(d)
            raise ValueError(f"search space parameter 'd' must be integer_uniform or a choice "
                             f"of integers, not kind {spec.kind!r}")
        if fault := _decoder_fault(spec, DecodeParams):  # a trial there could only fail
            raise ValueError(f"search space parameter {spec.name!r} reaches {fault}")
    # match_image marks a map without ground truth excluded, whatever it
    # decodes, and accuracy leaves it out. Each scored map keeps, by map
    # box, the hit and the net416 box of each first detection seen: within
    # this call a top-1 match reads nothing else of a detection.
    scored, mapped = [], set()
    for meta, prepared in maps:  # one pass: maps may be a stream
        mapped.add(meta.image_id)
        if gts_net416.get(meta.image_id):
            scored.append((meta, prepared, {}))
    if not scored:
        raise ValueError("no ground-truth boxes for the provided maps")
    defaults = {name: getattr(DecodeParams(), name) for name in DECODER_PARAMS}

    def to_params(raw: dict) -> DecodeParams:
        merged = {**defaults, **raw}
        return DecodeParams(d=int(merged["d"]), tau=float(merged["tau"]),
                            alpha=float(merged["alpha"]))

    def hit(meta, dets) -> bool:
        """Whether the net416 detections ``dets`` hit, as match_image scores them."""
        return harness.match_image(dets, gts_net416[meta.image_id], iou_threshold, mode=mode,
                                   image_id=meta.image_id).outcomes[iou_threshold].hit

    def outcome(meta, memo, top) -> tuple:
        """(hit, net416 box) of a map's first detection ``top`` (None for
        none), kept in the map's ``memo``."""
        key = None if top is None else top.box
        got = memo.get(key)
        if got is None:
            dets = [] if top is None else [detection_to_net416(top, meta)]
            got = memo[key] = (hit(meta, dets), dets[0].box if dets else None)
        return got

    def verdict(meta, memo, inner, outer) -> bool | None:
        """Whether a map's first detection, whose box lies between those of
        ``inner`` and ``outer``, hits: when they are one detection its hit,
        else ``hit_between`` of their net416 boxes, kept in the map's
        ``memo`` (as a 1-tuple, since None is a verdict)."""
        if inner is outer:
            return outcome(meta, memo, inner)[0]
        key = inner.box, outer.box
        got = memo.get(key)
        if got is None:
            got = memo[key] = (harness.hit_between(
                outcome(meta, memo, inner)[1], outcome(meta, memo, outer)[1],
                gts_net416[meta.image_id], iou_threshold),)
        return got[0]

    def decides(k: int, inner, outer) -> bool:
        # a first region between two memoised ones has a box between theirs:
        # where their boxes decide the hit, the region is not grown
        meta, _, memo = scored[k]
        return verdict(meta, memo, inner, outer) is not None

    scored_maps = [prepared for _, prepared, _ in scored]

    def score_top1(params: DecodeParams) -> list[bool]:
        return [verdict(meta, memo, inner, outer) for (meta, _, memo), (inner, outer)
                in zip(scored, top_detections(scored_maps, params, decides))]

    def first_hit(meta, prepared, params: DecodeParams) -> bool:
        # any one hitting region settles the map's hit
        for k in range(1, prepared.shape[0]):
            for region in iter_regions(prepared, k, params):
                if hit(meta, [detection_to_net416(region_to_detection(region), meta)]):
                    return True
        return False

    def score_greedy_multi(params: DecodeParams) -> list[bool]:
        return [first_hit(meta, prepared, params) for meta, prepared, _ in scored]

    # as accuracy counts them: an annotated image without a map is a miss in
    # every trial, as in eval, and an image without boxes is left out
    n_images = len(scored) + sum(1 for i, boxes in gts_net416.items()
                                 if boxes and i not in mapped)

    # the defaults go first only where the space can hold them: a value
    # outside a dimension's domain would break that dimension's density fit
    names = {p.name for p in space.params}
    trial0 = {k: v for k, v in defaults.items() if k in names}
    held = all(_holds(spec, trial0[spec.name]) for spec in space.params)

    score_maps = score_top1 if mode == "top1" else score_greedy_multi

    def objective(raw: dict) -> float:
        return sum(score_maps(to_params(raw))) / n_images

    best, history = optimize(objective, space, budget, cfg,
                             initial_params=[trial0] if held else [])
    return to_params(best.params), best, history
