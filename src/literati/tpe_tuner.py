"""Tree-structured Parzen estimator for decoder hyperparameters.

Completed trials are split at the ceil(GAMMA * n) best into a good and a
bad set; per dimension, each set gets a Parzen density (truncated normal
kernels at the observed points for continuous dimensions, add-one-smoothed
category counts for integer and choice dimensions). Candidates drawn from
the good density are ranked by the density ratio l(x)/g(x) and the best
one is evaluated next. Objectives are maximized.

Suggestions are a deterministic function of (seed, history).
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SuggestTrace:
    """Internals of one suggestion, for inspection and testing."""
    mode: str  # "startup" | "tpe"
    candidates: tuple[dict, ...] = ()
    log_ratios: tuple[float, ...] = ()
    chosen: int = -1


# ---------------------------------------------------------------------------
# Parzen densities


def _norm_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _norm_cdf(z):
    return 0.5 * (1.0 + special.erf(z / _SQRT2))


def _norm_ppf(u):
    return _SQRT2 * special.erfinv(2.0 * u - 1.0)


class _ContinuousParzen:
    """Mixture of truncated normal kernels at the observed points.

    Per-point bandwidth is the larger of the gaps to the sorted neighbors,
    floored at range / min(100, n). With ``log`` the kernels live on the
    log axis, while ``pdf`` and ``sample`` take and return plain values.
    """

    def __init__(self, values: Sequence[float], low: float, high: float, log: bool = False):
        values = np.asarray(values, dtype=np.float64)
        if log:
            values, low, high = np.log(values), math.log(low), math.log(high)
        obs = np.sort(np.clip(values, low, high))
        n = obs.size
        span = high - low
        floor = span / min(100, n)
        bw = np.full(n, floor)
        gaps = obs[1:] - obs[:-1]
        np.maximum(bw[1:], gaps, out=bw[1:])    # each point's gap to its left neighbour
        np.maximum(bw[:-1], gaps, out=bw[:-1])  # and to its right one
        self.log = log
        self.low = low
        self.high = high
        self.mu = obs
        self.sigma = bw
        # truncation mass per kernel
        self.mass = _norm_cdf((high - obs) / bw) - _norm_cdf((low - obs) / bw)

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.log:
            x = np.log(x)
        z = (x[:, None] - self.mu[None, :]) / self.sigma[None, :]
        dens = _norm_pdf(z) / self.sigma[None, :] / self.mass[None, :]
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, dens.mean(axis=1), 0.0)

    def sample(self, rng: np.random.Generator, n: int) -> list[float]:
        comp = rng.integers(0, self.mu.size, size=n)
        mu = self.mu[comp]
        sigma = self.sigma[comp]
        lo_u = _norm_cdf((self.low - mu) / sigma)
        hi_u = _norm_cdf((self.high - mu) / sigma)
        u = rng.uniform(lo_u, hi_u)
        x = np.clip(mu + sigma * _norm_ppf(u), self.low, self.high)
        return [float(np.exp(v)) for v in x] if self.log else [float(v) for v in x]


class _DiscreteParzen:
    """Add-one-smoothed category counts over a fixed universe."""

    def __init__(self, values: Sequence, universe: Sequence):
        self.universe = list(universe)
        index = {v: i for i, v in enumerate(self.universe)}
        counts = np.ones(len(self.universe), dtype=np.float64)
        for v in values:
            if v not in index:
                raise ValueError(f"value {v!r} is not among {self.universe}")
            counts[index[v]] += 1.0
        self.probs = counts / counts.sum()
        self._index = index

    def pdf(self, values) -> np.ndarray:
        return np.asarray([self.probs[self._index[v]] for v in values])

    def sample(self, rng: np.random.Generator, n: int) -> list:
        idx = rng.choice(len(self.universe), size=n, p=self.probs)
        return [self.universe[i] for i in idx]


def _universe(spec: ParamSpec) -> Sequence | None:
    """The values of a discrete dimension; None for a continuous one."""
    if spec.kind == "integer_uniform":
        return range(int(spec.low), int(spec.high) + 1)
    return spec.choices if spec.kind == "choice" else None


def _fit(spec: ParamSpec, values: list):
    """The dimension's Parzen density over the observed ``values``."""
    universe = _universe(spec)
    if universe is not None:
        return _DiscreteParzen(values, universe)
    return _ContinuousParzen(values, spec.low, spec.high, log=spec.kind == "log_uniform")


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


def suggest_with_trace(history: Sequence[Trial], space: SearchSpace, cfg: TpeConfig):
    """Next parameter point plus the internals that produced it."""
    rng = np.random.default_rng([cfg.seed, len(history)])
    complete = [t for t in history if t.status == "complete"]

    n_good = math.ceil(GAMMA * len(complete))
    # a degenerate split leaves too few trials to model "bad"
    if len(complete) < cfg.n_startup or n_good >= len(complete):
        params = {p.name: _sample_uniform(p, rng) for p in space.params}
        return params, SuggestTrace(mode="startup")

    ranked = sorted(range(len(complete)), key=lambda i: -complete[i].objective)
    good = [complete[i] for i in ranked[:n_good]]
    bad = [complete[i] for i in ranked[n_good:]]

    candidate_values: dict[str, list] = {}
    log_ratios = np.zeros(N_CANDIDATES)
    for spec in space.params:
        l_density = _fit(spec, [t.params[spec.name] for t in good])
        g_density = _fit(spec, [t.params[spec.name] for t in bad])
        cands = l_density.sample(rng, N_CANDIDATES)
        candidate_values[spec.name] = cands
        log_ratios += np.log(l_density.pdf(cands)) - np.log(g_density.pdf(cands))

    chosen = int(np.argmax(log_ratios))
    candidates = tuple(
        {name: vals[j] for name, vals in candidate_values.items()}
        for j in range(N_CANDIDATES)
    )
    return candidates[chosen], SuggestTrace(
        mode="tpe",
        candidates=candidates,
        log_ratios=tuple(float(v) for v in log_ratios),
        chosen=chosen,
    )


def suggest(history: Sequence[Trial], space: SearchSpace, cfg: TpeConfig) -> dict:
    params, _ = suggest_with_trace(history, space, cfg)
    return params


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
    does. When the space holds the decoder defaults, they are evaluated as
    trial 0, so the returned best can never be worse than the baseline. A
    map whose image has no ground truth is left out of every score, so it
    is never decoded. Trials run in this process, in map order: with the
    memos below a trial costs less than a round trip to a worker process
    would.

    In ``top1`` mode a trial reads only each map's first detection, the
    one ``match_image`` matches, with one ``top_detections`` call for all
    its maps: a region of the map's top class, the first whose maximum is
    the highest, which the map keeps, with window winners only where that
    maximum ties in its class. Each class memoises its first regions by
    the interval of ``alpha * maximum`` over which they stay the same,
    each with its detection, so across trials a region is grown and its
    detection built once, not once per trial; a threshold between two
    known regions is grown inside the larger one. The regions a trial
    misses, which cluster in the trials that try a new alpha, are labelled
    together, in one ``ndimage.label`` call per crop round. Each map also
    memoises the match outcome of every first detection it has scored, so
    a trial that repeats one neither rescales nor rematches it: on a
    repeat, a trial is a lookup.

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
    # match_image marks a map without ground truth excluded, whatever it
    # decodes, and accuracy leaves it out. Each scored map keeps the outcome
    # of each first detection seen: within this call match_image depends on
    # nothing else, and Detections hash by value.
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

    def score(meta, dets):
        dets = [detection_to_net416(det, meta) for det in dets]
        return harness.match_image(dets, gts_net416[meta.image_id], iou_threshold,
                                   mode=mode, image_id=meta.image_id)

    scored_maps = [prepared for _, prepared, _ in scored]

    def score_top1(params: DecodeParams) -> list:
        results = []
        for (meta, _, memo), top in zip(scored, top_detections(scored_maps, params)):
            result = memo.get(top)  # a hit hashes the detection once
            if result is None:
                result = memo[top] = score(meta, [] if top is None else [top])
            results.append(result)
        return results

    def first_hit(meta, prepared, params: DecodeParams):
        # the objective reads only `hit`, which any one hitting region settles
        for k in range(1, prepared.shape[0]):
            for region in iter_regions(prepared, k, params):
                result = score(meta, [region_to_detection(region)])
                if result.outcomes[iou_threshold].hit:
                    return result
        return score(meta, [])

    def score_greedy_multi(params: DecodeParams) -> list:
        return [first_hit(meta, prepared, params) for meta, prepared, _ in scored]

    # as in eval, an annotated image without a map is a miss in every trial
    unmapped = harness.match_images(
        {}, {i: boxes for i, boxes in gts_net416.items() if i not in mapped}, iou_threshold, mode)

    # the defaults go first only where the space can hold them: a value
    # outside a dimension's domain would break that dimension's density fit
    names = {p.name for p in space.params}
    trial0 = {k: v for k, v in defaults.items() if k in names}
    held = all(_holds(spec, trial0[spec.name]) for spec in space.params)

    score_maps = score_top1 if mode == "top1" else score_greedy_multi

    def objective(raw: dict) -> float:
        return harness.accuracy(score_maps(to_params(raw)) + unmapped, iou_threshold)

    best, history = optimize(objective, space, budget, cfg,
                             initial_params=[trial0] if held else [])
    return to_params(best.params), best, history
