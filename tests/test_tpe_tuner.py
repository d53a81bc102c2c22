import hashlib
import json
import math
import re
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, special

from literati.annotation_store import NET_SIZE, rescale_box
from literati.eval_harness import accuracy, match_images
from literati.map_decoder import (DecodeParams, LoadedMap, MapMeta, PreparedMap, decode,
                                  detection_to_net416)
from literati.synthetic import make_planted_maps
from literati.tpe_tuner import (
    GAMMA,
    MAX_INTEGER_VALUES,
    N_CANDIDATES,
    PARAM_KINDS,
    ParamSpec,
    SearchSpace,
    TpeConfig,
    Trial,
    _suggest,
    default_decoder_space,
    optimize,
    suggest,
    tune_decoder,
    write_trials,
)


def _space_1d(low=0.0, high=10.0):
    return SearchSpace((ParamSpec("x", "uniform", low, high),))


def _mixed_space():
    return SearchSpace((
        ParamSpec("x", "uniform", -2.0, 5.0),
        ParamSpec("lr", "log_uniform", 1e-4, 1.0),
        ParamSpec("d", "integer_uniform", 1, 8),
        ParamSpec("mode", "choice", choices=("a", "b", "c")),
    ))


def _trial(params, objective):
    return Trial(params=params, objective=objective, status="complete")


# --- suggest -------------------------------------------------------------------

def test_startup_phase_draws_uniform():
    cfg = TpeConfig(n_startup=10, seed=5)
    history = [_trial({"x": 1.0}, -1.0)] * 3
    params, tpe = _suggest(history, _space_1d(), cfg)
    assert tpe is None  # a start-up point
    assert 0.0 <= params["x"] <= 10.0


def test_suggest_deterministic():
    cfg = TpeConfig(seed=13)
    history = [_trial({"x": float(i)}, -abs(i - 4)) for i in range(12)]
    assert suggest(history, _space_1d(), cfg) == suggest(history, _space_1d(), cfg)


def test_suggest_is_the_traced_suggestion_without_its_trace():
    # one core serves both: the same draws give the same point, start-up or TPE
    cfg = TpeConfig(n_startup=4, seed=7)
    history, modes = [], set()
    for i in range(16):
        params, tpe = _suggest(history, _mixed_space(), cfg)
        assert suggest(history, _mixed_space(), cfg) == params
        if tpe is not None:
            candidate_values, log_ratios, chosen = tpe
            assert params == {name: vals[chosen] for name, vals in candidate_values.items()}
            assert all(len(vals) == len(log_ratios) for vals in candidate_values.values())
        modes.add("startup" if tpe is None else "tpe")
        history.append(_trial(params, -abs(params["x"] - 1.0) - params["d"] / 8))
    assert modes == {"startup", "tpe"}


def test_suggest_prefers_good_cluster():
    # top-gamma trials cluster in [2.0, 2.2]; the chosen candidate must
    # maximize l(x)/g(x) over the candidate set (checked via the trace and
    # an independent density evaluation over the same candidates)
    rng = np.random.default_rng(3)
    history = []
    for _ in range(8):
        x = float(rng.uniform(2.0, 2.2))
        history.append(_trial({"x": x}, 100.0 - abs(x - 2.1)))
    for _ in range(22):
        x = float(rng.uniform(0.0, 10.0))
        history.append(_trial({"x": x}, -abs(x - 2.1)))
    cfg = TpeConfig(n_startup=10, seed=0)
    params, tpe = _suggest(history, _space_1d(), cfg)
    assert tpe is not None  # a TPE point
    candidate_values, log_ratios, chosen = tpe
    assert 0.0 <= params["x"] <= 10.0
    assert all(log_ratios[chosen] >= r for r in log_ratios)

    # independent truncated-normal mixture evaluation on the candidate set
    complete = sorted(history, key=lambda t: -t.objective)
    n_good = math.ceil(GAMMA * len(complete))
    good = np.sort([t.params["x"] for t in complete[:n_good]])
    bad = np.sort([t.params["x"] for t in complete[n_good:]])

    def kde(points, x):
        span = 10.0
        floor = span / min(100, len(points))
        total = 0.0
        for i, mu in enumerate(points):
            gaps = []
            if i > 0:
                gaps.append(points[i] - points[i - 1])
            if i < len(points) - 1:
                gaps.append(points[i + 1] - points[i])
            bw = max(gaps + [floor])
            z = (x - mu) / bw
            pdf = math.exp(-0.5 * z * z) / (bw * math.sqrt(2 * math.pi))
            mass = 0.5 * (math.erf((10.0 - mu) / (bw * math.sqrt(2)))
                          - math.erf((0.0 - mu) / (bw * math.sqrt(2))))
            total += pdf / mass
        return total / len(points)

    ratios = [math.log(kde(good, x)) - math.log(kde(bad, x)) for x in candidate_values["x"]]
    assert np.argmax(ratios) == chosen
    np.testing.assert_allclose(ratios, log_ratios, rtol=1e-9)


def test_suggest_bound_respect_1000():
    space = _mixed_space()
    rng = np.random.default_rng(17)
    history = []
    for i in range(1000):
        cfg = TpeConfig(seed=int(rng.integers(0, 1 << 31)))
        params = suggest(history, space, cfg)
        assert -2.0 <= params["x"] <= 5.0
        assert 1e-4 <= params["lr"] <= 1.0
        assert params["d"] in range(1, 9) and isinstance(params["d"], int)
        assert params["mode"] in ("a", "b", "c")
        if len(history) < 40:  # keep density fits over a realistic history
            history.append(_trial(params, float(rng.normal())))


def test_uniform_spec_with_choices_stays_continuous():
    # the kind alone decides the domain: choices on a uniform spec are ignored
    space = SearchSpace((ParamSpec("x", "uniform", 0.0, 1.0, choices=(1, 2)),))
    _, history = optimize(lambda p: -(p["x"] - 0.3) ** 2, space, 30, TpeConfig(seed=0))
    xs = [t.params["x"] for t in history]
    assert all(isinstance(x, float) and 0.0 <= x <= 1.0 for x in xs)
    assert len(set(xs)) == len(xs)


def test_failed_trials_excluded_from_fit():
    cfg = TpeConfig(n_startup=2, seed=1)
    history = [
        _trial({"x": 2.0}, 5.0),
        _trial({"x": 2.1}, 4.0),
        _trial({"x": 8.0}, 0.0),
        Trial(params={"x": 9.0}, objective=float("nan"), status="failed"),
    ]
    params, tpe = _suggest(history, _space_1d(), cfg)
    assert tpe is not None  # a TPE point
    assert 0.0 <= params["x"] <= 10.0


def test_empty_space_rejected():
    with pytest.raises(ValueError):
        SearchSpace(())


def test_param_spec_validation():
    with pytest.raises(ValueError):
        ParamSpec("x", "uniform", 5.0, 1.0)
    with pytest.raises(ValueError):
        ParamSpec("x", "log_uniform", 0.0, 1.0)
    with pytest.raises(ValueError):
        ParamSpec("x", "choice", choices=())
    with pytest.raises(ValueError):
        ParamSpec("x", "banana", 0.0, 1.0)


def test_integer_range_holds_at_most_max_integer_values():
    # the densities list every value of the range
    ParamSpec("d", "integer_uniform", 1, MAX_INTEGER_VALUES)
    with pytest.raises(ValueError, match=f"holds more than {MAX_INTEGER_VALUES} values"):
        ParamSpec("d", "integer_uniform", 0, MAX_INTEGER_VALUES)


# --- reference: the per-dimension Parzen densities that _suggest replaced ----------
# Kept verbatim: the whole-array _suggest must give the same draws, the same
# candidates and the same log ratios, bit for bit.

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def _sample_uniform(spec: ParamSpec, rng: np.random.Generator):
    universe = _universe(spec)
    if universe is not None:
        return universe[int(rng.integers(0, len(universe)))]
    if spec.kind == "log_uniform":
        return float(np.exp(rng.uniform(math.log(spec.low), math.log(spec.high))))
    return float(rng.uniform(spec.low, spec.high))


def _reference_suggest(history: Sequence[Trial], space: SearchSpace, cfg: TpeConfig):
    """Next parameter point, and for a TPE point its candidate values per
    dimension, their log density ratios and the chosen candidate's index;
    None in their place for a start-up point."""
    rng = np.random.default_rng([cfg.seed, len(history)])
    complete = [t for t in history if t.status == "complete"]

    n_good = math.ceil(GAMMA * len(complete))
    # a degenerate split leaves too few trials to model "bad"
    if len(complete) < cfg.n_startup or n_good >= len(complete):
        return {p.name: _sample_uniform(p, rng) for p in space.params}, None

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
    params = {name: vals[chosen] for name, vals in candidate_values.items()}
    return params, (candidate_values, log_ratios, chosen)


def _reference(history, space, cfg):
    with np.errstate(divide="ignore"):
        return _reference_suggest(history, space, cfg)


_CHOICE_VALUES = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.booleans(), st.none(),
                           st.text("abc", max_size=2))


@st.composite
def _param_specs(draw, name):
    kind = draw(st.sampled_from(PARAM_KINDS))
    if kind == "uniform":  # bounds that are ints or floats
        low = draw(st.integers(-50, 50) | st.floats(-50.0, 50.0))
        return ParamSpec(name, kind, low, low + draw(st.integers(1, 100) | st.floats(0.01, 100.0)))
    if kind == "log_uniform":
        low = draw(st.floats(1e-6, 10.0))
        return ParamSpec(name, kind, low, low * draw(st.floats(1.5, 1e6)))
    if kind == "integer_uniform":
        low = draw(st.integers(-5, 5))
        return ParamSpec(name, kind, low, low + draw(st.integers(1, 12)))
    choices = draw(st.lists(_CHOICE_VALUES, min_size=1, max_size=5, unique=True))
    return ParamSpec(name, kind, choices=tuple(choices))


def _values(spec):
    """A trial's value of the dimension: bounds and midpoints repeat, so
    kernels tie; an integer may be given as a float, found by equality; a
    bound of 0 may be given as -0.0, which np.clip keeps and np.maximum
    turns into 0.0."""
    if spec.kind == "choice":
        return st.sampled_from(spec.choices)
    if spec.kind == "integer_uniform":
        ints = st.integers(int(spec.low), int(spec.high))
        return ints | ints.map(float)
    mid = spec.low + (spec.high - spec.low) / 2
    zero = [-0.0] if spec.low == 0 else []
    return st.floats(spec.low, spec.high) | st.sampled_from([spec.low, spec.high, mid, *zero])


@st.composite
def _suggest_cases(draw):
    names = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    space = SearchSpace(tuple(draw(_param_specs(name)) for name in names))
    history = []
    for _ in range(draw(st.integers(1, 80))):
        params = {p.name: draw(_values(p)) for p in space.params}
        if draw(st.integers(0, 5)) == 0:
            history.append(Trial(params=params, objective=float("nan"), status="failed"))
        else:  # objectives from a short list tie
            objective = draw(st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-10.0, 10.0))
            history.append(_trial(params, objective))
    cfg = TpeConfig(n_startup=draw(st.sampled_from([1, 3, 10])), seed=draw(st.integers(0, 2**32)))
    return history, space, cfg


@settings(max_examples=400, deadline=None)
@given(_suggest_cases())
def test_suggest_equals_the_per_dimension_reference_bit_for_bit(case):
    history, space, cfg = case
    params, tpe = _suggest(history, space, cfg)
    want_params, want = _reference(history, space, cfg)
    assert repr(params) == repr(want_params)  # types and signs of zero too
    if want is None:
        assert tpe is None
        return
    candidate_values, log_ratios, chosen = tpe
    want_values, want_ratios, want_chosen = want
    assert chosen == want_chosen
    assert repr(candidate_values) == repr(want_values)
    assert log_ratios.tobytes() == want_ratios.tobytes()


def test_suggest_far_from_every_bad_kernel_keeps_its_infinite_ratios():
    # g underflows to 0 at a candidate about 38 bandwidths from every bad
    # kernel: its log ratio is +inf, without a divide-by-zero warning, and
    # the first such candidate is chosen, as before the warning was silenced
    good = [_trial({"x": 9.86 + 0.005 * i}, 1.0 + i) for i in range(15)]
    bad = [_trial({"x": i / 100}, -1.0 - i) for i in range(45)]
    cfg = TpeConfig(seed=0)
    params, (_, log_ratios, chosen) = _suggest(good + bad, _space_1d(), cfg)
    assert math.inf in log_ratios.tolist()
    assert chosen == log_ratios.tolist().index(math.inf)
    want_params, (_, want_ratios, want_chosen) = _reference(good + bad, _space_1d(), cfg)
    assert params == want_params and chosen == want_chosen
    assert log_ratios.tobytes() == want_ratios.tobytes()


def test_suggest_rejects_value_outside_the_domain():
    space = SearchSpace((ParamSpec("d", "choice", choices=(1, 4, 8)),))
    history = [_trial({"d": d}, float(i)) for i, d in enumerate([1, 4, 8, 3])]
    with pytest.raises(ValueError, match=re.escape("value 3 is not among [1, 4, 8]")):
        suggest(history, space, TpeConfig(n_startup=2))


@pytest.mark.parametrize("choices, message", [
    ((2, 2.0, 5), "choices 2 and 2.0 are equal"),
    ((1, True), "choices 1 and True are equal"),
    (("a", "b", "a"), "choices 'a' and 'a' are equal"),
], ids=["int-float", "int-bool", "strings"])
def test_param_spec_refuses_equal_choices(choices, message):
    # each choice is found by equality, so two equal ones would share a count
    with pytest.raises(ValueError, match=re.escape(f"param 'd': {message}")):
        ParamSpec("d", "choice", choices=choices)


# --- optimize -------------------------------------------------------------------

def test_optimize_budget_one():
    best, history = optimize(lambda p: -(p["x"] - 2) ** 2, _space_1d(), 1,
                             TpeConfig(seed=0))
    assert len(history) == 1
    assert best == history[0]


def test_optimize_constant_objective():
    best, history = optimize(lambda p: 1.5, _space_1d(), 8, TpeConfig(seed=2))
    assert best.objective == 1.5
    assert len(history) == 8


def test_optimize_records_failures():
    def objective(p):
        if p["x"] > 5.0:
            raise RuntimeError("boom")
        return p["x"]

    best, history = optimize(objective, _space_1d(), 30, TpeConfig(seed=4))
    statuses = {t.status for t in history}
    assert "failed" in statuses and "complete" in statuses
    assert best.status == "complete"
    assert best.params["x"] <= 5.0


def test_optimize_all_failed():
    def objective(p):
        raise RuntimeError("always")

    with pytest.raises(RuntimeError, match="all trials failed"):
        optimize(objective, _space_1d(), 3, TpeConfig(seed=0))


def test_optimize_budget_zero_rejected():
    with pytest.raises(ValueError):
        optimize(lambda p: 0.0, _space_1d(), 0, TpeConfig())


def test_best_so_far_monotone():
    _, history = optimize(lambda p: -(p["x"] - 2) ** 2, _space_1d(), 40,
                          TpeConfig(seed=6))
    best_so_far = -np.inf
    seq = []
    for t in history:
        if t.status == "complete":
            best_so_far = max(best_so_far, t.objective)
        seq.append(best_so_far)
    assert seq == sorted(seq)


def test_quadratic_beats_random_search_quick():
    # light version of the acceptance benchmark: 6 seeds, budget 40
    tpe_best, rs_best = [], []
    for seed in range(6):
        best, _ = optimize(lambda p: -(p["x"] - 2) ** 2, _space_1d(), 40,
                           TpeConfig(seed=seed))
        tpe_best.append(best.objective)
        xs = np.random.default_rng(seed).uniform(0, 10, 40)
        rs_best.append(float((-(xs - 2) ** 2).max()))
    assert np.median(tpe_best) >= np.median(rs_best)


def test_2d_quadratic_beats_random_search():
    space = SearchSpace((ParamSpec("x", "uniform", -5.0, 5.0),
                         ParamSpec("y", "uniform", -6.0, 2.0)))
    objective = lambda p: -((p["x"] - 1.0) ** 2 + (p["y"] + 3.0) ** 2)
    tpe_best, rs_best = [], []
    for seed in range(20):
        best, _ = optimize(objective, space, 60, TpeConfig(seed=seed))
        tpe_best.append(best.objective)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-5, 5, 60)
        ys = rng.uniform(-6, 2, 60)
        rs_best.append(float((-((xs - 1) ** 2 + (ys + 3) ** 2)).max()))
    assert np.median(tpe_best) >= np.median(rs_best)


def test_optimize_deterministic():
    runs = []
    for _ in range(2):
        _, history = optimize(lambda p: -(p["x"] - 2) ** 2, _space_1d(), 25,
                              TpeConfig(seed=3))
        runs.append([(t.params["x"], t.objective) for t in history])
    assert runs[0] == runs[1]


# sha256 of the trial log of `optimize` over all four kinds, 40 trials per
# seed, recorded before each kind's density and domain were resolved in one place
OPTIMIZE_DIGESTS = {
    0: "7db2f6d5efa8d3c0903c2699adc94cc16ea43502c66de5c83e4b42645ff6ab0e",
    1: "464f11f7d29f2061373475162696b9a34d7bd66086df812b748ae140cce2ec23",
    2: "eccea9bc9782b3a1ed28274cd3704ec55dbfeb48ffbc3033f1c7c73a9db9b424",
    3: "824ba1e07fd3dfa2b240bf69ea4f8c8f8b71999d39fa54cb643ab32844ef2154",
    4: "39b3e8a420067953d7847ea3804b5e3bef73de68fa1e51f94c9343d017888705",
    5: "2cc94e429e60042f0c4b1f831a60326df5283b3104b831cdc7c585aee5a99c35",
}


# the same at 140 trials, recorded before the densities were fitted as whole
# arrays: with 105 bad trials the min(100, n) bandwidth floor is reached
OPTIMIZE_DIGESTS_140 = {
    0: "ed4a55c2ae68b274c5e3f5319ea4aff6540088c3e1c56a7eebc6cb21e58f62ce",
    1: "06eb889a47a80d4bd185f5f24aa4cec52422c0bff7fc00c540160fc8786b9c82",
    2: "c29e62cd446da0c2f10ad00df0e6c072b87895960a3cf3bd8b57b35115d35722",
    3: "24a1779f0dc4c150604a23de8d9cbe5c41b7a9c91808f9a9b265cbcfcb8dcfe3",
    4: "f7cbc034ab85bdfcba8ca277e868ff6b79321b13d132c9c98c881161a1ddf70e",
    5: "c710c093b2121ded1fb96193632b02bc70dee314046f60f944f22f05ccc53e52",
}


def _pinned_log_digest(tmp_path, seed, budget):
    def objective(p):
        return (-(p["x"] - 1.5) ** 2 - (math.log10(p["lr"]) + 2.0) ** 2
                - 0.3 * abs(p["d"] - 5) + {"a": 0.0, "b": 0.7, "c": 0.2}[p["mode"]])

    _, history = optimize(objective, _mixed_space(), budget, TpeConfig(seed=seed))
    assert len({t.objective for t in history}) == budget
    path = tmp_path / "trials.json"
    write_trials(path, history)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(OPTIMIZE_DIGESTS))
def test_optimize_log_digest_is_pinned(tmp_path, seed):
    assert _pinned_log_digest(tmp_path, seed, 40) == OPTIMIZE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(OPTIMIZE_DIGESTS_140))
def test_optimize_log_digest_is_pinned_at_140_trials(tmp_path, seed):
    assert _pinned_log_digest(tmp_path, seed, 140) == OPTIMIZE_DIGESTS_140[seed]


# --- tune_decoder -----------------------------------------------------------------

def _prepared(maps):
    """What tune_decoder takes: each map's meta with the map freshly prepared."""
    return [(m.meta, PreparedMap(m.logits)) for m in maps]


def _never(k, inner, outer):
    """A ``top_detections`` ``decides`` that takes no pair of boxes."""
    return False


def _tune_fixture():
    # bumps whose peak probability sits just under the default tau, so the
    # default parameters find nothing and tuning must lower tau
    maps = make_planted_maps(10, seed=40, amplitude_range=(2.35, 2.45),
                             baseline=2.5, sigma_range=(2.8, 3.2))
    gts = {p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                             for b in p.boxes]
           for p in maps}
    return maps, gts


def test_tune_decoder_beats_default_baseline():
    maps, gts = _tune_fixture()
    # defaults decode nothing on these weak peaks
    assert decode(maps[0].logits, DecodeParams()) == []
    best_params, best, history = tune_decoder(
        _prepared(maps), gts, budget=40, cfg=TpeConfig(seed=1))
    assert history[0].params == {"d": 3, "tau": 0.5, "alpha": 0.5}  # baseline
    assert best.objective >= history[0].objective
    assert best.objective > 0.5
    assert isinstance(best_params, DecodeParams)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tune_decoder_beats_its_defaults_and_matches_random_search(seed):
    # two peaks per map, boxes drawn at alpha 0.85: the default alpha of 0.5
    # grows regions far larger than the boxes, so at IoU 0.7 the choice of
    # parameters decides the score; random search is the same call with
    # every trial sampled uniformly (Bergstra et al. 2011). Both often reach
    # the same best, so the trials after the 10 start-up ones must also score
    # higher on average, where TPE samples from its fitted densities
    planted = make_planted_maps(20, seed, peaks_per_image=2, alpha=0.85)
    gts = {p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                             for b in p.boxes]
           for p in planted}
    _, best, history = tune_decoder(_prepared(planted), gts, budget=30,
                                    cfg=TpeConfig(seed=seed), iou_threshold=0.7)
    _, random_best, random_history = tune_decoder(_prepared(planted), gts, budget=30,
                                                  cfg=TpeConfig(seed=seed, n_startup=30),
                                                  iou_threshold=0.7)
    assert history[0].params == {"d": 3, "tau": 0.5, "alpha": 0.5}
    assert history[0].objective < best.objective
    assert best.objective >= random_best.objective
    assert (np.mean([t.objective for t in history[10:]])
            > np.mean([t.objective for t in random_history[10:]]))


def test_tune_decoder_budget_zero():
    maps, gts = _tune_fixture()
    with pytest.raises(ValueError):
        tune_decoder(_prepared(maps), gts, budget=0)


def test_tune_decoder_requires_ground_truth():
    maps, _ = _tune_fixture()
    with pytest.raises(ValueError, match="ground-truth"):
        tune_decoder(_prepared(maps), {}, budget=5)


def test_tune_decoder_deterministic_log():
    maps, gts = _tune_fixture()
    logs = []
    for _ in range(2):
        _, _, history = tune_decoder(_prepared(maps), gts, budget=12, cfg=TpeConfig(seed=2))
        logs.append([t.to_dict() for t in history])
    assert logs[0] == logs[1]


def _noise_fixture():
    # smoothed noise, many regions per map, and one quantized map whose
    # maxima tie; each ground-truth box is the top region at a random alpha,
    # so the trials score differently
    rng = np.random.default_rng(61)
    maps, gts = [], {}
    for i in range(6):
        h, w = (24, 30) if i % 2 else (32, 20)
        if i == 5:
            logits = rng.choice([-1.0, 0.0, 0.5, 1.5], size=(3, h, w))
        else:
            smooth = ndimage.gaussian_filter(rng.normal(size=(3, h, w)), sigma=(0, 1.5, 1.5))
            logits = 3 * smooth / smooth.std()
        meta = MapMeta(f"noise{i}", ("background", "pneumonia", "pneumothorax"), size=(w, h))
        params = DecodeParams(d=2, tau=0.05, alpha=float(rng.uniform(0.2, 0.95)))
        top = decode(logits, params)[0]
        maps.append(LoadedMap(meta, logits))
        gts[meta.image_id] = [detection_to_net416(top, meta).box]
    return maps, gts


_D_CHOICE = SearchSpace((ParamSpec("d", "choice", choices=(1, 4, 8)),
                         ParamSpec("tau", "uniform", 0.05, 0.9),
                         ParamSpec("alpha", "uniform", 0.2, 0.95)))


def _with_edge_cases(maps, gts):
    """``maps`` and ``gts`` plus a map whose top class holds its maximum at
    several cells, a second box on the first image, an annotated image
    without a map and an unannotated image without a map."""
    rng = np.random.default_rng(62)
    logits = rng.choice([-1.0, 0.0, 0.5], size=(3, 12, 16))
    logits[:, 3, 4] = logits[:, 8, 11] = (-1.0, 1.5, -1.0)  # class 1's maximum, twice
    meta = MapMeta("tied", ("background", "pneumonia", "pneumothorax"), size=(16, 12))
    assert not PreparedMap(logits)._top.unique
    first = maps[0]
    second = decode(first.logits, DecodeParams(d=2, tau=0.05, alpha=0.9))[0]
    return [*maps, LoadedMap(meta, logits)], {
        **gts,
        first.meta.image_id: [*gts[first.meta.image_id],
                              detection_to_net416(second, first.meta).box],
        "tied": [detection_to_net416(decode(logits, DecodeParams(d=2, tau=0.05))[0], meta).box],
        "no-map": gts[first.meta.image_id][:1],
        "no-map-no-boxes": [],
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("space", [None, _D_CHOICE], ids=["default", "d-choice"])
@pytest.mark.parametrize("fixture", ["planted", "noise"])
def test_tune_decoder_log_equals_fresh_decode_loop(monkeypatch, fixture, space, workers):
    # the tuner reads each map prepared once, and only its top detections,
    # and settles a map from the boxes of two memoised first regions where
    # they decide it; a loop that decodes the raw logits in full in every
    # trial and scores every image as eval does must log the same trials
    import literati.eval_harness as harness
    import literati.map_decoder as map_decoder

    maps, gts = _with_edge_cases(*(_noise_fixture() if fixture == "noise" else _tune_fixture()))
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    verdicts, grown = [], []  # hit_between's answers; the first regions grown
    real_between, real_settle = harness.hit_between, map_decoder._Channel._settle
    monkeypatch.setattr(harness, "hit_between",
                        lambda *args: verdicts.append(real_between(*args)) or verdicts[-1])
    monkeypatch.setattr(map_decoder._Channel, "_settle",
                        lambda *args: grown.append(args) or real_settle(*args))
    cfg = TpeConfig(seed=3)
    for iou_threshold in (0.1, 0.5, 0.7):
        verdicts.clear()
        grown.clear()
        _, _, history = tune_decoder(_prepared(maps), gts, space=space, budget=40, cfg=cfg,
                                     iou_threshold=iou_threshold)

        def objective(raw):
            merged = {"d": 3, "tau": 0.5, "alpha": 0.5, **raw}
            params = DecodeParams(d=int(merged["d"]), tau=float(merged["tau"]),
                                  alpha=float(merged["alpha"]))
            per_image = {m.meta.image_id: [detection_to_net416(det, m.meta)
                                           for det in decode(m.logits, params)]
                         for m in maps}
            return accuracy(match_images(per_image, gts, iou_threshold, "top1"), iou_threshold)

        # the tuner tries the defaults first only where the space holds d=3
        trial0 = [] if space else [{"d": 3, "tau": 0.5, "alpha": 0.5}]
        _, want = optimize(objective, space or default_decoder_space(), 40, cfg,
                           initial_params=trial0)
        assert [t.to_dict() for t in history] == [t.to_dict() for t in want]
        assert len({t.objective for t in history}) > 1
        # some maps were settled from two boxes, and some first regions grown
        assert any(v is not None for v in verdicts) and grown


def test_tune_decoder_rejects_unknown_param():
    maps, gts = _tune_fixture()
    space = SearchSpace((ParamSpec("tau", "uniform", 0.1, 0.9),
                         ParamSpec("gamma", "uniform", 0.1, 0.9)))
    with pytest.raises(ValueError, match="'gamma' is not a decoder parameter"):
        tune_decoder(_prepared(maps), gts, space=space, budget=5)


@pytest.mark.parametrize("space, holds", [
    ((ParamSpec("d", "choice", choices=(1, 4, 8)),), False),
    ((ParamSpec("d", "choice", choices=(1, 3, 8)),), True),
    ((ParamSpec("tau", "uniform", 0.6, 0.9),), False),
    ((ParamSpec("d", "integer_uniform", 4, 8),), False),
    ((ParamSpec("alpha", "log_uniform", 0.1, 0.5),), True),  # the bound itself
], ids=["choice-without", "choice-with", "uniform-above", "integer-above", "bound"])
def test_tune_decoder_tries_defaults_only_inside_the_space(space, holds):
    maps, gts = _tune_fixture()
    _, _, history = tune_decoder(_prepared(maps), gts, space=SearchSpace(space), budget=14,
                                 cfg=TpeConfig(seed=5))
    name = space[0].name
    default = getattr(DecodeParams(), name)
    assert (history[0].params == {name: default}) == holds
    assert all(t.status == "complete" for t in history)


@pytest.mark.parametrize("space, mode", [
    (None, "top1"),
    (SearchSpace((ParamSpec("d", "choice", choices=(1, 4, 8)),
                  ParamSpec("tau", "uniform", 0.1, 0.9))), "top1"),
    (None, "greedy_multi"),
], ids=["default", "d-choice", "greedy_multi"])
def test_tune_decoder_log_does_not_depend_on_worker_count(monkeypatch, caplog, space, mode):
    # some maps fail at low tau, each with its own message: a failed trial's
    # warning must name the first failing map in map order. The top-1
    # objective reads only the top detections, all of a trial's maps in one
    # call, in map order; greedy_multi reads each class's region stream up
    # to the first hit.
    import literati.map_decoder as map_decoder

    scorer = "top_detections" if mode == "top1" else "iter_regions"
    real = getattr(map_decoder, scorer)

    def failing(maps, *args):
        params = args[0] if mode == "top1" else args[-1]  # (params, decides) or (k, params)
        for prepared in maps if mode == "top1" else [maps]:
            peak = int(prepared._class(1).p.argmax())
            if params.tau < 0.3 and peak % 3:
                raise ValueError(f"no decode below tau 0.3 at cell {peak}")
        return real(maps, *args)

    monkeypatch.setattr(map_decoder, scorer, failing)
    maps, gts = _tune_fixture()
    runs = set()
    for workers in (1, 2, 3):
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        caplog.clear()
        _, _, history = tune_decoder(_prepared(maps), gts, space=space, budget=16,
                                     cfg=TpeConfig(seed=3), mode=mode)
        warnings = tuple(r.getMessage() for r in caplog.records if r.levelname == "WARNING")
        runs.add((json.dumps([t.to_dict() for t in history]), warnings))
    assert len(runs) == 1
    log, warnings = runs.pop()
    statuses = {t["status"] for t in json.loads(log)}
    assert statuses == {"complete", "failed"} and warnings


@pytest.mark.parametrize("mode", ["top1", "greedy_multi"])
def test_no_tune_mode_forks(monkeypatch, mode):
    # a memoised trial costs less than a round trip to a worker, so no trial
    # of either mode forks one
    import literati.shards as shards

    def fork(fn, n):
        raise AssertionError(f"a {mode} tune forked")

    monkeypatch.setattr(shards, "_fork", fork)
    monkeypatch.setenv("LITERATI_THREADS", "2")
    maps, gts = _tune_fixture()
    _, _, history = tune_decoder(_prepared(maps), gts, budget=4, mode=mode)
    assert [t.status for t in history] == ["complete"] * 4


@pytest.mark.parametrize("mode", ["top1", "greedy_multi"])
def test_tune_decodes_no_map_without_ground_truth(monkeypatch, mode):
    # such a map is excluded from accuracy whatever it decodes, so no trial
    # reads its detections, and the log is that of a run without it
    import literati.map_decoder as map_decoder

    maps, gts = _tune_fixture()
    unannotated = [LoadedMap(MapMeta(f"extra{i}", ("background", "pneumonia", "other"),
                                     size=(9, 7)),
                             np.random.default_rng(i).normal(size=(3, 7, 9)))
                   for i in range(2)]
    gts_with_empty = {**gts, "extra0": []}  # extra1 is not in the ground truth at all
    shapes = []

    def recorded(name, batched):
        real = getattr(map_decoder, name)

        def wrapper(maps, *args):
            shapes.extend(prepared.shape for prepared in (maps if batched else [maps]))
            return real(maps, *args)
        monkeypatch.setattr(map_decoder, name, wrapper)

    recorded("top_detections", batched=True)  # a top-1 trial reads all its maps at once
    recorded("iter_regions", batched=False)
    cfg = TpeConfig(seed=3)
    _, _, history = tune_decoder(_prepared(maps[:5] + unannotated + maps[5:]), gts_with_empty,
                                 budget=12, cfg=cfg, mode=mode)
    assert shapes and (3, 7, 9) not in shapes
    _, _, want = tune_decoder(_prepared(maps), gts, budget=12, cfg=cfg, mode=mode)
    assert [t.to_dict() for t in history] == [t.to_dict() for t in want]


def test_top1_trial_with_a_repeated_tie_group_matches_nothing(monkeypatch):
    import literati.eval_harness as harness
    import literati.tpe_tuner as tuner
    from literati.map_decoder import top_detections

    maps = make_planted_maps(6, seed=5)
    gts = {p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                             for b in p.boxes]
           for p in maps}
    # after the defaults: tau and d change under every maximum, alpha moves
    # by one part in 1e9 (the same first regions), then alpha moves far
    scripted = [{"d": 3, "tau": 0.2, "alpha": 0.5}, {"d": 7, "tau": 0.5, "alpha": 0.5},
                {"d": 1, "tau": 0.05, "alpha": 0.5 + 5e-10}, {"d": 3, "tau": 0.5, "alpha": 0.9}]
    for m in maps:
        tops = [top_detections([PreparedMap(m.logits)], DecodeParams(**raw), _never)[0][0]
                for raw in [{"d": 3, "tau": 0.5, "alpha": 0.5}, *scripted]]
        assert tops[0] is not None and tops[:4] == [tops[0]] * 4

    calls = []
    real = harness.match_image

    def counted(*args, **kwargs):
        calls.append(kwargs["image_id"])
        return real(*args, **kwargs)

    before_trial = []  # match_image calls made before each suggested trial

    def scripted_suggest(history, space, cfg):
        before_trial.append(len(calls))
        return scripted[len(history) - 1]

    monkeypatch.setattr(harness, "match_image", counted)
    monkeypatch.setattr(tuner, "suggest", scripted_suggest)
    _, _, history = tune_decoder(_prepared(maps), gts, budget=5)
    per_trial = np.diff([0, *before_trial, len(calls)]).tolist()
    assert per_trial[:4] == [len(maps), 0, 0, 0]
    assert per_trial[4] > 0
    assert [t.params for t in history[1:]] == scripted


def test_top1_trials_with_one_first_detection_match_once(monkeypatch):
    # class 1 holds the highest probability at one cell; class 2 ties it at
    # two cells 2 apart, one peak at d=3 and two at d=1. So the two trials'
    # first tie groups differ, while their first detection, class 1's
    # region, is the same, and only the first trial matches.
    import literati.eval_harness as harness
    import literati.tpe_tuner as tuner

    # at -40 the other class adds nothing to a tied cell's softmax sum, so
    # the three tied cells hold one probability exactly
    classes = np.full((2, 6, 8), -40.0)
    classes[0, 4, 6] = classes[1, 1, 2] = classes[1, 1, 4] = 0.0
    logits = np.concatenate([np.full((1, 6, 8), -2.0), classes])
    trials = [{"d": 3, "tau": 0.5, "alpha": 0.5}, {"d": 1, "tau": 0.5, "alpha": 0.5}]
    groups = []
    for raw in trials:
        dets = decode(logits, DecodeParams(**raw))
        groups.append([det for det in dets if det.confidence == dets[0].confidence])
    assert [len(g) for g in groups] == [2, 3]
    assert groups[0][0] == groups[1][0] and groups[0][0].class_index == 1

    meta = MapMeta("tied", ("background", "pneumonia", "pneumothorax"), size=(8, 6))
    gts = {"tied": [rescale_box(groups[0][0].box, meta.size, (NET_SIZE, NET_SIZE), "net416")]}
    calls = []
    real = harness.match_image

    def counted(*args, **kwargs):
        calls.append(kwargs["image_id"])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "match_image", counted)
    monkeypatch.setattr(tuner, "suggest", lambda history, space, cfg: trials[len(history)])
    _, _, history = tune_decoder([(meta, PreparedMap(logits))], gts, budget=2)
    assert [t.params for t in history] == trials
    assert [t.objective for t in history] == [1.0, 1.0]
    assert calls == ["tied"]


@pytest.mark.parametrize("fixture, space, mode, iou_threshold", [
    ("noise", _D_CHOICE, "top1", 0.5), ("noise", None, "top1", 0.5),
    ("planted", _D_CHOICE, "top1", 0.1), ("planted", None, "top1", 0.1),
    ("noise", None, "greedy_multi", 0.1), ("noise", _D_CHOICE, "greedy_multi", 0.5),
    ("planted", _D_CHOICE, "greedy_multi", 0.1), ("planted", None, "greedy_multi", 0.5),
], ids=["noise-d-choice", "noise-default", "planted-d-choice", "planted-default",
        "greedy_multi-noise-default-0.1", "greedy_multi-noise-d-choice-0.5",
        "greedy_multi-planted-d-choice-0.1", "greedy_multi-planted-default-0.5"])
def test_top1_objective_equals_memo_free_scoring(fixture, space, mode, iou_threshold):
    # each trial rescored from freshly prepared maps, with no memo of any
    # kind, from a full decode
    from literati.eval_harness import accuracy, match_images

    maps, gts = _noise_fixture() if fixture == "noise" else _tune_fixture()
    _, _, history = tune_decoder(_prepared(maps), gts, space=space, budget=24,
                                 cfg=TpeConfig(seed=5), iou_threshold=iou_threshold, mode=mode)
    for trial in history:
        merged = {"d": 3, "tau": 0.5, "alpha": 0.5, **trial.params}
        params = DecodeParams(d=int(merged["d"]), tau=float(merged["tau"]),
                              alpha=float(merged["alpha"]))
        per_image = {m.meta.image_id: [detection_to_net416(det, m.meta)
                                       for det in decode(PreparedMap(m.logits), params)]
                     for m in maps}
        results = match_images(per_image, gts, iou_threshold, mode)
        assert trial.objective == accuracy(results, iou_threshold)
    assert len({t.objective for t in history}) > 1


def _two_peak_fixture(n=12):
    # the two-peak maps of the TPE against random search test: at IoU 0.7 the
    # trials score differently, and their thresholds fall between the first
    # regions that earlier trials memoised
    planted = make_planted_maps(n, 0, peaks_per_image=2, alpha=0.85)
    gts = {p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                             for b in p.boxes]
           for p in planted}
    return planted, gts


def test_top1_tune_builds_each_first_detection_once(monkeypatch):
    # a top-1 trial reads each map's first detection from its memo entry: the
    # detection is built the first time an entry is read, not once per map
    # and trial, and decode after the tune still builds one per region
    import literati.map_decoder as map_decoder

    planted, gts = _two_peak_fixture()
    prepared = _prepared(planted)
    built = []
    real = map_decoder.region_to_detection

    def counted(region):
        built.append(region)
        return real(region)

    monkeypatch.setattr(map_decoder, "region_to_detection", counted)
    _, _, history = tune_decoder(prepared, gts, budget=30, cfg=TpeConfig(seed=4),
                                 iou_threshold=0.7)
    assert len({t.objective for t in history}) > 1
    entries = [e for _, p in prepared for e in p._top._first]
    assert all(e.detection is not None for e in entries)
    assert len(built) == len(entries) == len({id(r) for r in built})
    assert len(built) < len(planted) * len(history)

    # the same trial again builds nothing and returns the same objects
    params = [DecodeParams(**{"d": 3, "tau": 0.5, "alpha": 0.5, **t.params}) for t in history]
    def first(p):
        return map_decoder.top_detections([p], params[-1], _never)[0][0]

    tops = [first(p) for _, p in prepared]
    built.clear()
    assert [first(p) for _, p in prepared] == tops
    assert all(a is b for a, b in zip(tops, [first(p) for _, p in prepared]))
    assert built == []

    # decode builds one detection per region, on a map the tune has read
    # at its params and at new ones, and on a fresh map
    for (meta, p), m in zip(prepared, planted):
        for par in (params[0], params[-1], DecodeParams(d=2, tau=0.1, alpha=0.777)):
            for q in (p, PreparedMap(m.logits)):
                built.clear()
                dets = decode(q, par)
                assert len(built) == len(dets)
                assert built == [r for k in range(1, q.shape[0])
                                 for r in map_decoder.maximal_filter_regions(q, k, par)]
                assert dets == decode(m.logits, par)


def test_top1_tune_labels_the_missed_first_regions_once_per_crop_round(monkeypatch):
    # a top-1 trial grows every first region its maps' memos miss together:
    # one ndimage.label call per crop round, with one plane per map still
    # growing, where one map at a time makes one call per map and round
    import literati.map_decoder as map_decoder

    planted, gts = _two_peak_fixture()
    # broad bumps, whose first regions at a low alpha outgrow the first crop
    broad = make_planted_maps(4, 1, shape=(96, 128), sigma_range=(8, 10), id_prefix="broad")
    planted += broad
    gts.update({p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                                  for b in p.boxes] for p in broad})
    labelled = []  # the stack of each ndimage.label call, in call order
    # per trial: its params, its maps, whether it took each pair of boxes
    # it was asked about (by map id), and its first call's index
    starts = []
    real_label, real_top = ndimage.label, map_decoder.top_detections

    def label(stack, *args, **kwargs):
        labelled.append(stack.copy())
        return real_label(stack, *args, **kwargs)

    def top_detections(maps, params, decides):
        taken = {}

        def recorded(k, inner, outer):
            taken[id(maps[k])] = decides(k, inner, outer)
            return taken[id(maps[k])]
        starts.append((params, list(maps), taken, len(labelled)))
        return real_top(maps, params, recorded)

    monkeypatch.setattr(ndimage, "label", label)
    monkeypatch.setattr(map_decoder, "top_detections", top_detections)
    prepared = _prepared(planted)
    _, _, history = tune_decoder(prepared, gts, budget=30, cfg=TpeConfig(seed=4),
                                 iou_threshold=0.7)
    assert len(starts) == len(history)
    ends = [start for *_, start in starts[1:]] + [len(labelled)]
    trials = [(params, maps, taken, labelled[start:end])
              for (params, maps, taken, start), end in zip(starts, ends)]

    # the same calls, one map at a time, on maps with memos of their own,
    # each taking the pairs of boxes the trial took: a trial grows only the
    # maps it leaves open, so each fresh map's memo follows the tuned one's
    alone = {id(p): PreparedMap(m.logits) for (_, p), m in zip(prepared, planted)}
    per_map_calls = inner_planes = 0
    for params, maps, taken, stacks in trials:
        rounds, inner = [], []  # label calls per map; the planes of inner misses
        for m in maps:
            p = alone[id(m)]
            channel = p._top
            lo = params.alpha * channel.peak
            # entries are sorted by least: the last under lo is the next lower one
            lower = [e.region for least, e in zip(channel._least, channel._first) if least < lo]
            start = len(labelled)
            real_top([p], params, lambda k, inner, outer: taken[id(m)])
            if len(labelled) > start and lower:  # an inner miss, the k-th miss of the trial
                row0, col0, row1, col1 = lower[-1].bbox
                inner.append((sum(n > 0 for n in rounds), channel.p[row0:row1, col0:col1] >= lo))
            rounds.append(len(labelled) - start)
        per_map_calls += sum(rounds)
        inner_planes += len(inner)
        # round k labels one plane per map that one map at a time labels k times
        assert [len(stack) for stack in stacks] == [
            sum(n >= k for n in rounds) for k in range(1, max(rounds) + 1)]
        for k, plane in inner:  # the plane of an inner miss is the lower entry's box
            h, w = plane.shape
            np.testing.assert_array_equal(stacks[0][k, :h, :w], plane)
            assert not stacks[0][k, h:].any() and not stacks[0][k, :, w:].any()
    assert any(not stacks for *_, stacks in trials)  # a trial that hits on every map
    assert any(len(stacks) > 1 for *_, stacks in trials)  # a trial of two crop rounds or more
    assert inner_planes
    assert sum(len(stacks) for *_, stacks in trials) < per_map_calls


def test_top1_trial_searches_each_memo_once(monkeypatch):
    # a top-1 trial is one top_detections call over every scored map. It
    # searches the first-region memo of each map whose maximum reaches tau
    # once, plus once per channel it passes to _first_regions (a missed
    # region, or a tied maximum's regions read in full), and asks about a
    # pair of boxes only for a map whose top class holds its maximum at
    # one cell, at least tau
    import literati.map_decoder as map_decoder

    maps, gts = _with_edge_cases(*_two_peak_fixture())
    # peaks just under the default tau, as in _tune_fixture
    weak = make_planted_maps(2, seed=40, amplitude_range=(2.35, 2.45), baseline=2.5,
                             sigma_range=(2.8, 3.2), id_prefix="weak")
    maps += weak
    gts.update({p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                                  for b in p.boxes] for p in weak})
    prepared = _prepared(maps)
    searches, grown, calls, asked = [], [], [], []
    real_find, real_first = map_decoder._Channel._find, map_decoder._first_regions
    real_top = map_decoder.top_detections

    def find(channel, lo):
        searches.append(channel)
        return real_find(channel, lo)

    def first_regions(channels, alpha):
        grown.extend(channels)
        return real_first(channels, alpha)

    def top_detections(maps, params, decides):
        before = len(searches), len(grown)

        def asking(k, inner, outer):
            asked.append((maps[k]._top, params))
            return decides(k, inner, outer)
        tops = real_top(maps, params, asking)
        calls.append((params, list(maps), len(searches) - before[0], len(grown) - before[1]))
        return tops

    monkeypatch.setattr(map_decoder._Channel, "_find", find)
    monkeypatch.setattr(map_decoder, "_first_regions", first_regions)
    monkeypatch.setattr(map_decoder, "top_detections", top_detections)
    _, _, history = tune_decoder(prepared, gts, budget=30, cfg=TpeConfig(seed=4),
                                 iou_threshold=0.7)
    assert len({t.objective for t in history}) > 1
    assert len(calls) == len(history)
    assert len(searches) == sum(n for _, _, n, _ in calls)  # none outside a trial's call
    for params, called, n_searches, n_grown in calls:
        assert called == [p for _, p in prepared]
        assert n_searches == sum(p._top.peak >= params.tau for p in called) + n_grown
    assert asked and all(ch.unique and ch.peak >= params.tau for ch, params in asked)
    # the maps hold a top class that ties at its maximum, and maxima that
    # some trials' tau leaves out
    assert any(not p._top.unique for _, p in prepared)
    assert any(p._top.peak < params.tau for params, called, *_ in calls for p in called)
