import hashlib
import json
import math

import numpy as np
import pytest

from literati.eval_harness import match_image
from literati.map_decoder import DecodeParams, decode, detection_to_net416
from literati.synthetic import boxes_to_net416, make_planted_maps
from literati.tpe_tuner import (
    ParamSpec,
    SearchSpace,
    TpeConfig,
    Trial,
    default_decoder_space,
    optimize,
    suggest,
    suggest_with_trace,
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
    params, trace = suggest_with_trace(history, _space_1d(), cfg)
    assert trace.mode == "startup"
    assert 0.0 <= params["x"] <= 10.0


def test_suggest_deterministic():
    cfg = TpeConfig(seed=13)
    history = [_trial({"x": float(i)}, -abs(i - 4)) for i in range(12)]
    assert suggest(history, _space_1d(), cfg) == suggest(history, _space_1d(), cfg)


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
    params, trace = suggest_with_trace(history, _space_1d(), cfg)
    assert trace.mode == "tpe"
    assert 0.0 <= params["x"] <= 10.0
    chosen = trace.log_ratios[trace.chosen]
    assert all(chosen >= r for r in trace.log_ratios)

    # independent truncated-normal mixture evaluation on the candidate set
    complete = sorted(history, key=lambda t: -t.objective)
    n_good = math.ceil(cfg.gamma * len(complete))
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

    ratios = [math.log(kde(good, c["x"])) - math.log(kde(bad, c["x"]))
              for c in trace.candidates]
    assert np.argmax(ratios) == trace.chosen
    np.testing.assert_allclose(ratios, trace.log_ratios, rtol=1e-9)


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
    params, trace = suggest_with_trace(history, _space_1d(), cfg)
    assert trace.mode == "tpe"
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


@pytest.mark.parametrize("seed", sorted(OPTIMIZE_DIGESTS))
def test_optimize_log_digest_is_pinned(tmp_path, seed):
    def objective(p):
        return (-(p["x"] - 1.5) ** 2 - (math.log10(p["lr"]) + 2.0) ** 2
                - 0.3 * abs(p["d"] - 5) + {"a": 0.0, "b": 0.7, "c": 0.2}[p["mode"]])

    _, history = optimize(objective, _mixed_space(), 40, TpeConfig(seed=seed))
    assert len({t.objective for t in history}) == 40
    path = tmp_path / "trials.json"
    write_trials(path, history)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OPTIMIZE_DIGESTS[seed]


# --- tune_decoder -----------------------------------------------------------------

def _tune_fixture():
    # bumps whose peak probability sits just under the default tau, so the
    # default parameters find nothing and tuning must lower tau
    maps = make_planted_maps(10, seed=40, amplitude_range=(2.35, 2.45),
                             baseline=2.5, sigma_range=(2.8, 3.2))
    planted_maps = [type("M", (), {"meta": p.meta, "logits": p.logits})()
                    for p in maps]
    gts = {p.meta.image_id: boxes_to_net416(p) for p in maps}
    return planted_maps, gts, maps


def test_tune_decoder_beats_default_baseline():
    maps, gts, planted = _tune_fixture()
    # defaults decode nothing on these weak peaks
    assert decode(planted[0].logits, DecodeParams()) == []
    best_params, best, history = tune_decoder(
        maps, gts, budget=40, cfg=TpeConfig(seed=1))
    assert history[0].params == {"d": 3, "tau": 0.5, "alpha": 0.5}  # baseline
    assert best.objective >= history[0].objective
    assert best.objective > 0.5
    assert isinstance(best_params, DecodeParams)


def test_tune_decoder_budget_zero():
    maps, gts, _ = _tune_fixture()
    with pytest.raises(ValueError):
        tune_decoder(maps, gts, budget=0)


def test_tune_decoder_requires_ground_truth():
    maps, _, _ = _tune_fixture()
    with pytest.raises(ValueError, match="ground-truth"):
        tune_decoder(maps, {}, budget=5)


def test_tune_decoder_deterministic_log():
    maps, gts, _ = _tune_fixture()
    logs = []
    for _ in range(2):
        _, _, history = tune_decoder(maps, gts, budget=12, cfg=TpeConfig(seed=2))
        logs.append([t.to_dict() for t in history])
    assert logs[0] == logs[1]


def test_tune_decoder_log_equals_fresh_decode_loop():
    # the tuner prepares each map once; a loop that decodes the raw logits
    # afresh in every trial must log the same trials
    maps, gts, _ = _tune_fixture()
    cfg = TpeConfig(seed=3)
    _, _, history = tune_decoder(maps, gts, budget=16, cfg=cfg)

    def objective(raw):
        params = DecodeParams(d=int(raw["d"]), tau=float(raw["tau"]), alpha=float(raw["alpha"]))
        results = [match_image([detection_to_net416(det, m.meta)
                                for det in decode(m.logits, params)],
                               gts[m.meta.image_id], 0.1, mode="top1",
                               image_id=m.meta.image_id)
                   for m in maps]
        included = [r for r in results if not r.excluded]
        return sum(r.outcomes[0.1].hit for r in included) / len(included)

    _, want = optimize(objective, default_decoder_space(), 16, cfg,
                       initial_params=[{"d": 3, "tau": 0.5, "alpha": 0.5}])
    assert [t.to_dict() for t in history] == [t.to_dict() for t in want]
    assert len({t.objective for t in history}) > 1


def test_tune_decoder_rejects_unknown_param():
    maps, gts, _ = _tune_fixture()
    space = SearchSpace((ParamSpec("tau", "uniform", 0.1, 0.9),
                         ParamSpec("gamma", "uniform", 0.1, 0.9)))
    with pytest.raises(ValueError, match="'gamma' is not a decoder parameter"):
        tune_decoder(maps, gts, space=space, budget=5)


@pytest.mark.parametrize("space, holds", [
    ((ParamSpec("d", "choice", choices=(1, 4, 8)),), False),
    ((ParamSpec("d", "choice", choices=(1, 3, 8)),), True),
    ((ParamSpec("tau", "uniform", 0.6, 0.9),), False),
    ((ParamSpec("d", "integer_uniform", 4, 8),), False),
    ((ParamSpec("alpha", "log_uniform", 0.1, 0.5),), True),  # the bound itself
], ids=["choice-without", "choice-with", "uniform-above", "integer-above", "bound"])
def test_tune_decoder_tries_defaults_only_inside_the_space(space, holds):
    maps, gts, _ = _tune_fixture()
    _, _, history = tune_decoder(maps, gts, space=SearchSpace(space), budget=14,
                                 cfg=TpeConfig(seed=5))
    name = space[0].name
    default = getattr(DecodeParams(), name)
    assert (history[0].params == {name: default}) == holds
    assert all(t.status == "complete" for t in history)


def test_discrete_parzen_rejects_value_outside_universe():
    from literati.tpe_tuner import _DiscreteParzen

    with pytest.raises(ValueError, match="value 3 is not among"):
        _DiscreteParzen([1, 3], [1, 4, 8])


@pytest.mark.parametrize("space", [None, SearchSpace((ParamSpec("d", "choice", choices=(1, 4, 8)),
                                                      ParamSpec("tau", "uniform", 0.1, 0.9)))],
                         ids=["default", "d-choice"])
def test_tune_decoder_log_does_not_depend_on_worker_count(monkeypatch, caplog, space):
    # some maps fail at low tau, each with its own message: a failed trial's
    # warning must name the first failing map in map order
    import literati.map_decoder as map_decoder

    real = map_decoder.decode

    def failing(prepared, params):
        peak = int(prepared.channel(1).argmax())
        if params.tau < 0.3 and peak % 3:
            raise ValueError(f"no decode below tau 0.3 at cell {peak}")
        return real(prepared, params)

    monkeypatch.setattr(map_decoder, "decode", failing)
    maps, gts, _ = _tune_fixture()
    runs = set()
    for workers in (1, 2, 3):
        monkeypatch.setenv("LITERATI_THREADS", str(workers))
        caplog.clear()
        _, _, history = tune_decoder(maps, gts, space=space, budget=16, cfg=TpeConfig(seed=3))
        warnings = tuple(r.getMessage() for r in caplog.records if r.levelname == "WARNING")
        runs.add((json.dumps([t.to_dict() for t in history]), warnings))
    assert len(runs) == 1
    log, warnings = runs.pop()
    statuses = {t["status"] for t in json.loads(log)}
    assert statuses == {"complete", "failed"} and warnings
