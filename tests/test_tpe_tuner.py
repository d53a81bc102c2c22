import hashlib
import json
import math

import numpy as np
import pytest
from scipy import ndimage

from literati.annotation_store import NET_SIZE, rescale_box
from literati.eval_harness import match_image
from literati.map_decoder import (DecodeParams, LoadedMap, MapMeta, PreparedMap, decode,
                                  detection_to_net416)
from literati.synthetic import make_planted_maps
from literati.tpe_tuner import (
    GAMMA,
    MAX_INTEGER_VALUES,
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


def test_integer_range_holds_at_most_max_integer_values():
    # the densities list every value of the range
    ParamSpec("d", "integer_uniform", 1, MAX_INTEGER_VALUES)
    with pytest.raises(ValueError, match=f"holds more than {MAX_INTEGER_VALUES} values"):
        ParamSpec("d", "integer_uniform", 0, MAX_INTEGER_VALUES)


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

def _prepared(maps):
    """What tune_decoder takes: each map's meta with the map freshly prepared."""
    return [(m.meta, PreparedMap(m.logits)) for m in maps]


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("space", [None, _D_CHOICE], ids=["default", "d-choice"])
@pytest.mark.parametrize("fixture", ["planted", "noise"])
def test_tune_decoder_log_equals_fresh_decode_loop(monkeypatch, fixture, space, workers):
    # the tuner reads each map prepared once, and only its top detections; a
    # loop that decodes the raw logits in full in every trial must log the
    # same trials
    maps, gts = _noise_fixture() if fixture == "noise" else _tune_fixture()
    iou_threshold = 0.5 if fixture == "noise" else 0.1
    monkeypatch.setenv("LITERATI_THREADS", str(workers))
    cfg = TpeConfig(seed=3)
    _, _, history = tune_decoder(_prepared(maps), gts, space=space, budget=16, cfg=cfg,
                                 iou_threshold=iou_threshold)

    def objective(raw):
        merged = {"d": 3, "tau": 0.5, "alpha": 0.5, **raw}
        params = DecodeParams(d=int(merged["d"]), tau=float(merged["tau"]),
                              alpha=float(merged["alpha"]))
        results = [match_image([detection_to_net416(det, m.meta)
                                for det in decode(m.logits, params)],
                               gts[m.meta.image_id], iou_threshold, mode="top1",
                               image_id=m.meta.image_id)
                   for m in maps]
        included = [r for r in results if not r.excluded]
        return sum(r.outcomes[iou_threshold].hit for r in included) / len(included)

    # the tuner tries the defaults first only where the space holds d=3
    trial0 = [] if space else [{"d": 3, "tau": 0.5, "alpha": 0.5}]
    _, want = optimize(objective, space or default_decoder_space(), 16, cfg,
                       initial_params=trial0)
    assert [t.to_dict() for t in history] == [t.to_dict() for t in want]
    assert len({t.objective for t in history}) > 1


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


def test_discrete_parzen_rejects_value_outside_universe():
    from literati.tpe_tuner import _DiscreteParzen

    with pytest.raises(ValueError, match="value 3 is not among"):
        _DiscreteParzen([1, 3], [1, 4, 8])


@pytest.mark.parametrize("space, mode", [
    (None, "top1"),
    (SearchSpace((ParamSpec("d", "choice", choices=(1, 4, 8)),
                  ParamSpec("tau", "uniform", 0.1, 0.9))), "top1"),
    (None, "greedy_multi"),
], ids=["default", "d-choice", "greedy_multi"])
def test_tune_decoder_log_does_not_depend_on_worker_count(monkeypatch, caplog, space, mode):
    # some maps fail at low tau, each with its own message: a failed trial's
    # warning must name the first failing map in map order. The top-1
    # objective reads only the top detections; greedy_multi reads each
    # class's region stream up to the first hit.
    import literati.map_decoder as map_decoder

    scorer = "top_detection" if mode == "top1" else "iter_regions"
    real = getattr(map_decoder, scorer)

    def failing(prepared, *args):
        params = args[-1]
        peak = int(prepared.channel(1).argmax())
        if params.tau < 0.3 and peak % 3:
            raise ValueError(f"no decode below tau 0.3 at cell {peak}")
        return real(prepared, *args)

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

    def recorded(name):
        real = getattr(map_decoder, name)

        def wrapper(prepared, *args):
            shapes.append(prepared.shape)
            return real(prepared, *args)
        monkeypatch.setattr(map_decoder, name, wrapper)

    recorded("top_detection")
    recorded("iter_regions")
    cfg = TpeConfig(seed=3)
    _, _, history = tune_decoder(_prepared(maps[:5] + unannotated + maps[5:]), gts_with_empty,
                                 budget=12, cfg=cfg, mode=mode)
    assert shapes and (3, 7, 9) not in shapes
    _, _, want = tune_decoder(_prepared(maps), gts, budget=12, cfg=cfg, mode=mode)
    assert [t.to_dict() for t in history] == [t.to_dict() for t in want]


def test_top1_trial_with_a_repeated_tie_group_matches_nothing(monkeypatch):
    import literati.eval_harness as harness
    import literati.tpe_tuner as tuner
    from literati.map_decoder import top_detection

    maps = make_planted_maps(6, seed=5)
    gts = {p.meta.image_id: [rescale_box(b, p.meta.size, (NET_SIZE, NET_SIZE), "net416")
                             for b in p.boxes]
           for p in maps}
    # after the defaults: tau and d change under every maximum, alpha moves
    # by one part in 1e9 (the same first regions), then alpha moves far
    scripted = [{"d": 3, "tau": 0.2, "alpha": 0.5}, {"d": 7, "tau": 0.5, "alpha": 0.5},
                {"d": 1, "tau": 0.05, "alpha": 0.5 + 5e-10}, {"d": 3, "tau": 0.5, "alpha": 0.9}]
    for m in maps:
        tops = [top_detection(PreparedMap(m.logits), DecodeParams(**raw))
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
