import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from literati import map_decoder
from literati.annotation_store import Box
from literati.eval_harness import IOU_THRESHOLDS, iou, match_image
from literati.map_decoder import (
    _GROW_RADIUS,
    DecodeParams,
    Detection,
    PeakRegion,
    PreparedMap,
    decode,
    load_map,
    load_maps_dir,
    maximal_filter_regions,
    region_to_detection,
    save_map,
    softmax_map,
    top_detections,
)
from literati.synthetic import make_planted_maps

from _oracles import brute_force_regions, region_lists_equal


def _two_channel(disease: np.ndarray) -> np.ndarray:
    return np.stack([1.0 - disease, disease])


# --- softmax_map ----------------------------------------------------------------

def test_softmax_uniform():
    probs = softmax_map(np.zeros((2, 4, 4)))
    npt.assert_allclose(probs, 0.5)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 5, 5))
    shifted = logits + 7.25  # same constant on every channel of every cell
    npt.assert_allclose(softmax_map(logits), softmax_map(shifted), atol=1e-9)


def test_softmax_scalar_oracle():
    logits = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
    e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
    want = [v / sum(e) for v in e]
    npt.assert_allclose(softmax_map(logits)[:, 0, 0], want, atol=1e-12)
    npt.assert_allclose(softmax_map(logits)[:, 0, 0],
                        [0.0900, 0.2447, 0.6652], atol=1e-4)


def test_softmax_non_finite_names_cell():
    logits = np.zeros((2, 3, 3))
    logits[1, 2, 1] = np.inf
    with pytest.raises(ValueError, match=r"channel 1.*\(2, 1\)"):
        softmax_map(logits)


def test_softmax_normalization_property():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        logits = rng.normal(0, 5, size=(k, 3, 3))
        sums = softmax_map(logits).sum(axis=0)
        npt.assert_allclose(sums, 1.0, atol=1e-6)


@pytest.mark.parametrize("shape", [(2, 5, 7), (3, 16, 16), (5, 1, 9)])
def test_softmax_is_the_three_array_formula_and_keeps_the_logits(shape):
    # computed in one buffer, with the same operations in the same order
    logits = np.random.default_rng(shape[0]).normal(0, 4, size=shape)
    kept = logits.copy()
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    assert np.array_equal(softmax_map(logits), e / e.sum(axis=0, keepdims=True))
    assert np.array_equal(logits, kept)


# --- maximal_filter_regions ------------------------------------------------------

def test_delta_peak():
    disease = np.full((8, 8), 0.01)
    disease[3, 4] = 0.9
    regions = maximal_filter_regions(_two_channel(disease), 1,
                                     DecodeParams(d=2, tau=0.1, alpha=0.5))
    assert len(regions) == 1
    assert regions[0].members == frozenset({(3, 4)})
    assert regions[0].centroid == (3.0, 4.0)
    assert regions[0].peak_prob == 0.9


def test_two_gaussian_bumps():
    rows = np.arange(41.0)[:, None]
    cols = np.arange(41.0)[None, :]
    bump = lambda r0, c0: np.exp(-((rows - r0) ** 2 + (cols - c0) ** 2) / (2 * 3.0 ** 2))
    disease = 0.45 * bump(10, 10) + 0.45 * bump(30, 30) + 0.01
    regions = maximal_filter_regions(_two_channel(disease), 1,
                                     DecodeParams(d=5, tau=0.1, alpha=0.5))
    assert len(regions) == 2
    centroids = sorted(r.centroid for r in regions)
    assert abs(centroids[0][0] - 10) <= 0.5 and abs(centroids[0][1] - 10) <= 0.5
    assert abs(centroids[1][0] - 30) <= 0.5 and abs(centroids[1][1] - 30) <= 0.5


def test_uniform_map_above_tau_is_one_region():
    regions = maximal_filter_regions(np.full((2, 6, 6), 0.5), 1,
                                     DecodeParams(d=2, tau=0.4, alpha=0.5))
    assert len(regions) == 1
    assert regions[0].member_count == 36
    assert regions[0].peak == (0, 0)  # row-major plateau tie-break


def test_uniform_map_below_tau_empty():
    regions = maximal_filter_regions(np.full((2, 6, 6), 0.5), 1,
                                     DecodeParams(d=2, tau=0.6, alpha=0.5))
    assert regions == []


def test_oracle_equivalence_random_maps():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        H, W = int(rng.integers(4, 33)), int(rng.integers(4, 33))
        probs = softmax_map(rng.normal(0, 2, size=(2, H, W)))
        params = DecodeParams(d=int(rng.integers(1, 5)),
                              tau=float(rng.uniform(0, 0.8)),
                              alpha=float(rng.uniform(0.2, 1.0)))
        got = maximal_filter_regions(probs, 1, params)
        want = brute_force_regions(probs[1].tolist(), params.d, params.tau, params.alpha)
        assert region_lists_equal(got, want), f"seed {seed}"


def test_oracle_equivalence_plateau_maps():
    # quantized values force ties; exercises the row-major tie-break
    for seed in range(30):
        rng = np.random.default_rng(900 + seed)
        H, W = int(rng.integers(4, 20)), int(rng.integers(4, 20))
        disease = rng.choice([0.1, 0.3, 0.5, 0.5, 0.7, 0.9], size=(H, W))
        params = DecodeParams(d=int(rng.integers(1, 4)),
                              tau=float(rng.choice([0.0, 0.3, 0.5])),
                              alpha=float(rng.choice([0.4, 0.7, 1.0])))
        got = maximal_filter_regions(_two_channel(disease), 1, params)
        want = brute_force_regions(disease.tolist(), params.d, params.tau, params.alpha)
        assert region_lists_equal(got, want), f"seed {seed}"


def test_oracle_equivalence_crop_growth():
    # smoothed non-square, 1 x N and N x 1 maps, d over the tuner's whole
    # 1..8 range and low alpha: regions outgrow the first crop and regrow
    widest = 0
    for seed in range(30):
        rng = np.random.default_rng(300 + seed)
        shape = [(int(rng.integers(20, 71)), int(rng.integers(60, 141))),
                 (1, int(rng.integers(60, 300))),
                 (int(rng.integers(60, 300)), 1)][seed % 3]
        smooth = ndimage.gaussian_filter(rng.normal(0, 1, size=shape), sigma=2.0)
        logits = np.stack([np.zeros(shape), smooth / smooth.std()])
        probs = softmax_map(logits)
        params = DecodeParams(d=int(rng.integers(1, 9)),
                              tau=float(rng.uniform(0.2, 0.6)),
                              alpha=float(rng.uniform(0.1, 0.7)))
        got = maximal_filter_regions(probs, 1, params)
        want = brute_force_regions(probs[1].tolist(), params.d, params.tau, params.alpha)
        assert region_lists_equal(got, want), f"seed {seed}"
        for region in got:
            row0, col0, row1, col1 = region.bbox
            widest = max(widest, row1 - row0, col1 - col0)
    assert widest > 2 * _GROW_RADIUS + 1  # some region needed a wider crop


@pytest.mark.parametrize("shape", [(9, 14), (14, 9), (1, 7)])
def test_a_radius_past_the_map_filters_no_wider_than_the_map(monkeypatch, shape):
    # a window of radius max(H, W) - 1 covers the map from every cell, so a
    # wider one finds the same peaks: its filters stay that wide, whatever
    # radius is asked for, and the regions stay the oracle's
    H, W = shape
    disease = np.random.default_rng(7).choice([0.1, 0.3, 0.5, 0.7], size=shape)  # ties
    sizes = []
    real = ndimage.maximum_filter1d

    def spy(p, size, *args, **kwargs):
        assert size <= 2 * max(H, W) - 1, size
        sizes.append(size)
        return real(p, size, *args, **kwargs)

    monkeypatch.setattr(ndimage, "maximum_filter1d", spy)
    for d in (max(H, W) - 1, max(H, W), 10**9):
        params = DecodeParams(d=d, tau=0.0, alpha=0.9)
        got = maximal_filter_regions(_two_channel(disease), 1, params)
        want = brute_force_regions(disease.tolist(), d, params.tau, params.alpha)
        assert region_lists_equal(got, want), d
    assert sizes == [2 * max(H, W) - 1] * 6


def test_peak_dominance_property():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        probs = softmax_map(rng.normal(0, 2, size=(2, 20, 20)))
        p = probs[1]
        d = int(rng.integers(1, 4))
        params = DecodeParams(d=d, tau=0.2, alpha=float(rng.uniform(0.2, 0.95)))
        for region in maximal_filter_regions(probs, 1, params):
            member_max = max(p[r, c] for r, c in region.members)
            assert region.peak_prob >= member_max
            pr, pc = region.peak
            window = p[max(0, pr - d):pr + d + 1, max(0, pc - d):pc + d + 1]
            assert region.peak_prob >= window.max()


def test_centroid_law():
    rng = np.random.default_rng(77)
    for _ in range(100):
        probs = softmax_map(rng.normal(0, 2, size=(2, 16, 16)))
        for region in maximal_filter_regions(probs, 1, DecodeParams(d=2, tau=0.3)):
            dr = sum(r - region.centroid[0] for r, _ in region.members)
            dc = sum(c - region.centroid[1] for _, c in region.members)
            assert abs(dr) < 1e-9 and abs(dc) < 1e-9


def test_tau_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        probs = softmax_map(rng.normal(0, 2, size=(2, 18, 18)))
        taus = sorted(rng.uniform(0, 0.9, size=3))
        counts = [len(maximal_filter_regions(probs, 1, DecodeParams(d=2, tau=t)))
                  for t in taus]
        assert counts == sorted(counts, reverse=True)


# --- region_to_detection ---------------------------------------------------------

def _region(members, peak_prob=0.8, class_index=1):
    rows = [r for r, _ in members]
    cols = [c for _, c in members]
    centroid = (sum(rows) / len(rows), sum(cols) / len(cols))
    peak = max(members, key=lambda rc: rc)
    bbox = (min(rows), min(cols), max(rows) + 1, max(cols) + 1)
    mask = np.zeros((bbox[2] - bbox[0], bbox[3] - bbox[1]), dtype=bool)
    for r, c in members:
        mask[r - bbox[0], c - bbox[1]] = True
    return PeakRegion(class_index=class_index, bbox=bbox, mask=mask,
                      centroid=centroid, peak_prob=peak_prob,
                      member_count=len(members), peak=peak)


def test_detection_single_cell():
    det = region_to_detection(_region({(5, 7)}))
    assert det.box.as_list() == [7, 5, 1, 1]
    assert det.box.space == "map"


def test_detection_block():
    members = {(r, c) for r in range(2, 5) for c in range(6, 9)}
    det = region_to_detection(_region(members))
    assert det.box.as_list() == [6, 2, 3, 3]
    assert det.centroid == (3.0, 7.0)


def test_detection_crescent_min_max_oracle():
    members = {(2, 4), (2, 5), (3, 3), (4, 3), (5, 4), (5, 5), (4, 7)}
    det = region_to_detection(_region(members))
    rows = [r for r, _ in members]
    cols = [c for _, c in members]
    assert det.box.as_list() == [min(cols), min(rows),
                                 max(cols) - min(cols) + 1,
                                 max(rows) - min(rows) + 1]


# --- decode -----------------------------------------------------------------------

def test_decode_uniform_below_tau_empty():
    assert decode(np.zeros((3, 8, 8)), DecodeParams(d=2, tau=0.6)) == []


def test_decode_planted_box():
    for planted in make_planted_maps(8, seed=21):
        dets = decode(planted.logits, DecodeParams())
        assert len(dets) == 1
        assert iou(dets[0].box, planted.boxes[0]) >= 0.5
        assert dets[0].confidence == pytest.approx(
            float(softmax_map(planted.logits)[1].max()))


def test_decode_deterministic():
    rng = np.random.default_rng(4)
    logits = rng.normal(0, 2, size=(3, 20, 20))
    params = DecodeParams(d=2, tau=0.35, alpha=0.6)
    assert decode(logits, params) == decode(logits, params)


def test_decode_sorted_by_confidence():
    rng = np.random.default_rng(8)
    logits = rng.normal(0, 2, size=(3, 24, 24))
    dets = decode(logits, DecodeParams(d=2, tau=0.3))
    confs = [d.confidence for d in dets]
    assert confs == sorted(confs, reverse=True)


def test_decode_skips_background_channel():
    disease = np.full((10, 10), -3.0)
    disease[4, 4] = 3.0
    logits = np.stack([np.zeros((10, 10)), disease])
    dets = decode(logits, DecodeParams(d=2, tau=0.5))
    assert {d.class_index for d in dets} == {1}


def test_decode_params_validation():
    with pytest.raises(ValueError):
        DecodeParams(d=0)
    with pytest.raises(ValueError):
        DecodeParams(tau=1.0)
    with pytest.raises(ValueError):
        DecodeParams(alpha=0.0)


# --- PreparedMap --------------------------------------------------------------------

def _sweep_logits():
    """Smoothed 2- and 3-channel maps, and quantized 3-channel plateau maps."""
    rng = np.random.default_rng(55)
    maps = []
    for k, shape in ((2, (40, 52)), (3, (36, 30))):
        smooth = ndimage.gaussian_filter(rng.normal(0, 1, size=(k, *shape)), sigma=(0, 2, 2))
        maps.append(3 * smooth / smooth.std())
    for _ in range(2):  # few distinct values: tied window winners
        maps.append(rng.choice([-1.0, 0.0, 0.5, 1.5], size=(3, 18, 22)))
    return maps


def test_prepared_map_sweep_equals_fresh_decode():
    # one prepared map per logit map, decoded over an interleaved sweep:
    # every d from 1 to 8 three times in shuffled order, so memoised
    # winners are reused across d, tau and alpha. Each class's regions are
    # also checked against a probability array, which memoises nothing.
    rng = np.random.default_rng(56)
    alphas = np.linspace(0.1, 0.95, 7).tolist()
    exact_tau = tied = False
    for logits in _sweep_logits():
        prepared = PreparedMap(logits)
        probs = softmax_map(logits)
        assert prepared.shape == logits.shape
        peak_probs = sorted({det.confidence for det in decode(logits, DecodeParams(d=1, tau=0))})
        # the highest probability wins its window at every d, so tau set to
        # it exactly must keep that peak
        taus = [0.0, peak_probs[len(peak_probs) // 2], peak_probs[-1], 0.35, 0.6]
        ds = rng.permutation(np.repeat(np.arange(1, 9), 3)).tolist()
        for i, d in enumerate(ds):
            params = DecodeParams(d=d, tau=taus[i % len(taus)], alpha=alphas[i % len(alphas)])
            got = decode(prepared, params)
            assert got == decode(logits, params), f"step {i}: {params}"
            for k in range(1, logits.shape[0]):
                assert (maximal_filter_regions(prepared, k, params)
                        == maximal_filter_regions(probs, k, params)), f"step {i}: {params}"
            exact_tau |= any(det.confidence == params.tau for det in got)
            tied |= len({det.confidence for det in got}) < len(got)
    assert exact_tau and tied


def test_prepared_map_has_no_background_channel():
    prepared = PreparedMap(np.zeros((3, 5, 5)))
    with pytest.raises(ValueError, match="class index 0"):
        maximal_filter_regions(prepared, 0, DecodeParams())
    with pytest.raises(ValueError, match="class index 3"):
        maximal_filter_regions(prepared, 3, DecodeParams())


# --- top_detections of one map ---------------------------------------------------

def _never(k, inner, outer):
    """A ``decides`` that takes no pair of boxes, so every missed first region is grown."""
    return False


def _top_class(prepared):
    """The map's top class: the first whose maximum is the highest."""
    return max(range(1, prepared.shape[0]), key=lambda k: prepared._class(k).peak)


def _tops(maps, params):
    """The first detections of each map's top class that ``top_detections``
    reads, with every map's detection known: each pair is one detection
    twice, or (None, None)."""
    pairs = top_detections([(p, _top_class(p)) for p in maps], params, _never)
    assert all(inner is outer for inner, outer in pairs)
    return [inner for inner, _ in pairs]

def _first_tie_group(dets):
    return [det for det in dets if det.confidence == dets[0].confidence]


def _check_top(prepared, logits, params):
    """top_detections of the map alone is decode's first detection, and
    scores as decode does. Returns decode's detections."""
    full = decode(logits, params)
    [top] = _tops([prepared], params)
    assert top == (full or [None])[0], params
    _, H, W = logits.shape
    gts = [Box(0.0, 0.0, W / 2, H / 2, space="map"), Box(W / 3, H / 3, W / 2, H / 2, space="map")]
    assert (match_image([] if top is None else [top], gts, IOU_THRESHOLDS, mode="top1")
            == match_image(full, gts, IOU_THRESHOLDS, mode="top1"))
    return full


def _plateaus(H, W, cells, level=2.0, floor=-2.0):
    disease = np.full((H, W), floor)
    for r, c in cells:
        disease[r, c] = level
    return disease


def _ridge():
    # equal maxima at (2, 2) and (2, 6), 4 apart, joined by cells at a
    # slightly lower level: each wins a d=1 window, and the first region
    # swallows the second at alpha 0.5
    disease = _plateaus(5, 9, [(2, 2), (2, 6)])
    disease[2, 3:6] = 1.8
    return np.stack([np.zeros_like(disease), disease])


_TIE_CASES = {
    # maxima 2 apart across a low valley: one peak at d=3, two at d=1
    "tie-inside-window": (np.stack([np.zeros((6, 8)), _plateaus(6, 8, [(2, 2), (2, 4)])]),
                          [(DecodeParams(d=3, tau=0.3), 1), (DecodeParams(d=1, tau=0.3), 2)]),
    "tie-outside-window": (np.stack([np.zeros((9, 12)), _plateaus(9, 12, [(1, 1), (7, 10)])]),
                           [(DecodeParams(d=2, tau=0.3), 2)]),
    "tie-inside-first-region": (_ridge(), [(DecodeParams(d=1, tau=0.3, alpha=0.5), 1),
                                           (DecodeParams(d=1, tau=0.3, alpha=0.99), 2)]),
    "identical-channels": (np.stack([np.zeros((7, 7)), *[_plateaus(7, 7, [(3, 3)])] * 2]),
                           [(DecodeParams(d=2, tau=0.3), 2)]),
    # a uniform 0.25: tau just above it, then at it
    "tau-above-maximum": (np.zeros((4, 6, 6)), [(DecodeParams(tau=0.3), 0),
                                                (DecodeParams(tau=0.25), 3)]),
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_top_detections_on_tied_maxima(case):
    logits, runs = _TIE_CASES[case]
    prepared = PreparedMap(logits)
    for params, n_top in runs:
        # the case holds n_top detections at the highest confidence
        full = _check_top(prepared, logits, params)
        assert len(_first_tie_group(full)) == n_top, params


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_top_detection_is_the_first_detection_of_decode(data):
    # few logit levels, so maxima tie within and across classes; one
    # prepared map answers a run of params, so its memos are reused
    K = data.draw(st.integers(2, 4), label="K")
    H = data.draw(st.integers(1, 12), label="H")
    W = data.draw(st.integers(1, 12), label="W")
    levels = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
                       label="levels")
    cells = data.draw(st.lists(st.sampled_from(levels), min_size=K * H * W,
                               max_size=K * H * W), label="cells")
    logits = np.asarray(cells, dtype=np.float64).reshape(K, H, W)
    prepared = PreparedMap(logits)
    params = st.builds(DecodeParams, d=st.integers(1, 5),
                       tau=st.floats(0, 0.99), alpha=st.floats(0.05, 1))
    for p in data.draw(st.lists(params, min_size=1, max_size=4), label="params"):
        _check_top(prepared, logits, p)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_top_detection_on_maxima_tied_within_and_across_classes(data):
    # every class channel is one base map plus 0 or -1, so a cell's
    # probabilities depend on its base value alone: the classes at offset 0
    # (two or more) tie exactly, and so do the base maximum's cells (two or
    # more) within each class
    K = data.draw(st.integers(3, 5), label="K")
    H = data.draw(st.integers(1, 10), label="H")
    W = data.draw(st.integers(2, 10), label="W")
    # under a background logit of 0, the probability falls by about e per
    # unit below the maximum, so alpha decides which cells join a region
    base = np.asarray(data.draw(st.lists(st.integers(-5, -1), min_size=H * W, max_size=H * W),
                                label="base"), dtype=np.float64)
    tied = data.draw(st.lists(st.integers(0, H * W - 1), min_size=2, max_size=4, unique=True),
                     label="tied")
    base[tied] = 0.0
    rest = data.draw(st.lists(st.sampled_from([0.0, -1.0]), min_size=K - 3, max_size=K - 3),
                     label="rest")
    offsets = data.draw(st.permutations([0.0, 0.0, *rest]), label="offsets")
    logits = np.stack([np.zeros((H, W)), *[base.reshape(H, W) + o for o in offsets]])
    p = data.draw(st.builds(DecodeParams, d=st.integers(1, 5), tau=st.floats(0, 0.2),
                            alpha=st.floats(0.05, 1)), label="params")
    assert _tops([PreparedMap(logits)], p) == (decode(logits, p) or [None])[:1]


@pytest.mark.parametrize("params, found", [(DecodeParams(d=2, tau=0.05, alpha=0.5), {1, 2, 3}),
                                           (DecodeParams(d=6, tau=0.3, alpha=0.8), {1, 2}),
                                           (DecodeParams(d=2, tau=0.7, alpha=0.3), {1})],
                         ids=["every-class", "tau-above-class-3", "tau-above-classes-2-and-3"])
def test_top_detections_read_the_class_each_query_names(monkeypatch, params, found):
    # a peak in each disease channel, their maxima different: class 1's the
    # highest, at one cell; class 2's lower, at two cells, so it ties; class
    # 3's lowest. Each query reads its own class's memo only, and gets that
    # class's first detection in decode, top class or not, or none when
    # tau leaves the class out
    rows, cols = np.indices((24, 32))

    def bump(center, height):  # rounded, so that far from its center it is exactly 0
        dist2 = (rows - center[0]) ** 2 + (cols - center[1]) ** 2
        return np.round(height * np.exp(-dist2 / 8), 2)

    logits = np.stack([np.zeros((24, 32)), bump((6, 8), 4.0) - 2,
                       np.maximum(bump((17, 6), 3.0), bump((17, 26), 3.0)) - 2,
                       bump((6, 24), 1.0) - 2])
    prepared = PreparedMap(logits)
    assert [prepared._class(k).unique for k in (1, 2, 3)] == [True, False, True]
    assert _top_class(prepared) == 1
    full = decode(logits, params)
    assert {det.class_index for det in full} == found
    searched = []
    real_find = map_decoder._Channel._find
    monkeypatch.setattr(map_decoder._Channel, "_find",
                        lambda ch, lo: searched.append(ch) or real_find(ch, lo))
    for k in (1, 2, 3):
        searched.clear()
        first = next((det for det in full if det.class_index == k), None)
        [(top, same)] = top_detections([(prepared, k)], params, _never)
        assert top is same and top == first, (k, params)
        assert searched == ([prepared._class(k)] if k in found else [])


# --- the first-region memo -----------------------------------------------------------

def _rings(H, W, center, levels):
    """A two-channel map whose class logit falls by Chebyshev ring around
    ``center``, where it is 0: its probability there is exactly 0.5."""
    rows, cols = np.indices((H, W))
    dist = np.maximum(abs(rows - center[0]), abs(cols - center[1]))
    disease = np.asarray([0.0, *levels])[np.minimum(dist, len(levels))]
    return np.stack([np.zeros((H, W)), disease])


def _memo(channel):
    """A channel's first-region memo as (least, below, region) entries."""
    return [(least, e.below, e.region) for least, e in zip(channel._least, channel._first)]


def _check_against_fresh(prepared, logits, params):
    fresh = PreparedMap(logits)
    assert decode(prepared, params) == decode(fresh, params), params
    assert _tops([prepared], params) == _tops([fresh], params), params


def test_first_region_memo_edges(monkeypatch):
    # the maximum is 0.5, so alpha = 2 * q puts the threshold exactly on q
    logits = _rings(9, 12, (4, 5), [-0.3, -0.7, -1.2, -2.0, -3.0])
    prepared = PreparedMap(logits)
    channel = prepared._class(1)
    grown = []  # the first regions grown on this prepared map, not on the fresh ones
    real_settle = map_decoder._Channel._settle

    def counting_settle(ch, i, lo, region):
        if ch is channel:
            grown.append(2 * lo)  # the maximum is 0.5, so this is alpha
        return real_settle(ch, i, lo, region)

    monkeypatch.setattr(map_decoder._Channel, "_settle", counting_settle)

    _check_against_fresh(prepared, logits, DecodeParams(alpha=0.5))
    grown.clear()
    [(least, below, _)] = _memo(channel)
    above = float(np.nextafter(below, 1.0))
    alphas = [2 * least, 2 * below, 2 * above]
    assert [alpha * 0.5 for alpha in alphas] == [least, below, above]
    for alpha in alphas:
        _check_against_fresh(prepared, logits, DecodeParams(alpha=alpha))
    # on least and just above below the memo holds; on below itself the
    # ring at below joins the region
    assert grown == [2 * below]
    assert len(channel._first) == 2
    grown.clear()
    for alpha in [0.5, *alphas] * 2:
        params = DecodeParams(alpha=alpha)
        decode(prepared, params)
        _tops([prepared], params)
    assert grown == []


def test_first_region_memo_keeps_one_entry_per_region():
    # an L-shaped region around (0, 0), and at (2, 2), inside its box but
    # touching none of it, a cell that joins no region when it passes
    disease = np.full((5, 5), -3.0)
    disease[0, :3] = disease[:3, 0] = -0.5
    disease[0, 0], disease[2, 2] = 0.0, -1.0
    logits = np.stack([np.zeros((5, 5)), disease])
    prepared = PreparedMap(logits)
    isolated = softmax_map(logits)[1][2, 2]
    # the threshold on the isolated cell is below the first entry's interval
    tops = []
    for alpha in [0.7, 2 * isolated, 0.2]:
        _check_against_fresh(prepared, logits, DecodeParams(alpha=alpha))
        tops.extend(_tops([prepared], DecodeParams(alpha=alpha)))
    [(_, below, region)] = _memo(prepared._class(1))
    assert region.member_count == 5
    assert below == softmax_map(logits)[1][3, 0]
    # the entry keeps its detection as its interval grows
    assert tops[0] is tops[1] is tops[2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_region_regrows_inside_the_next_lower_entry(monkeypatch, seed):
    # a threshold between two memo entries labels one plane, the lower
    # entry's box, not a crop around the maximum, and gives the region a
    # fresh decode gives
    planted = make_planted_maps(1, seed, peaks_per_image=2, alpha=0.85)[0]
    prepared = PreparedMap(planted.logits)
    channel = prepared._class(1)
    for alpha in (0.3, 0.9):
        _tops([prepared], DecodeParams(tau=0.05, alpha=alpha))
    [(_, _, lower), (least, _, upper)] = _memo(channel)
    stacks = []
    real = ndimage.label

    def label(stack, *args, **kwargs):
        stacks.append(stack.copy())
        return real(stack, *args, **kwargs)

    monkeypatch.setattr(ndimage, "label", label)
    params = DecodeParams(tau=0.05, alpha=0.6)
    assert params.alpha * channel.peak < least  # below the upper entry's interval
    [top] = _tops([prepared], params)
    row0, col0, row1, col1 = lower.bbox
    [stack] = stacks
    assert stack.shape == (1, row1 - row0, col1 - col0)
    lo = params.alpha * channel.peak
    npt.assert_array_equal(stack[0], channel.p[row0:row1, col0:col1] >= lo)
    assert len(channel._first) == 3
    assert lower.member_count > channel._first[1].region.member_count > upper.member_count
    monkeypatch.setattr(ndimage, "label", real)
    _check_against_fresh(prepared, planted.logits, params)
    assert top == decode(planted.logits, params)[0]


def test_top_detections_ask_about_a_miss_between_two_entries(monkeypatch):
    # a threshold strictly between two memo entries: the caller is asked
    # about the two entries' detections, and a pair it takes is returned
    # with nothing grown; one it leaves is grown, and its box lies between.
    # A map whose top class ties at its maximum, or lies under tau, is
    # never asked about.
    planted = make_planted_maps(1, 1, peaks_per_image=2, alpha=0.85)[0]
    prepared = PreparedMap(planted.logits)
    tied = PreparedMap(_batch_logits((64, 64), (20, 40), 3.0, 2, tied=True, specks=0))
    below_tau = PreparedMap(np.stack([np.zeros((8, 8)), np.full((8, 8), -10.0)]))
    for alpha in (0.3, 0.9):
        _tops([prepared, tied], DecodeParams(tau=0.05, alpha=alpha))
    params = DecodeParams(tau=0.05, alpha=0.6)
    for channel in (prepared._class(1), tied._class(1)):  # each misses between two entries
        i, held = channel._find(params.alpha * channel.peak)
        assert not held and 0 < i < len(channel._first)
    inner, outer = (region_to_detection(e.region) for e in prepared._class(1)._first[::-1])
    asked, grown = [], []
    real = map_decoder._first_regions

    def first_regions(misses, alpha):
        grown.extend(ch for ch, _ in misses)
        return real(misses, alpha)

    def taking(*question):
        asked.append(question)
        return True

    monkeypatch.setattr(map_decoder, "_first_regions", first_regions)
    pairs = top_detections([(tied, 1), (prepared, 1), (below_tau, 1)], params, taking)
    assert asked == [(1, inner, outer)] and pairs[1:] == [(inner, outer), (None, None)]
    assert prepared._class(1) not in grown and pairs[0][0] is pairs[0][1]
    assert pairs[0][0] == decode(tied, params)[0]
    grown.clear()
    [(top, same)] = top_detections([(prepared, 1)], params, _never)
    assert grown == [prepared._class(1)]
    assert top is same and top == decode(planted.logits, params)[0]
    for a, b in ((inner.box, top.box), (top.box, outer.box)):  # a lies in b
        assert b.x <= a.x and b.y <= a.y and a.x + a.w <= b.x + b.w and a.y + a.h <= b.y + b.h


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_first_region_memo_equals_fresh_growth(data):
    # few logit levels, so maxima tie and thresholds land on cell values
    K = data.draw(st.integers(2, 4), label="K")
    H = data.draw(st.integers(1, 12), label="H")
    W = data.draw(st.integers(1, 12), label="W")
    levels = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
                       label="levels")
    cells = data.draw(st.lists(st.sampled_from(levels), min_size=K * H * W,
                               max_size=K * H * W), label="cells")
    logits = np.asarray(cells, dtype=np.float64).reshape(K, H, W)
    prepared = PreparedMap(logits)
    # alphas that put alpha * max on a cell value, or one step to either side
    edges = set()
    for k in range(1, K):
        p = softmax_map(logits)[k]
        for q in np.unique(p / p.max()):
            edges |= {float(q), float(np.nextafter(q, 0)), float(np.nextafter(q, 2))}
    pool = sorted(a for a in edges if 0 < a <= 1)
    alphas = data.draw(st.lists(st.sampled_from(pool) | st.floats(0.05, 1), min_size=1,
                                max_size=8), label="alphas")
    for alpha in alphas + alphas[::-1]:
        params = DecodeParams(d=data.draw(st.integers(1, 4), label="d"),
                              tau=data.draw(st.floats(0, 0.6), label="tau"), alpha=alpha)
        _check_against_fresh(prepared, logits, params)
        for k in range(1, K):
            for region in maximal_filter_regions(prepared, k, params):
                with pytest.raises(ValueError, match="read-only"):
                    region.mask[0, 0] = False
    for k in range(1, K):  # one entry per distinct region, as nested regions differ in least
        leasts = prepared._class(k)._least
        assert leasts == sorted(set(leasts))


# --- top_detections: the first regions of many maps, grown together --------------

def _batch_logits(shape, center, sigma, seed, tied, specks):
    """Three channels: class 1 a bump of ``sigma`` at ``center`` in logit
    levels 0.5 apart, so its rings are plateaus, plus ``specks`` random
    cells a quarter level up; class 2 the same one level lower, so class 1
    is the top class and cells of one value tie in it. Class 1's maximum is
    at ``center``: alone there, or tied with the opposite corner's cell."""
    H, W = shape
    rng = np.random.default_rng(seed)
    rows, cols = np.indices(shape)
    bump = np.exp(-((rows - center[0]) ** 2 + (cols - center[1]) ** 2) / (2 * sigma ** 2))
    disease = np.round(8 * bump) / 2 - 2
    disease.flat[rng.choice(disease.size, specks, replace=False)] += 0.25
    top = disease.max()
    if tied:
        disease[center] = disease[H - 1 - center[0], W - 1 - center[1]] = top
    else:
        disease[center] = top + 0.25
    return np.stack([np.zeros(shape), disease, disease - 1])


def _check_batches(logits, alphas, d=3, tau=0.05):
    """Top detections of the maps, all in one ``top_detections`` call per
    alpha, each call followed by one at the alpha that puts one map's
    threshold (each map in turn) on the ``below`` of the entry it just
    read. Each call must give what ``top_detections`` gives one map at a
    time, on maps with memos of their own, and decode's first detection,
    and leave the memos equal. Returns the memo branches the maps took."""
    together = [PreparedMap(m) for m in logits]
    alone = [PreparedMap(m) for m in logits]
    branches = set()

    def run(params):
        before = [_memo(p._class(1)) for p in together]
        tops = _tops(together, params)
        assert tops == [_tops([p], params)[0] for p in alone], params
        assert tops == [(decode(m, params) or [None])[0] for m in logits], params
        for p, q, old in zip(together, alone, before):
            channel, memo = p._class(1), _memo(p._class(1))
            assert memo == _memo(q._class(1)), params
            if channel.peak < tau:
                continue
            lo = params.alpha * channel.peak
            if memo == old:
                branches.add("hit")
            elif len(memo) == len(old):  # a region known already, to a lower threshold
                branches.add("same region")
            elif any(least < lo for least, _, _ in old):
                branches.add("inner")
            else:
                [(_, _, region)] = [e for e in memo if e not in old]
                row0, col0, row1, col1 = region.bbox
                r, c = channel.peak_cell
                reach = max(r - row0, row1 - 1 - r, c - col0, col1 - 1 - c)
                branches.add("fresh, crop doubled" if reach > _GROW_RADIUS else "fresh")

    for n, alpha in enumerate(alphas):
        params = DecodeParams(d=d, tau=tau, alpha=alpha)
        run(params)
        channel = together[n % len(together)]._class(1)
        below = 0
        if channel.peak >= tau:  # the entry the run just read
            below = channel._first[channel._find(alpha * channel.peak)[0]].below
        if below > 0:
            edge = below / channel.peak
            while edge * channel.peak > below:
                edge = float(np.nextafter(edge, 0))
            run(DecodeParams(d=d, tau=tau, alpha=edge))
    return branches


def test_top_detections_reach_every_memo_branch():
    logits = [_batch_logits((64, 64), (30, 33), 9.0, 0, tied=False, specks=200),
              _batch_logits((256, 96), (0, 40), 12.0, 1, tied=False, specks=400),
              _batch_logits((64, 64), (20, 63), 3.0, 2, tied=True, specks=100),
              _batch_logits((256, 96), (128, 48), 2.0, 3, tied=True, specks=0)]
    branches = _check_batches(logits, [0.9, 0.3, 0.6, 0.6, 0.45, 0.2, 0.75])
    assert branches == {"hit", "inner", "fresh", "fresh, crop doubled", "same region"}


def _batch_maps(data):
    """``_batch_logits`` maps as ``test_top_detections_equal_one_map_at_a_time`` draws them."""
    logits = []
    for i in range(data.draw(st.integers(2, 4), label="maps")):
        H, W = shape = data.draw(st.sampled_from([(64, 64), (256, 96)]), label="shape")
        on_border = data.draw(st.booleans(), label="border")
        r = data.draw(st.sampled_from([0, H - 1]) if on_border else st.integers(0, H - 1))
        c = data.draw(st.integers(0, W - 1))
        logits.append(_batch_logits(shape, (r, c), data.draw(st.floats(1.0, 14.0)),
                                    seed=i, tied=data.draw(st.booleans(), label="tied"),
                                    specks=data.draw(st.integers(0, 300), label="specks")))
    return logits


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_top_detections_equal_one_map_at_a_time(data):
    logits = _batch_maps(data)
    alphas = data.draw(st.lists(st.floats(0.15, 1.0), min_size=1, max_size=6), label="alphas")
    _check_batches(logits, alphas, d=data.draw(st.integers(1, 8), label="d"),
                   tau=data.draw(st.sampled_from([0.05, 0.3, 0.6]), label="tau"))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_region_memo_entries_hold_over_their_whole_interval(data):
    # every memo entry, checked against its definition on the whole channel:
    # least is the region's least cell, and the maximum's 8-connected
    # component of {p >= t} is the region at t = least and at the least
    # float above below, so at every threshold of (below, least]
    maps = [PreparedMap(m) for m in _batch_maps(data)]
    alphas = data.draw(st.lists(st.floats(0.15, 1.0), min_size=1, max_size=6), label="alphas")
    for alpha in alphas + alphas[::2]:
        _tops(maps, DecodeParams(d=3, tau=0.05, alpha=alpha))
    for prepared in maps:
        channel = prepared._class(1)
        r, c = channel.peak_cell
        for least, below, region in _memo(channel):
            row0, col0, row1, col1 = region.bbox
            expected = np.zeros(channel.p.shape, dtype=bool)
            expected[row0:row1, col0:col1] = region.mask
            assert least == channel.p[expected].min()
            assert below < least
            for t in (least, np.nextafter(below, np.inf)):
                labels, _ = ndimage.label(channel.p >= t, structure=np.ones((3, 3), dtype=bool))
                npt.assert_array_equal(labels == labels[r, c], expected)


def _nonzero_stats(plane):
    rr, cc = np.nonzero(plane)
    return (rr.min(), rr.max() + 1, cc.min(), cc.max() + 1, rr.size, rr.sum(), cc.sum())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_region_stats_are_the_nonzero_box_count_and_index_sums(data):
    planes = []
    for _ in range(data.draw(st.integers(1, 5), label="planes")):
        h, w = data.draw(st.integers(1, 12), label="h"), data.draw(st.integers(1, 12), label="w")
        kind = data.draw(st.sampled_from(["random", "one cell", "every edge"]), label="kind")
        if kind == "random":
            cells = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
            plane = np.asarray(cells).reshape(h, w)
            plane[data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = True
        else:
            plane = np.zeros((h, w), dtype=bool)
            if kind == "one cell":
                plane[data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = True
            else:
                plane[[0, -1]] = plane[:, [0, -1]] = True
        planes.append(plane)
    # each plane padded with False to the stack's size, as a crop round pads them
    stack = np.zeros((len(planes), max(q.shape[0] for q in planes),
                      max(q.shape[1] for q in planes)), dtype=bool)
    for padded, plane in zip(stack, planes):
        padded[:plane.shape[0], :plane.shape[1]] = plane
    stats = map_decoder._region_stats(stack)
    assert stats == [_nonzero_stats(plane) for plane in planes]
    assert all(type(v) is int for row in stats for v in row)


def test_first_regions_read_each_crop_round_with_one_stats_call(monkeypatch):
    # the box, count, centroid sums and edge touches of a round's regions come
    # from one _region_stats call over the labelled stack, not one per plane
    maps = [PreparedMap(_batch_logits((64, 64), (30, 33), 9.0, 0, tied=False, specks=200)),
            PreparedMap(_batch_logits((256, 96), (0, 40), 12.0, 1, tied=False, specks=400)),
            PreparedMap(_batch_logits((256, 96), (128, 48), 2.0, 3, tied=False, specks=0))]
    calls = []
    real_label, real_stats = ndimage.label, map_decoder._region_stats

    def label(stack, *args, **kwargs):
        calls.append(("label", len(stack)))
        return real_label(stack, *args, **kwargs)

    def region_stats(regions):
        calls.append(("stats", len(regions)))
        return real_stats(regions)

    monkeypatch.setattr(ndimage, "label", label)
    monkeypatch.setattr(map_decoder, "_region_stats", region_stats)
    for alpha in (0.9, 0.2, 0.6):
        _tops(maps, DecodeParams(tau=0.05, alpha=alpha))
    planes = [n for _, n in calls[::2]]
    assert len(planes) > 3 and max(planes) > 1  # rounds of one plane and of many
    assert calls == [call for n in planes for call in (("label", n), ("stats", n))]


# --- map files ---------------------------------------------------------------------

def test_map_save_load_round_trip(tmp_path):
    planted = make_planted_maps(2, seed=5)[0]
    save_map(tmp_path, planted.meta, planted.logits)
    loaded = load_map(tmp_path / f"{planted.meta.image_id}.npy")
    assert loaded.meta == planted.meta
    npt.assert_allclose(loaded.logits, planted.logits, atol=1e-6)  # float32 file
    # NPY version 1.0 magic
    with open(tmp_path / f"{planted.meta.image_id}.npy", "rb") as f:
        assert f.read(8) == b"\x93NUMPY\x01\x00"


def test_load_map_requires_sidecar(tmp_path):
    np.save(tmp_path / "orphan.npy", np.zeros((2, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="sidecar"):
        load_map(tmp_path / "orphan.npy")


def test_load_map_rejects_wrong_dtype(tmp_path):
    np.save(tmp_path / "x.npy", np.zeros((2, 4, 4), dtype=np.float64))
    (tmp_path / "x.json").write_text(
        '{"image_id": "x", "classes": ["background", "pneumonia"]}')
    with pytest.raises(ValueError, match="float32"):
        load_map(tmp_path / "x.npy")


def test_load_map_refuses_a_format_1_scale_on_a_map_without_width(tmp_path):
    # the array is refused before the sidecar's scale is compared with its width
    np.save(tmp_path / "x.npy", np.zeros((2, 4, 0), dtype=np.float32))
    (tmp_path / "x.json").write_text(
        '{"image_id": "x", "classes": ["background", "pneumonia"], "map_to_net_scale": 6.5}')
    with pytest.raises(ValueError, match=r"^map x\.npy: no cells \(shape \(2, 4, 0\)\)$"):
        load_map(tmp_path / "x.npy")


def test_load_maps_dir_empty(tmp_path):
    with pytest.raises(ValueError, match="no .npy"):
        load_maps_dir(tmp_path)
