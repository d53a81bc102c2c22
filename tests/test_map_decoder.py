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
    top_detection,
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


# --- top_detection ----------------------------------------------------------------

def _first_tie_group(dets):
    return [det for det in dets if det.confidence == dets[0].confidence]


def _check_top_detection(prepared, logits, params):
    """top_detection is decode's first detection, and scores as decode does.
    Returns decode's detections."""
    full = decode(logits, params)
    top = top_detection(prepared, params)
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
        full = _check_top_detection(prepared, logits, params)
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
        _check_top_detection(prepared, logits, p)


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
    assert top_detection(PreparedMap(logits), p) == (decode(logits, p) or [None])[0]


# --- the first-region memo -----------------------------------------------------------

def _rings(H, W, center, levels):
    """A two-channel map whose class logit falls by Chebyshev ring around
    ``center``, where it is 0: its probability there is exactly 0.5."""
    rows, cols = np.indices((H, W))
    dist = np.maximum(abs(rows - center[0]), abs(cols - center[1]))
    disease = np.asarray([0.0, *levels])[np.minimum(dist, len(levels))]
    return np.stack([np.zeros((H, W)), disease])


def _check_against_fresh(prepared, logits, params):
    fresh = PreparedMap(logits)
    assert decode(prepared, params) == decode(fresh, params), params
    assert top_detection(prepared, params) == top_detection(fresh, params), params


def test_first_region_memo_edges(monkeypatch):
    # the maximum is 0.5, so alpha = 2 * q puts the threshold exactly on q
    logits = _rings(9, 12, (4, 5), [-0.3, -0.7, -1.2, -2.0, -3.0])
    prepared = PreparedMap(logits)
    channel = prepared._class(1)
    grown = []  # the growths on this prepared map, not on the fresh ones
    real_grow = map_decoder._grow

    def counting_grow(p, *args):
        if p is channel.p:
            grown.append(args[-1])
        return real_grow(p, *args)

    monkeypatch.setattr(map_decoder, "_grow", counting_grow)

    _check_against_fresh(prepared, logits, DecodeParams(alpha=0.5))
    grown.clear()
    [(least, below, _)] = channel._first
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
        top_detection(prepared, params)
    assert grown == []


def test_first_region_memo_keeps_one_entry_per_region():
    # an L-shaped region around (0, 0), and at (2, 2), inside its box but
    # touching none of it, a cell that joins no region when it passes
    disease = np.full((5, 5), -3.0)
    disease[0, :3] = disease[:3, 0] = -0.5
    disease[0, 0], disease[2, 2] = 0.0, -1.0
    logits = np.stack([np.zeros((5, 5)), disease])
    prepared = PreparedMap(logits)
    isolated = prepared.channel(1)[2, 2]
    # the threshold on the isolated cell is below the first entry's interval
    for alpha in [0.7, 2 * isolated, 0.2]:
        _check_against_fresh(prepared, logits, DecodeParams(alpha=alpha))
    [(_, below, region)] = prepared._class(1)._first
    assert region.member_count == 5
    assert below == prepared.channel(1)[3, 0]


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
        p = prepared.channel(k)
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
        leasts = [least for least, _, _ in prepared._class(k)._first]
        assert leasts == sorted(set(leasts))


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
