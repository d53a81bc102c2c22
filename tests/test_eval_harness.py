import json
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from literati.annotation_store import NET_SIZE, Box, rescale_box
from literati.eval_harness import (
    EvalTable,
    IOU_THRESHOLDS,
    SpaceMismatchError,
    _margin,
    accuracy,
    accuracy_table,
    diagnostics_json,
    ground_truth,
    hit_between,
    iou,
    iou_bounds,
    load_table_fixture,
    match_image,
    match_images,
    micro_recall,
    render_table,
)
from literati.detections import Detection


def _det(x, y, w, h, conf=0.9, space="map"):
    return Detection(class_index=1, box=Box(x, y, w, h, space),
                     confidence=conf, centroid=(y + h / 2, x + w / 2))


# --- iou -------------------------------------------------------------------------

def test_iou_identity():
    b = Box(3, 4, 10, 12, "native")
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 2, 2, "map"), Box(10, 10, 2, 2, "map")) == 0.0


def test_iou_derived_overlap():
    # intersection 1, union 4 + 4 - 1 = 7
    got = iou(Box(0, 0, 2, 2, "map"), Box(1, 1, 2, 2, "map"))
    npt.assert_allclose(got, 1.0 / 7.0)


def test_iou_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        iou(Box(0, 0, 2, 2, "map"), Box(0, 0, 2, 2, "native"))


def test_iou_symmetry_bounds_property():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2), "map")
        b = Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2), "map")
        v = iou(a, b)
        assert iou(b, a) == v
        assert 0.0 <= v <= 1.0
        assert (v == 1.0) == (a == b)


def test_iou_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = Box(*rng.uniform(0, 100, 2), *rng.uniform(1, 60, 2), "native")
        b = Box(*rng.uniform(0, 100, 2), *rng.uniform(1, 60, 2), "native")
        dims = (200, 300)
        target = (int(rng.integers(10, 999)), int(rng.integers(10, 999)))
        a2 = rescale_box(a, dims, target)
        b2 = rescale_box(b, dims, target)
        npt.assert_allclose(iou(a2, b2), iou(a, b), atol=1e-9)


def test_iou_bounds_of_equal_boxes_are_the_iou():
    a, g = Box(1, 2, 6, 4, "net416"), Box(3, 1, 5, 5, "net416")
    assert iou_bounds(a, a, g) == (iou(a, g), iou(a, g))
    with pytest.raises(SpaceMismatchError):
        iou_bounds(a, a, Box(3, 1, 5, 5, "map"))


@st.composite
def _nested_boxes(draw):
    """Map boxes A within B within C on whole cells of a W x H map, each
    rescaled to net416 as ``detection_to_net416`` rescales a map box, and
    1-3 ground-truth boxes: on whole cells too, where IoUs tie and sit on
    the threshold, or anywhere near the map."""
    size = draw(st.integers(1, 500)), draw(st.integers(1, 500))

    def cells(within):  # (start, end) of a run of cells within (lo, hi)
        lo, hi = within
        start = draw(st.integers(lo, hi - 1))
        return start, draw(st.integers(start + 1, hi))

    def net416(xs, ys):
        box = Box(xs[0], ys[0], xs[1] - xs[0], ys[1] - ys[0], "map")
        return rescale_box(box, size, (NET_SIZE, NET_SIZE), "net416")

    xs, ys = [(0, size[0])], [(0, size[1])]
    for _ in range(3):  # C, B, A
        xs.append(cells(xs[-1]))
        ys.append(cells(ys[-1]))
    outer, box, inner = (net416(x, y) for x, y in zip(xs[1:], ys[1:]))
    coordinate = st.floats(-50, NET_SIZE + 50)
    side = st.floats(1e-3, NET_SIZE + 100)
    gts = draw(st.lists(st.one_of(
        st.builds(net416, st.just(None).map(lambda _: cells((0, size[0]))),
                  st.just(None).map(lambda _: cells((0, size[1])))),
        st.builds(Box, coordinate, coordinate, side, side, st.just("net416"))),
        min_size=1, max_size=3))
    return inner, box, outer, gts


@settings(max_examples=500, deadline=None)
@given(case=_nested_boxes(), pick=st.integers(0, 2), above=st.booleans())
def test_iou_bounds_hold_and_decide_as_match_image(case, pick, above):
    inner, box, outer, gts = case
    for gt in gts:
        # the rescaled boxes nest up to rounding, which half the margin covers
        low, high = iou_bounds(inner, outer, gt)
        slack = _margin(inner, outer, gt) / 2
        assert low - slack <= iou(box, gt) <= high + slack
    # a threshold the sample reaches, or the next float above it: the
    # hardest place for rounding to flip a hit
    t = iou(box, gts[pick % len(gts)])
    if above:
        t = float(np.nextafter(t, 2.0))
    if not 0 < t <= 1:
        return
    det = Detection(1, box, 1.0, (0.0, 0.0))
    verdict = hit_between(inner, outer, gts, t)
    assert verdict in (None, match_image([det], gts, t).outcomes[t].hit)


# --- match_image --------------------------------------------------------------------

def test_top1_exact_hit():
    gt = Box(5, 5, 10, 10, "map")
    result = match_image([_det(5, 5, 10, 10)], [gt], 0.5, mode="top1")
    assert result.outcomes[0.5].hit


def test_bibasilar_two_gts_one_detection():
    # two symmetrical boxes, one detection on the left one
    left = Box(2, 10, 8, 6, "map")
    right = Box(20, 10, 8, 6, "map")
    dets = [_det(2, 10, 8, 6)]
    top1 = match_image(dets, [left, right], 0.3, mode="top1")
    assert top1.outcomes[0.3].hit
    greedy = match_image(dets, [left, right], 0.3, mode="greedy_multi")
    assert greedy.outcomes[0.3].recall == 0.5
    assert greedy.outcomes[0.3].hit


def test_no_detections_is_miss():
    result = match_image([], [Box(1, 1, 4, 4, "map")], (0.1, 0.5), mode="greedy_multi")
    assert not result.outcomes[0.1].hit
    assert result.outcomes[0.1].recall == 0.0


def test_empty_gts_excluded():
    result = match_image([_det(0, 0, 2, 2)], [], 0.5)
    assert result.excluded


@pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5, float("nan"), (0.1, 1.01)],
                         ids=["zero", "negative", "above-one", "nan", "one-of-several"])
@pytest.mark.parametrize("mode", ["top1", "greedy_multi"])
def test_match_image_refuses_threshold_outside_unit_interval(threshold, mode):
    gt = Box(0, 0, 4, 4, "map")
    for gts in ([gt], []):  # also where the image would be excluded
        with pytest.raises(ValueError, match=r"IOU threshold must be in \(0, 1\], got "):
            match_image([_det(0, 0, 4, 4)], gts, threshold, mode=mode)
    assert match_image([_det(0, 0, 4, 4)], [gt], 1.0, mode=mode).outcomes[1.0].hit


def test_greedy_claims_each_gt_once():
    gt = Box(0, 0, 4, 4, "map")
    dets = [_det(0, 0, 4, 4, conf=0.9), _det(0, 0, 4, 4, conf=0.8)]
    result = match_image(dets, [gt], 0.5, mode="greedy_multi")
    assert len(result.outcomes[0.5].pairs) == 1


def test_greedy_recall_at_least_top1_hit():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n_dets = int(rng.integers(0, 4))
        dets = sorted(
            (_det(*rng.uniform(0, 30, 2), *rng.uniform(2, 10, 2),
                  conf=float(rng.uniform()))
             for _ in range(n_dets)),
            key=lambda d: -d.confidence)
        gts = [Box(*rng.uniform(0, 30, 2), *rng.uniform(2, 10, 2), "map")
               for _ in range(int(rng.integers(1, 4)))]
        t = float(rng.choice(IOU_THRESHOLDS))
        top1 = match_image(dets, gts, t, mode="top1").outcomes[t]
        greedy = match_image(dets, gts, t, mode="greedy_multi").outcomes[t]
        assert greedy.hit >= top1.hit
        if top1.hit:
            assert greedy.recall >= 1.0 / len(gts)
        if len(gts) == 1:
            assert greedy.recall >= top1.hit


def _top1_oracle(dets, gts, t):
    """top1 as first written: the first argmax of ``dets[0]``'s IOUs, a hit
    when that IOU is >= t; (hit, pairs)."""
    if not dets:
        return False, ()
    ious = [iou(dets[0].box, g) for g in gts]
    best = max(range(len(gts)), key=lambda j: ious[j])
    return (True, ((0, best, ious[best]),)) if ious[best] >= t else (False, ())


# boxes on a coarse grid, so that IOUs often tie
_grid_box = st.builds(lambda x, y, w, h: Box(2 * x, 2 * y, 2 * w, 2 * h, "map"),
                      st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=400, deadline=None)
@given(dets=st.lists(_grid_box, max_size=4), gts=st.lists(_grid_box, min_size=1, max_size=4),
       thresholds=st.lists(st.sampled_from(IOU_THRESHOLDS + (0.25, 1 / 3, 1.0)),
                           min_size=1, max_size=3, unique=True))
@example(dets=[Box(0, 0, 4, 4, "map")], gts=[Box(2, 0, 4, 4, "map"), Box(0, 2, 4, 4, "map")],
         thresholds=[1 / 3, 0.1, 0.5])  # two boxes tie at IOU 1/3
@example(dets=[], gts=[Box(0, 0, 2, 2, "map")], thresholds=[0.1, 0.5])
def test_top1_is_the_first_argmax_of_the_first_detection(dets, gts, thresholds):
    detections = [_det(b.x, b.y, b.w, b.h, conf=1.0 - 0.1 * i) for i, b in enumerate(dets)]
    result = match_image(detections, gts, thresholds, mode="top1")
    assert sorted(result.outcomes) == sorted(thresholds)
    for t in thresholds:
        hit, pairs = _top1_oracle(detections, gts, t)
        outcome = result.outcomes[t]
        assert (outcome.hit, outcome.pairs) == (hit, pairs)
        assert outcome.recall == len(pairs) / len(gts)


def test_match_unknown_mode():
    with pytest.raises(ValueError):
        match_image([], [Box(0, 0, 1, 1, "map")], 0.5, mode="hungarian")


# --- ground_truth / match_images ---------------------------------------------------------

def _coco(images, annotations):
    return {
        "images": [{"id": i, "width": w, "height": h} for i, w, h in images],
        "annotations": [{"id": n, "image_id": i, "bbox": list(bbox), "category_id": 1}
                        for n, (i, bbox) in enumerate(annotations)],
        "categories": [{"id": 1, "name": "pneumonia"}],
    }


def test_ground_truth_lists_unannotated_images():
    doc = _coco([("b", 100, 100), ("a", 100, 100)], [("b", (1, 2, 3, 4))])
    for space in ("native", "net416"):
        gts = ground_truth(doc, space)
        assert set(gts) == {"a", "b"}
        assert gts["a"] == [] and len(gts["b"]) == 1


def test_ground_truth_rescales_each_axis_on_its_own():
    doc = _coco([("wide", 832, 208)], [("wide", (8, 4, 16, 20)), ("wide", (0, 0, 832, 208))])
    assert ground_truth(doc, "net416") == {"wide": [Box(4, 8, 8, 40, "net416"),
                                                    Box(0, 0, 416, 416, "net416")]}


def test_ground_truth_passes_native_boxes_through():
    doc = _coco([("im", 832, 208)], [("im", (8.5, 4, 16, 20.25)), ("im", (1, 1, 2, 2))])
    assert ground_truth(doc, "native") == {"im": [Box(8.5, 4, 16, 20.25, "native"),
                                                  Box(1, 1, 2, 2, "native")]}


def test_ground_truth_refuses_map_space():
    with pytest.raises(SpaceMismatchError):
        ground_truth(_coco([("im", 64, 64)], []), "map")


def test_match_images_covers_every_ground_truth_image_in_id_order():
    gt = Box(0, 0, 4, 4, "map")
    per_image = {"b": [_det(0, 0, 4, 4)], "stray": [_det(0, 0, 4, 4)]}
    results = match_images(per_image, {"c": [gt], "b": [gt], "a": []}, 0.5)
    assert [r.image_id for r in results] == ["a", "b", "c"]
    assert [r.excluded for r in results] == [True, False, False]
    assert [r.outcomes[0.5].hit for r in results[1:]] == [True, False]


# --- accuracy / accuracy_table ----------------------------------------------------------

def _perfect_results(n):
    gt = Box(0, 0, 4, 4, "map")
    return [match_image([_det(0, 0, 4, 4)], [gt], IOU_THRESHOLDS, image_id=f"im{i}")
            for i in range(n)]


def test_accuracy_leaves_excluded_images_out_of_the_denominator():
    gt = Box(0, 0, 4, 4, "map")
    results = [match_image([_det(0, 0, 4, 4)], [gt], 0.5, image_id="hit"),
               match_image([], [gt], 0.5, image_id="miss"),
               match_image([_det(0, 0, 4, 4)], [], 0.5, image_id="excluded")]
    assert accuracy(results, 0.5) == 0.5
    with pytest.raises(ValueError, match="no images with ground truth"):
        accuracy(results[2:], 0.5)


def test_accuracy_table_all_hits():
    table = accuracy_table(_perfect_results(5), method="perfect")
    assert table.rows == {"perfect": (1.0,) * 5}


def test_accuracy_table_empty_error():
    with pytest.raises(ValueError):
        accuracy_table([])
    with pytest.raises(ValueError):
        accuracy_table([match_image([], [], 0.5)])


def test_accuracy_threshold_monotone_property():
    rng = np.random.default_rng(4)
    for _ in range(200):
        results = []
        for i in range(int(rng.integers(1, 12))):
            dets = sorted(
                (_det(*rng.uniform(0, 20, 2), *rng.uniform(2, 8, 2),
                      conf=float(rng.uniform()))
                 for _ in range(int(rng.integers(0, 3)))),
                key=lambda d: -d.confidence)
            gts = [Box(*rng.uniform(0, 20, 2), *rng.uniform(2, 8, 2), "map")]
            results.append(match_image(dets, gts, IOU_THRESHOLDS, image_id=f"im{i}"))
        accs = accuracy_table(results).rows["detections"]
        assert list(accs) == sorted(accs, reverse=True)


def test_eval_table_validation():
    with pytest.raises(ValueError, match="row 'm' has 2 values"):
        EvalTable(rows={"m": (0.5, 0.4)})
    with pytest.raises(ValueError, match="outside"):
        EvalTable(rows={"m": (1.5, 0.4, 0.3, 0.2, 0.1)})


def test_load_table_fixture_refuses_other_thresholds(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"thresholds": [0.1, 0.2], "rows": [["m", [0.5, 0.4]]]}))
    with pytest.raises(ValueError) as e:
        load_table_fixture(path)
    assert str(e.value) == (f"{path}: thresholds must be [0.1, 0.2, 0.3, 0.4, 0.5], "
                            f"not [0.1, 0.2]")


@pytest.mark.parametrize("content, message", [
    (b"\xff{}", "not UTF-8"),
    (b"[]", "top level must be a JSON object, not list"),
    (b'{"thresholds": [0.1, 0.2, 0.3, 0.4, 0.5]}', "a table needs 'rows'"),
], ids=["not-utf8", "array", "no-rows"])
def test_load_table_fixture_refuses_a_malformed_file_naming_it(tmp_path, content, message):
    path = tmp_path / "table.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as e:
        load_table_fixture(path)
    assert str(e.value).startswith(f"{path}: ")
    assert message in str(e.value) and "\n" not in str(e.value)


def test_micro_recall():
    left = Box(2, 10, 8, 6, "map")
    right = Box(20, 10, 8, 6, "map")
    results = [match_image([_det(2, 10, 8, 6)], [left, right], 0.3,
                           mode="greedy_multi", image_id="a")]
    assert micro_recall(results, 0.3) == 0.5


# --- rendering -------------------------------------------------------------------------

def test_render_csv_fixture_row():
    table = EvalTable(rows={"LITERATI NWS": (0.349, 0.125, 0.060, 0.024, 0.007)})
    out = render_table(table, format="csv")
    assert out.splitlines()[0] == "IOU,0.1,0.2,0.3,0.4,0.5"
    assert out.splitlines()[1] == "LITERATI NWS,0.349,0.125,0.060,0.024,0.007"


def test_render_markdown():
    table = EvalTable(rows={"row": (0.1, 0.2, 0.3, 0.4, 0.5)})
    lines = render_table(table, format="markdown").splitlines()
    assert lines[0] == "| IOU | 0.1 | 0.2 | 0.3 | 0.4 | 0.5 |"
    assert lines[1] == "| --- | --- | --- | --- | --- | --- |"
    assert lines[2] == "| row | 0.100 | 0.200 | 0.300 | 0.400 | 0.500 |"


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_table(EvalTable(rows={"r": (0, 0, 0, 0, 0)}), format="tsv")


def test_bundled_fixture_tables_render():
    tables = resources.files("literati").joinpath("data/tables")
    mimic = load_table_fixture(str(tables / "mimic_cxr.json"))
    rendered = render_table(mimic, format="csv")
    assert "LITERATI NWS,0.349,0.125,0.060,0.024,0.007" in rendered.splitlines()
    ablation = load_table_fixture(str(tables / "nl_ablation.json"))
    lines = render_table(ablation, format="csv").splitlines()
    assert lines[1] == "Scene label,0.337,0.123,0.048,0.012,0.000"
    assert lines[3] == "Referring disease emphasis,0.349,0.125,0.060,0.024,0.007"
    cx14 = load_table_fixture(str(tables / "chestxray14.json"))
    lines = render_table(cx14, format="csv").splitlines()
    assert len(lines) == 6
    assert "LITERATI SWS,0.593,0.417,0.204,0.088,0.046" in lines


def test_diagnostics_json_deterministic():
    results = _perfect_results(2) + [match_image([], [], 0.5, image_id="empty")]
    assert diagnostics_json(results) == diagnostics_json(results)
    assert "empty" in diagnostics_json(results)
