import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from literati.annotation_store import (
    Annotation,
    Box,
    CocoParseError,
    CocoValidationError,
    ImageRecord,
    ReferentialIntegrityError,
    load_coco,
    make_split,
    mix_negatives,
    rescale_box,
)


def _minimal_doc():
    return {
        "images": [{"id": "im1", "width": 100, "height": 200}],
        "annotations": [{
            "id": 1, "image_id": "im1", "bbox": [10, 20, 30, 40],
            "caption": "left opacity", "category_id": 1,
        }],
        "categories": [{"id": 1, "name": "Pneumonia"}],
    }


# --- load_coco ----------------------------------------------------------------

def test_load_minimal_document():
    images, annotations = load_coco(_minimal_doc())
    assert len(images) == 1 and len(annotations) == 1
    ann = annotations[0]
    assert ann.boxes == (Box(10, 20, 30, 40, "native"),)
    assert ann.phrase == "left opacity"
    assert images == [ImageRecord("im1", 100, 200)]


def test_load_dangling_image_id():
    doc = _minimal_doc()
    doc["annotations"][0]["image_id"] = "z"
    with pytest.raises(ReferentialIntegrityError, match="z"):
        load_coco(doc)


def test_load_non_positive_bbox():
    doc = _minimal_doc()
    doc["annotations"][0]["bbox"] = [10, 20, 0, 40]
    with pytest.raises(CocoValidationError):
        load_coco(doc)


@pytest.mark.parametrize("key, value", [("width", 0.5), ("height", 100.9), ("width", -2.5)])
def test_load_refuses_a_fractional_dimension(key, value):
    # dimensions are whole pixels: truncating one would rescale every box
    doc = _minimal_doc()
    doc["images"][0][key] = value
    with pytest.raises(CocoValidationError) as e:
        load_coco(doc)
    assert str(e.value) == f"images[0] {key!r} is not a whole number: {value!r}"


def test_load_keeps_an_integral_float_dimension():
    doc = _minimal_doc()
    doc["images"][0].update(width=64.0, height=200.0)
    images, _ = load_coco(doc)
    assert images == [ImageRecord("im1", 64, 200)]
    assert type(images[0].width) is int


def test_load_malformed_json_reports_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"images": [}', encoding="utf-8")
    with pytest.raises(ValueError, match="char 12") as e:
        load_coco(path)
    assert str(e.value) == f"{path}: invalid JSON (Expecting value: line 1 column 13 (char 12))"


def test_load_missing_arrays():
    with pytest.raises(CocoParseError, match="categories"):
        load_coco({"images": [], "annotations": []})


def test_category_ids_match_after_str():
    doc = _minimal_doc()
    doc["annotations"][0].update(caption=None, category_id="1")
    _, annotations = load_coco(doc)
    assert [a.phrase for a in annotations] == ["Pneumonia"]


def test_multi_instance_grouping():
    doc = _minimal_doc()
    doc["annotations"].append({
        "id": 2, "image_id": "im1", "bbox": [50, 60, 10, 10],
        "caption": "left opacity", "category_id": 1,
    })
    doc["annotations"].append({
        "id": 3, "image_id": "im1", "bbox": [5, 5, 4, 4],
        "caption": "other phrase", "category_id": 1,
    })
    _, annotations = load_coco(doc)
    assert len(annotations) == 2
    multi = next(a for a in annotations if a.phrase == "left opacity")
    assert len(multi.boxes) == 2


def test_phrase_count_matches_annotation_count():
    # one Annotation per distinct phrase, like the released 455-phrase file
    doc = {
        "images": [{"id": f"im{i}", "width": 64, "height": 64} for i in range(40)],
        "annotations": [],
        "categories": [{"id": 1, "name": "pneumonia"}],
    }
    for i in range(40):
        doc["annotations"].append({
            "id": i, "image_id": f"im{i}", "bbox": [1, 1, 5, 5],
            "caption": f"phrase {i}", "category_id": 1,
        })
    _, annotations = load_coco(doc)
    assert len(annotations) == 40


def test_ingestion_round_trip():
    doc = _minimal_doc()
    doc["images"].append({"id": "im2", "width": 64, "height": 48})
    doc["annotations"].append({
        "id": 2, "image_id": "im1", "bbox": [50.5, 60.25, 10, 10],
        "caption": "bibasilar consolidations", "category_id": 1,
    })
    images, annotations = load_coco(doc)
    assert images == [ImageRecord("im1", 100, 200), ImageRecord("im2", 64, 48)]
    assert annotations == [
        Annotation("im1", "left opacity", (Box(10.0, 20.0, 30.0, 40.0, "native"),)),
        Annotation("im1", "bibasilar consolidations",
                   (Box(50.5, 60.25, 10.0, 10.0, "native"),)),
    ]


# --- make_split ----------------------------------------------------------------

def test_split_exact_ratio():
    split = make_split([str(i) for i in range(10)], (0.8, 0.1, 0.1), seed=7)
    assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == (8, 1, 1)


def test_split_remainder_to_train():
    # floor arithmetic oracle: 55981 ids at 80/10/10
    n = 55981
    want = (n - 2 * math.floor(n * 0.1), math.floor(n * 0.1), math.floor(n * 0.1))
    assert want == (44785, 5598, 5598)
    split = make_split([str(i) for i in range(n)], (0.8, 0.1, 0.1), seed=0)
    assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == want


def test_split_deterministic():
    ids = [f"id{i}" for i in range(57)]
    a = make_split(ids, (0.8, 0.1, 0.1), seed=3)
    b = make_split(ids, (0.8, 0.1, 0.1), seed=3)
    assert a == b
    c = make_split(ids, (0.8, 0.1, 0.1), seed=4)
    assert a != c


def test_split_empty_ids_error():
    with pytest.raises(ValueError):
        make_split([], (0.8, 0.1, 0.1), seed=0)


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        make_split(["a", "b"], (0.8, 0.1, 0.2), seed=0)
    with pytest.raises(ValueError):
        make_split(["a", "b"], (0.9, 0.2, -0.1), seed=0)


def test_split_partition_law_1000_cases():
    rng = np.random.default_rng(11)
    for case in range(1000):
        n = int(rng.integers(1, 40))
        ids = [f"{case}-{i}" for i in range(n)]
        r1 = float(rng.uniform(0, 1))
        r2 = float(rng.uniform(0, 1 - r1))
        ratios = (r1, r2, 1.0 - r1 - r2)
        split = make_split(ids, ratios, seed=int(rng.integers(0, 1 << 32)))
        buckets = [split.train_ids, split.val_ids, split.test_ids]
        union = set().union(*map(set, buckets))
        assert union == set(ids)
        assert sum(len(b) for b in buckets) == n  # pairwise disjoint


# --- mix_negatives --------------------------------------------------------------

def test_mix_equal_ratio():
    mixed = mix_negatives([f"p{i}" for i in range(100)],
                          [f"n{i}" for i in range(500)], 1.0, seed=1)
    assert len(mixed) == 200
    assert len(set(mixed)) == 200


def test_mix_pool_exhaustion_warns(caplog):
    with caplog.at_level("WARNING"):
        mixed = mix_negatives([f"p{i}" for i in range(100)],
                              [f"n{i}" for i in range(50)], 1.0, seed=1)
    assert len(mixed) == 150
    assert any("pool" in r.message for r in caplog.records)


def test_mix_fractional_ratio():
    mixed = mix_negatives([f"p{i}" for i in range(100)],
                          [f"n{i}" for i in range(500)], 0.5, seed=1)
    assert len(mixed) == 150


def test_mix_deterministic():
    pos = [f"p{i}" for i in range(20)]
    neg = [f"n{i}" for i in range(80)]
    assert mix_negatives(pos, neg, 1.0, seed=9) == mix_negatives(pos, neg, 1.0, seed=9)


# --- rescale_box -----------------------------------------------------------------

def test_rescale_full_frame():
    box = rescale_box(Box(0, 0, 2544, 3056, "native"), (2544, 3056), (416, 416),
                      to_space="net416")
    assert (box.x, box.y, box.w, box.h) == (0, 0, 416, 416)
    assert box.space == "net416"


def test_rescale_derived_ratios():
    box = rescale_box(Box(1272, 1528, 100, 100, "native"), (2544, 3056), (416, 416))
    npt.assert_allclose(box.x, 208.0)
    npt.assert_allclose(box.y, 208.0)
    npt.assert_allclose(box.w, 100 * 416 / 2544)  # 16.3522...
    npt.assert_allclose(box.h, 100 * 416 / 3056)  # 13.6125...


def test_rescale_identity():
    box = Box(3, 4, 5, 6, "native")
    assert rescale_box(box, (10, 20), (10, 20)) == box


def test_rescale_round_trip_half_pixel():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dims_a = (int(rng.integers(50, 4000)), int(rng.integers(50, 4000)))
        dims_b = (int(rng.integers(50, 4000)), int(rng.integers(50, 4000)))
        box = Box(float(rng.uniform(0, dims_a[0] / 2)),
                  float(rng.uniform(0, dims_a[1] / 2)),
                  float(rng.uniform(1, dims_a[0] / 2)),
                  float(rng.uniform(1, dims_a[1] / 2)), "native")
        back = rescale_box(rescale_box(box, dims_a, dims_b), dims_b, dims_a)
        for got, want in zip(back.as_list(), box.as_list()):
            assert abs(got - want) < 0.5


def test_rescale_linearity_composition():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = (int(rng.integers(10, 999)), int(rng.integers(10, 999)))
        b = (int(rng.integers(10, 999)), int(rng.integers(10, 999)))
        c = (int(rng.integers(10, 999)), int(rng.integers(10, 999)))
        box = Box(1.5, 2.5, 3.0, 4.0, "native")
        direct = rescale_box(box, a, c)
        stepped = rescale_box(rescale_box(box, a, b), b, c)
        npt.assert_allclose(stepped.as_list(), direct.as_list(), rtol=1e-6)


def test_rescale_zero_target_error():
    with pytest.raises(ValueError):
        rescale_box(Box(0, 0, 1, 1, "native"), (10, 10), (0, 416))


def test_box_validation():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 5)
    with pytest.raises(ValueError):
        Box(0, 0, 5, 5, "pixels")
