import json

from hypothesis import given, settings
from hypothesis import strategies as st

from literati import detections, map_decoder
from literati.annotation_store import SPACES, Box
from literati.detections import Detection, detections_to_json, entries_json, join_entries


def _oracle(per_image, classes_by_image) -> str:
    """The detections file as ``json.dumps`` writes it."""
    return json.dumps([
        {"image_id": image_id,
         "class": classes_by_image[image_id][det.class_index],
         "box": det.box.as_list(),
         "space": det.box.space,
         "confidence": det.confidence,
         "centroid": [det.centroid[0], det.centroid[1]]}
        for image_id in sorted(per_image) for det in per_image[image_id]], indent=2)


# any code point, lone surrogates and control characters included, with
# quotes, backslashes and non-ASCII drawn often
_TEXTS = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x7fé \U0001f600'),
                           st.characters(exclude_categories=())))
_NUMBERS = st.one_of(st.floats(), st.integers(-10**20, 10**20))
_POSITIVE = st.one_of(st.floats(min_value=0, exclude_min=True), st.integers(1, 10**6))


@st.composite
def _images(draw):
    ids = draw(st.lists(_TEXTS.filter(bool), max_size=4, unique=True))
    per_image, classes = {}, {}
    for image_id in ids:
        names = tuple(draw(st.lists(_TEXTS, min_size=1, max_size=3)))
        box = st.builds(Box, _NUMBERS, _NUMBERS, _POSITIVE, _POSITIVE, st.sampled_from(SPACES))
        per_image[image_id] = draw(st.lists(st.builds(
            Detection, st.integers(-len(names), len(names) - 1), box, _NUMBERS,
            st.tuples(_NUMBERS, _NUMBERS)), max_size=3))
        classes[image_id] = names
    return per_image, classes


@settings(max_examples=300, deadline=None)
@given(_images())
def test_writer_is_json_dumps_with_indent_2(images):
    per_image, classes = images
    want = _oracle(per_image, classes)
    assert detections_to_json(per_image, classes) == want
    # one block per image, encoded apart and joined, is the same file
    blocks = [entries_json(image_id, per_image[image_id], classes[image_id])
              for image_id in sorted(per_image)]
    assert join_entries(blocks) == want


def test_writer_without_detections_writes_an_empty_array():
    assert detections_to_json({}, {}) == "[]" == json.dumps([], indent=2)
    # an image without detections needs no class names
    assert detections_to_json({"a": [], "b": []}, {}) == "[]"
    assert entries_json("a", [], ("background",)) == ""
    assert join_entries(["", ""]) == "[]"


def test_map_decoder_keeps_the_codec_names():
    assert map_decoder.Detection is detections.Detection
    assert map_decoder.detections_to_json is detections.detections_to_json
    assert map_decoder.detections_from_json is detections.detections_from_json

