"""COCO-style annotation ingestion, dataset splits, and box rescaling.

Boxes carry an explicit coordinate-space tag (``native``, ``net416`` or
``map``) so that detections and ground truth can never be compared across
mismatched resolutions by accident. Splits and negative mixing are
deterministic functions of their seed.
"""

from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

SPACES = ("native", "net416", "map")
NET_SIZE = 416


class CocoParseError(ValueError):
    """The document lacks a required array or holds a non-array there, or an
    entry of one is not an object, lacks its id, holds a category id that is
    an array or an object, holds a caption or phrase that is neither a
    string nor null, or holds a bbox that is not 4 finite numbers. A file
    that is not UTF-8, not JSON or not an object is refused by read_json."""


class ReferentialIntegrityError(ValueError):
    """An annotation references an image id that does not exist."""


class CocoValidationError(ValueError):
    """A record is structurally present but carries invalid values."""


@dataclass(frozen=True)
class Box:
    x: float
    y: float
    w: float
    h: float
    space: str = "native"

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box dims must be positive, got w={self.w} h={self.h}")
        if self.space not in SPACES:
            raise ValueError(f"unknown coordinate space {self.space!r}")

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    width: int
    height: int


@dataclass(frozen=True)
class Annotation:
    image_id: str
    phrase: str
    boxes: tuple[Box, ...]


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int
    ratios: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "train_ids": list(self.train_ids),
            "val_ids": list(self.val_ids),
            "test_ids": list(self.test_ids),
            "seed": self.seed,
            "ratios": list(self.ratios),
        }


def is_finite_number(value) -> bool:
    """A JSON number that a float holds: not a bool, NaN, an infinity or an
    integer beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _required(record, array: str, i: int, key: str):
    """``record[key]`` for entry ``i`` of a COCO array, or a CocoParseError."""
    if not isinstance(record, dict):
        raise CocoParseError(f"{array}[{i}] is not an object")
    if key not in record:
        raise CocoParseError(f"{array}[{i}] is missing {key!r}")
    return record[key]


def _category_id(value, where: str):
    """``value`` as a category key; an array or an object cannot be one."""
    if isinstance(value, (list, dict)):
        raise CocoParseError(f"{where} must be a string or a number, not {value!r}")
    return value


def load_coco(source) -> tuple[list[ImageRecord], list[Annotation]]:
    """Load images and annotations from a COCO-style export.

    ``source`` may be a path or an already-parsed dict. Annotation rows
    sharing (image id, phrase) are merged into one multi-box Annotation,
    boxes in file order. With a path, every refusal starts with that path.
    """
    if not isinstance(source, (str, Path)):
        return _coco_records(source)
    try:  # read_json's own refusals already start with the path
        return _coco_records(read_json(source, dict))
    except (CocoParseError, ReferentialIntegrityError, CocoValidationError) as e:
        raise type(e)(f"{source}: {e}") from e


def _coco_records(doc: dict) -> tuple[list[ImageRecord], list[Annotation]]:
    for key in ("images", "annotations", "categories"):
        if key not in doc:
            raise CocoParseError(f"document is missing the {key!r} array")
        if not isinstance(doc[key], list):
            raise CocoParseError(f"{key!r} must be an array, not {type(doc[key]).__name__}")

    categories = {}
    for i, cat in enumerate(doc["categories"]):
        cat_id = str(_category_id(_required(cat, "categories", i, "id"), f"categories[{i}] 'id'"))
        if cat_id in categories:
            raise CocoValidationError(f"categories[{i}] repeats category id {cat_id!r}")
        categories[cat_id] = str(cat.get("name", ""))

    images: dict[str, ImageRecord] = {}
    for i, im in enumerate(doc["images"]):
        image_id = str(_required(im, "images", i, "id"))
        width = im.get("width", 0)
        height = im.get("height", 0)
        for key, value in (("width", width), ("height", height)):
            if not is_finite_number(value):
                raise CocoParseError(f"images[{i}] {key!r} is not a finite number: {value!r}")
            if value != int(value):  # stored as a whole number of pixels
                raise CocoValidationError(f"images[{i}] {key!r} is not a whole number: {value!r}")
        if width <= 0 or height <= 0:
            raise CocoValidationError(
                f"image {image_id}: non-positive dimensions {width}x{height}"
            )
        if image_id in images:
            raise CocoValidationError(f"images[{i}] repeats image id {image_id!r}")
        images[image_id] = ImageRecord(image_id, int(width), int(height))

    grouped: dict[tuple[str, str], list[Box]] = {}
    for i, ann in enumerate(doc["annotations"]):
        image_id = str(_required(ann, "annotations", i, "image_id"))
        if image_id not in images:
            raise ReferentialIntegrityError(
                f"annotation references unknown image id {image_id!r}"
            )
        bbox = _required(ann, "annotations", i, "bbox")
        if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4
                and all(is_finite_number(v) for v in bbox)):
            raise CocoParseError(
                f"annotations[{i}] 'bbox' is not an array of 4 finite numbers: {bbox!r}")
        x, y, w, h = (float(v) for v in bbox)
        if w <= 0 or h <= 0:
            raise CocoValidationError(
                f"annotation on image {image_id}: non-positive bbox dims {w}x{h}"
            )
        cat_id = str(_category_id(ann.get("category_id"), f"annotations[{i}] 'category_id'"))
        for key in ("caption", "phrase"):
            if not isinstance(ann.get(key), (str, type(None))):
                raise CocoParseError(f"annotations[{i}] {key!r} must be a string or null, "
                                     f"not {ann[key]!r}")
        phrase = ann.get("caption") or ann.get("phrase") or categories.get(cat_id, "")
        if not phrase:
            raise CocoValidationError(f"annotation on image {image_id}: empty phrase")
        grouped.setdefault((image_id, phrase), []).append(Box(x, y, w, h, "native"))

    annotations = [Annotation(image_id, phrase, tuple(boxes))
                   for (image_id, phrase), boxes in grouped.items()]
    return list(images.values()), annotations


def make_split(ids, ratios, seed: int) -> DatasetSplit:
    """Deterministically split ids into train/val/test buckets.

    Bucket sizes are floor(n * ratio); ids left over after flooring go to
    the train bucket.
    """
    ids = [str(i) for i in ids]
    if not ids:
        raise ValueError("cannot split an empty id list")
    if len(set(ids)) != len(ids):
        raise ValueError("ids must be unique")
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(0 <= r < math.inf for r in ratios):  # NaN fails too
        raise ValueError(f"ratios must be three non-negative finite numbers, not {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")

    # numpy is imported only where a generator is seeded, so that reading
    # annotations (eval_harness, and through it the CLI parser) loads none
    import numpy as np

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]

    n = len(ids)
    n_train = math.floor(n * ratios[0])
    n_val = math.floor(n * ratios[1])
    n_test = math.floor(n * ratios[2])
    n_train += n - (n_train + n_val + n_test)  # remainder to the largest bucket

    return DatasetSplit(
        train_ids=tuple(shuffled[:n_train]),
        val_ids=tuple(shuffled[n_train:n_train + n_val]),
        test_ids=tuple(shuffled[n_train + n_val:]),
        seed=int(seed),
        ratios=ratios,
    )


def mix_negatives(positive_ids, negative_pool, ratio: float, seed: int,
                  names=("positives", "negative pool")) -> list[str]:
    """Positives plus a seeded sample of floor(ratio * n_pos) negatives.

    Ratio 1.0 mixes negatives and positives equally. A pool smaller than
    the request, however large the ratio, yields the whole pool and a warning.
    An id listed twice, in one list or in both, is refused, naming each
    list by its entry in ``names``.
    """
    if not 0 < ratio < math.inf:  # NaN fails too
        raise ValueError(f"ratio must be a positive finite number, not {ratio}")
    positive_ids = [str(i) for i in positive_ids]
    negative_pool = [str(i) for i in negative_pool]
    listed = {}
    for name, ids in zip(names, (positive_ids, negative_pool)):
        for i in ids:
            if i in listed:
                raise ValueError(f"{name}: id {i!r} is listed twice" if listed[i] == name
                                 else f"{name}: id {i!r} is also listed in {listed[i]}")
            listed[i] = name
    want = ratio * len(positive_ids)  # inf where the product overflows
    import numpy as np  # here only, as in make_split

    rng = np.random.default_rng(seed)
    if want >= len(negative_pool) + 1:  # floor(want) > len(negative_pool)
        logger.warning(
            "negative pool has %d ids, wanted %s; taking the whole pool",
            len(negative_pool), math.floor(want) if want < math.inf else want,
        )
        sampled = list(negative_pool)
        rng.shuffle(sampled)
    else:
        idx = rng.choice(len(negative_pool), size=math.floor(want), replace=False)
        sampled = [negative_pool[i] for i in idx]
    return positive_ids + sampled


def rescale_box(box: Box, from_dims, to_dims, to_space: str | None = None) -> Box:
    """Rescale a box between resolutions by independent axis ratios."""
    fw, fh = from_dims
    tw, th = to_dims
    if tw <= 0 or th <= 0:
        raise ValueError(f"target dims must be positive, got {to_dims}")
    if fw <= 0 or fh <= 0:
        raise ValueError(f"source dims must be positive, got {from_dims}")
    sx = tw / fw
    sy = th / fh
    return Box(
        x=box.x * sx, y=box.y * sy, w=box.w * sx, h=box.h * sy,
        space=to_space if to_space is not None else box.space,
    )


def utf8_text(data: bytes, where) -> str:
    """``data`` decoded, or a ValueError that starts with ``where``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{where}: not UTF-8 ({e.reason} at byte {e.start})") from e


def read_json(path, top: type):
    """The JSON document of the UTF-8 file ``path``, whose top level must be
    a ``top`` (dict or list); each refusal is a ValueError naming the path."""
    try:
        doc = json.loads(utf8_text(Path(path).read_bytes(), path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, top):
        kind = "object" if top is dict else "array"
        raise ValueError(f"{path}: top level must be a JSON {kind}, not {type(doc).__name__}")
    return doc


def read_id_file(path) -> list[str]:
    """The non-blank lines of ``path``, stripped."""
    text = utf8_text(Path(path).read_bytes(), path)
    return [line.strip() for line in io.StringIO(text, newline=None) if line.strip()]
