"""The detections file: a JSON array of entries, each one detection's image
id, class name, box, coordinate space, confidence and centroid.

This module needs neither numpy nor scipy, so that ``eval`` reads
detections without them. The writer is a fixed template, byte-identical to
``json.dumps(entries, indent=2)``: each image's entries are encoded on
their own (``entries_json``), so that the process which decoded a map can
encode its detections and the blocks need only be joined
(``join_entries``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .annotation_store import Box, is_finite_number, read_json


@dataclass(frozen=True)
class Detection:
    class_index: int
    box: Box
    confidence: float
    centroid: tuple[float, float]


def _scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it: a finite float by its repr and
    a string with every non-ASCII character escaped (``ensure_ascii``)."""
    if type(value) is float and value - value == 0:  # finite
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


def entries_json(image_id: str, dets: list[Detection], classes: tuple[str, ...]) -> str:
    """The entries of one image's detections, as ``json.dumps(entries,
    indent=2)`` writes them inside its array, in the order given; "" when
    there are none."""
    s = _scalar
    image = s(image_id)
    names = [s(name) for name in classes]
    return ",\n".join([
        f'  {{\n    "image_id": {image},\n    "class": {names[det.class_index]},\n'
        f'    "box": [\n      {s(det.box.x)},\n      {s(det.box.y)},\n'
        f'      {s(det.box.w)},\n      {s(det.box.h)}\n    ],\n'
        f'    "space": {s(det.box.space)},\n    "confidence": {s(det.confidence)},\n'
        f'    "centroid": [\n      {s(det.centroid[0])},\n      {s(det.centroid[1])}\n'
        f'    ]\n  }}'
        for det in dets])


def join_entries(blocks) -> str:
    """The detections file, without its final newline, from ``entries_json``
    blocks in file order; empty blocks are skipped."""
    text = ",\n".join(block for block in blocks if block)
    return f"[\n{text}\n]" if text else "[]"


def detections_to_json(per_image: dict[str, list[Detection]],
                       classes_by_image: dict[str, tuple[str, ...]]) -> str:
    """The detections file of ``per_image``, by sorted image id."""
    return join_entries(entries_json(image_id, per_image[image_id], classes_by_image[image_id])
                        for image_id in sorted(per_image) if per_image[image_id])


def _finite_numbers(value, n: int, what: str, where: str) -> list[float]:
    if not (isinstance(value, list) and len(value) == n and all(map(is_finite_number, value))):
        raise ValueError(f"{where}: {what} must be a list of {n} numbers, each finite, "
                         f"not {value!r}")
    return [float(v) for v in value]


def detections_from_json(path) -> dict[str, list[Detection]]:
    """Detections by image id, by descending confidence; ties keep the
    file's order, which is the order ``decode`` gave them."""
    entries = read_json(path, list)
    per_image: dict[str, list[Detection]] = {}
    for i, e in enumerate(entries):
        where = f"{path}: entry {i}"
        if not isinstance(e, dict):
            raise ValueError(f"{where}: not an object")
        try:
            image_id, class_name, confidence = e["image_id"], e["class"], e["confidence"]
            box_values = _finite_numbers(e["box"], 4, "box", where)
            centroid = _finite_numbers(e["centroid"], 2, "centroid", where)
            space = e["space"]
        except KeyError as err:
            raise ValueError(f"{where}: missing field {err}") from err
        if not isinstance(image_id, str) or not image_id:
            raise ValueError(f"{where}: 'image_id' must be a non-empty string, not {image_id!r}")
        if not isinstance(class_name, str) or not class_name:
            raise ValueError(f"{where}: 'class' must be a non-empty string, not {class_name!r}")
        if not is_finite_number(confidence):
            raise ValueError(f"{where}: 'confidence' must be a finite number, "
                             f"not {confidence!r}")
        try:
            box = Box(*box_values, space=space)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from err
        det = Detection(class_index=0,  # class carried by name in the file
                        box=box, confidence=float(confidence), centroid=tuple(centroid))
        per_image.setdefault(image_id, []).append(det)
    for dets in per_image.values():
        dets.sort(key=lambda det: -det.confidence)  # stable
    return per_image
