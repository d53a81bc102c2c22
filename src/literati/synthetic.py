"""Synthetic logit maps with planted peaks and known ground-truth boxes.

Each map is a two-channel logit grid (background, one disease class) with
one or two Gaussian bumps on a negative baseline. The ground-truth box of
a bump is computed analytically from the level set the decoder's region
growth will reach, so decode accuracy on these maps is predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotation_store import Box
from .map_decoder import MapMeta


@dataclass(frozen=True)
class PlantedMap:
    meta: MapMeta
    logits: np.ndarray            # float64 [2, H, W]
    boxes: tuple[Box, ...]        # ground truth, map space


def _logistic(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def planted_radius(amplitude: float, baseline: float, sigma: float, alpha: float) -> float:
    """Radius of the level set where growth at fraction ``alpha`` stops.

    The two-channel softmax probability at distance r from the bump center
    is logistic(amplitude * exp(-r^2 / (2 sigma^2)) - baseline); this
    solves for the radius where it crosses alpha * peak probability.
    """
    peak = _logistic(amplitude - baseline)
    target = alpha * peak
    g = (baseline + _logit(target)) / amplitude
    if g <= 0:
        raise ValueError("bump never decays to the growth threshold")
    return sigma * math.sqrt(2.0 * math.log(1.0 / g))


def make_planted_maps(
    n_images: int,
    seed: int,
    peaks_per_image: int = 1,
    shape: tuple[int, int] = (64, 64),
    amplitude_range: tuple[float, float] = (5.0, 6.5),
    baseline: float = 2.5,
    sigma_range: tuple[float, float] = (2.5, 3.5),
    alpha: float = 0.5,
    id_prefix: str = "synth",
) -> list[PlantedMap]:
    """Deterministic batch of planted maps.

    ``alpha`` must match the decode parameter for the analytic boxes to
    line up with the decoded regions.
    """
    if peaks_per_image not in (1, 2):
        raise ValueError("peaks_per_image must be 1 or 2")
    H, W = shape
    rng = np.random.default_rng(seed)
    rows = np.arange(H, dtype=np.float64)[:, None]
    cols = np.arange(W, dtype=np.float64)[None, :]

    out = []
    for i in range(n_images):
        sigmas = rng.uniform(*sigma_range, size=peaks_per_image)
        amps = rng.uniform(*amplitude_range, size=peaks_per_image)
        margin = int(math.ceil(max(
            planted_radius(a, baseline, s, alpha) for a, s in zip(amps, sigmas)
        ))) + 6
        if peaks_per_image == 1:
            centers = [(
                float(rng.integers(margin, H - margin)),
                float(rng.integers(margin, W - margin)),
            )]
        else:
            # opposite quadrants keep the two regions well separated
            centers = [
                (float(rng.integers(margin, H // 2 - 4)),
                 float(rng.integers(margin, W // 2 - 4))),
                (float(rng.integers(H // 2 + 4, H - margin)),
                 float(rng.integers(W // 2 + 4, W - margin))),
            ]
        disease = np.full((H, W), -baseline)
        boxes = []
        for (r0, c0), a, s in zip(centers, amps, sigmas):
            disease += a * np.exp(-((rows - r0) ** 2 + (cols - c0) ** 2) / (2.0 * s * s))
            radius = planted_radius(a, baseline, s, alpha)
            boxes.append(Box(
                x=c0 + 0.5 - radius,
                y=r0 + 0.5 - radius,
                w=2.0 * radius,
                h=2.0 * radius,
                space="map",
            ))
        logits = np.stack([np.zeros((H, W)), disease])
        meta = MapMeta(
            image_id=f"{id_prefix}-{seed}-{i:03d}",
            classes=("background", "pneumonia"),
            size=(W, H),
        )
        out.append(PlantedMap(meta=meta, logits=logits, boxes=tuple(boxes)))
    return out


def planted_coco(planted_maps: list[PlantedMap]) -> dict:
    """COCO-style document for the planted boxes, in map-resolution pixels;
    each image is as large as its map."""
    doc = {
        "images": [
            {"id": p.meta.image_id, "width": p.logits.shape[2], "height": p.logits.shape[1]}
            for p in planted_maps
        ],
        "annotations": [],
        "categories": [{"id": 1, "name": "pneumonia"}],
    }
    next_id = 1
    for p in planted_maps:
        for box in p.boxes:
            doc["annotations"].append({
                "id": next_id,
                "image_id": p.meta.image_id,
                "bbox": [box.x, box.y, box.w, box.h],
                "caption": "planted peak",
                "category_id": 1,
            })
            next_id += 1
    return doc
