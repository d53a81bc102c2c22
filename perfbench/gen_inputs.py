"""Seeded inputs for the three workloads.

Inputs are a pure function of (workload, size, seed, GENERATOR_VERSION).
They are written once under ``.bench_inputs/`` in the checkout and reused,
so generation never enters a timing. The program under test only ever
reads the files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy import ndimage

GENERATOR_VERSION = 1
NET_SIZE = 416
DENSE_CLASSES = ("background", "pneumonia", "pneumothorax")

# (map side, noise smoothing sigma): larger maps and rougher noise give more
# seeds per map. Costliest first, so the CLI's thread pool ends balanced.
DENSE_MAPS = {
    "full": ((416, 3.0), (416, 4.0), (416, 5.0)) * 2 + ((256, 2.0), (256, 3.0), (256, 4.0)) * 2,
    "tiny": ((96, 3.0), (64, 2.0)),
}
DENSE_BUMPS_PER_MAP = 4
DENSE_NOISE_AMPLITUDE = 0.7
CLEAR_ZONE = 1.6  # noise-free radius around a bump, in bump radii
PLANTED_MAPS = {"full": 25, "tiny": 3}     # per peak count (1 and 2)
CORPUS_REPLICAS = {"full": 180, "tiny": 2}  # copies of each fixture text
SIZES = tuple(DENSE_MAPS)


def ensure_inputs(root: Path, src: Path, workload: str, size: str, seed: int) -> Path:
    """Directory holding the workload's inputs, generated if missing."""
    out = root / ".bench_inputs" / f"{workload}-{size}-s{seed}-g{GENERATOR_VERSION}"
    if (out / "DONE").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    GENERATORS[workload](tmp, src, size, seed)
    (tmp / "DONE").write_text(tree_digest(tmp) + "\n", encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and p.name != "DONE"):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _write_map(directory: Path, image_id: str, classes, logits: np.ndarray) -> None:
    """One map in the decoder's on-disk format: float32 .npy plus JSON sidecar."""
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / f"{image_id}.npy", np.ascontiguousarray(logits, dtype=np.float32))
    sidecar = {
        "image_id": image_id,
        "classes": list(classes),
        "space": "map",
        "map_to_net_scale": NET_SIZE / logits.shape[2],
    }
    (directory / f"{image_id}.json").write_text(json.dumps(sidecar, indent=2) + "\n",
                                                encoding="utf-8")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _bump_radius(amplitude: float, sigma: float, alpha: float = 0.5) -> float:
    """Radius where a bump's probability falls to alpha * peak.

    With the two other channels at logit 0 the class probability at logit
    g is e^g / (e^g + 2); the bump is amplitude * exp(-r^2 / 2 sigma^2).
    """
    peak = math.exp(amplitude) / (math.exp(amplitude) + 2.0)
    target = alpha * peak
    g = math.log(2.0 * target / (1.0 - target))
    return sigma * math.sqrt(2.0 * math.log(amplitude / g))


def make_decode_dense(out: Path, src: Path, size: str, seed: int) -> None:
    """3-channel smoothed-noise maps with Gaussian bumps in one disease class."""
    rng = np.random.default_rng([seed, 1])
    images, annotations = [], []
    for i, (side, smoothing) in enumerate(DENSE_MAPS[size]):
        noise = rng.standard_normal((len(DENSE_CLASSES), side, side))
        logits = np.stack([ndimage.gaussian_filter(ch, smoothing) for ch in noise])
        logits *= DENSE_NOISE_AMPLITUDE / logits.std()
        cls = 1 + int(rng.integers(0, len(DENSE_CLASSES) - 1))
        rows = np.arange(side, dtype=np.float64)[:, None]
        cols = np.arange(side, dtype=np.float64)[None, :]
        half = side // 2
        image_id = f"dense-{seed}-{i:02d}"
        bumps = []
        for q in range(DENSE_BUMPS_PER_MAP):
            amp = float(rng.uniform(6.0, 8.0))
            sigma = float(rng.uniform(0.02, 0.035) * side)
            radius = _bump_radius(amp, sigma)
            margin = int(math.ceil(CLEAR_ZONE * radius)) + 2
            r0 = (q // 2) * half + int(rng.integers(margin, half - margin))
            c0 = (q % 2) * half + int(rng.integers(margin, half - margin))
            bumps.append((r0, c0, amp, sigma, radius))
        # Noise fades out around each bump, so the region a bump grows stops
        # at its analytic radius instead of leaking into noise ridges.
        for r0, c0, amp, sigma, radius in bumps:
            dist2 = (rows - r0) ** 2 + (cols - c0) ** 2
            logits *= 1.0 - np.exp(-((dist2 / (CLEAR_ZONE * radius) ** 2) ** 3))
        for r0, c0, amp, sigma, radius in bumps:
            dist2 = (rows - r0) ** 2 + (cols - c0) ** 2
            logits[cls] += amp * np.exp(-dist2 / (2.0 * sigma * sigma))
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "bbox": [c0 + 0.5 - radius, r0 + 0.5 - radius, 2.0 * radius, 2.0 * radius],
                "caption": DENSE_CLASSES[cls],
                "category_id": cls,
            })
        _write_map(out / "maps", image_id, DENSE_CLASSES, logits)
        images.append({"id": image_id, "width": side, "height": side})
    categories = [{"id": k, "name": name} for k, name in enumerate(DENSE_CLASSES) if k]
    _write_json(out / "annotations.json",
                {"images": images, "annotations": annotations, "categories": categories})


def make_tune_planted(out: Path, src: Path, size: str, seed: int) -> None:
    """Planted 64x64 maps, half with one peak and half with two."""
    from literati import synthetic

    n = PLANTED_MAPS[size]
    planted = (synthetic.make_planted_maps(n, seed, peaks_per_image=1, id_prefix="one")
               + synthetic.make_planted_maps(n, seed, peaks_per_image=2, id_prefix="two"))
    for p in planted:
        _write_map(out / "maps", p.meta.image_id, p.meta.classes, p.logits)
    _write_json(out / "annotations.json", synthetic.planted_coco(planted))


def corpus_pool(src: Path) -> list[dict]:
    """Fixture texts: the bundled reports, then the labelled negation sentences."""
    fixtures = src / "literati" / "data" / "fixtures"
    pool = []
    for line in (fixtures / "reports_sample.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            pool.append({"text": json.loads(line)["text"]})
    for line in (fixtures / "negation_sentences.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            doc = json.loads(line)
            pool.append({"text": doc["text"], "disease": doc["disease"],
                         "polarity": doc["polarity"]})
    return pool


def make_parse_corpus(out: Path, src: Path, size: str, seed: int) -> None:
    """Every fixture text replicated under fresh ids, in seeded order.

    ``labels.json`` keeps the negation label of each report built from a
    labelled sentence; the program never reads it.
    """
    pool = corpus_pool(src)
    order = np.random.default_rng([seed, 3]).permutation(len(pool) * CORPUS_REPLICAS[size])
    labels = {}
    with open(out / "reports.jsonl", "w", encoding="utf-8") as f:
        for i, j in enumerate(order.tolist()):
            doc = pool[j % len(pool)]
            subject, study = f"p{seed}-{i:05d}", f"s{j // len(pool):03d}"
            f.write(json.dumps({"subject_id": subject, "study_id": study,
                                "text": doc["text"]}) + "\n")
            if "disease" in doc:
                labels[f"{subject}/{study}"] = [doc["disease"], doc["polarity"]]
    _write_json(out / "labels.json", labels)


GENERATORS = {
    "decode-dense": make_decode_dense,
    "tune-planted": make_tune_planted,
    "parse-corpus": make_parse_corpus,
}
