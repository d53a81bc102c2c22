"""The three workloads: their CLI jobs, set-up loaders, output checks and quality.

Every function that needs literati imports it lazily, so the set-up probe
can time ``import literati.cli`` from a clean interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LEVELS = ("scene_label", "referring", "disease_emphasis")
TUNE_BUDGET = 40
TUNE_IOU = 0.1      # the tuner's objective: top-1 hits at this IOU
NET_SIZE = 416


@dataclass
class Outcome:
    """What the output checks found in one set of CLI outputs."""
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    quality: float = float("nan")
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                                         # what one item is
    jobs: Callable[[Path, Path], list[list[str]]]    # (inputs, out) -> argvs
    items: Callable[[Path], int]                      # items per run of the jobs
    setup: Callable[[Path], None]                     # the library loaders
    digests: Callable[[Path], dict[str, str]]         # outputs that must not change
    check: Callable[[Path, Path], Outcome]            # (inputs, out) -> outcome
    reference: str = "maps"                           # reference.py task to calibrate by


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# decode-dense


def _decode_jobs(inp: Path, out: Path) -> list[list[str]]:
    det = str(out / "detections.json")
    return [
        ["decode", "--maps", str(inp / "maps"), "--space", "net416", "--out", det],
        ["eval", "--detections", det, "--ann", str(inp / "annotations.json"),
         "--mode", "greedy_multi", "--out", str(out / "table.csv")],
    ]


def _count_maps(inp: Path) -> int:
    return len(list((inp / "maps").glob("*.npy")))


def _load_maps_and_coco(inp: Path) -> None:
    from literati import annotation_store, map_decoder

    map_decoder.load_maps_dir(inp / "maps")
    annotation_store.load_coco(inp / "annotations.json")


def _decode_digests(out: Path) -> dict[str, str]:
    return {"detections": sha256((out / "detections.json").read_bytes())}


def _check_decode(inp: Path, out: Path) -> Outcome:
    from literati import eval_harness
    from literati.annotation_store import Box, rescale_box
    from literati.map_decoder import Detection

    res = Outcome(digests=_decode_digests(out))
    entries = json.loads((out / "detections.json").read_text(encoding="utf-8"))
    res.counts["detections"] = len(entries)
    if not entries:
        res.problems.append("no detections")
    image_order = []
    per_class: dict[tuple[str, str], list] = {}
    last_conf: dict[str, float] = {}
    eps = 1e-9
    for e in entries:
        image_id = e["image_id"]
        if image_id not in last_conf:
            image_order.append(image_id)
            last_conf[image_id] = math.inf
        x, y, w, h = e["box"]
        if e["space"] != "net416" or not (
                x >= -eps and y >= -eps and w > 0 and h > 0
                and x + w <= NET_SIZE + eps and y + h <= NET_SIZE + eps):
            res.problems.append(f"{image_id}: box {e['box']} ({e['space']}) "
                                f"outside the net416 frame")
        if e["confidence"] > last_conf[image_id]:
            res.problems.append(f"{image_id}: detections not sorted by confidence")
        last_conf[image_id] = e["confidence"]
        per_class.setdefault((image_id, e["class"]), []).append(Detection(
            class_index=0, box=Box(x, y, w, h, "net416"),
            confidence=e["confidence"], centroid=tuple(e["centroid"])))
    if image_order != sorted(image_order):
        res.problems.append("detections not grouped by sorted image id")
    table = (out / "table.csv").read_text(encoding="utf-8")
    if not table.startswith("IOU,"):
        res.problems.append("eval table missing its header")

    # Greedy micro-recall at IOU 0.5, each (image, class) scored only against
    # its own class's ground truth.
    coco = json.loads((inp / "annotations.json").read_text(encoding="utf-8"))
    dims = {im["id"]: (im["width"], im["height"]) for im in coco["images"]}
    names = {c["id"]: c["name"] for c in coco["categories"]}
    gts: dict[tuple[str, str], list] = {}
    for ann in coco["annotations"]:
        box = rescale_box(Box(*ann["bbox"], "native"), dims[ann["image_id"]],
                          (NET_SIZE, NET_SIZE), to_space="net416")
        gts.setdefault((ann["image_id"], names[ann["category_id"]]), []).append(box)
    results = [
        eval_harness.match_image(per_class.get(key, []), boxes, 0.5,
                                 mode="greedy_multi", image_id=key[0])
        for key, boxes in sorted(gts.items())
    ]
    res.quality = eval_harness.micro_recall(results, 0.5)
    return res


# ---------------------------------------------------------------------------
# tune-planted


def gts_net416(ann_path: Path) -> dict[str, list]:
    """Ground-truth boxes per image, rescaled to the net416 frame."""
    from literati import annotation_store as store

    images, annotations = store.load_coco(ann_path)
    dims = {im.image_id: (im.width, im.height) for im in images}
    gts: dict[str, list] = {im.image_id: [] for im in images}
    for ann in annotations:
        for box in ann.boxes:
            gts[ann.image_id].append(store.rescale_box(
                box, dims[ann.image_id], (store.NET_SIZE, store.NET_SIZE), to_space="net416"))
    return gts


def decode_params(raw: dict):
    """DecodeParams for a trial's params, the way the tuner builds them."""
    from literati.map_decoder import DecodeParams

    defaults = DecodeParams()
    merged = {"d": defaults.d, "tau": defaults.tau, "alpha": defaults.alpha, **raw}
    return DecodeParams(d=int(merged["d"]), tau=float(merged["tau"]),
                        alpha=float(merged["alpha"]))


def top1_objective(maps, gts: dict[str, list], params) -> tuple[float, dict[str, list]]:
    """The tuner's objective for one trial, and the net416 detections it scored."""
    from literati import eval_harness as harness
    from literati import map_decoder as decoder

    per_image, results = {}, []
    for m in maps:
        image_id = m.meta.image_id
        dets = [decoder.detection_to_net416(d, m.meta) for d in decoder.decode(m.logits, params)]
        per_image[image_id] = dets
        results.append(harness.match_image(dets, gts.get(image_id, []), TUNE_IOU,
                                           mode="top1", image_id=image_id))
    included = [r for r in results if not r.excluded]
    return sum(1 for r in included if r.outcomes[TUNE_IOU].hit) / len(included), per_image


def _tune_jobs(inp: Path, out: Path) -> list[list[str]]:
    # The tuner keeps its default seed: its random start-up trials then cost
    # the same on every workload seed, and only the maps change.
    return [["tune", "--maps", str(inp / "maps"), "--ann", str(inp / "annotations.json"),
             "--budget", str(TUNE_BUDGET), "--out", str(out / "trials.json")]]


def trial_log(path: Path) -> list[dict]:
    """The trial log's params, objective and status; later fields are ignored."""
    trials = json.loads(path.read_text(encoding="utf-8"))
    return [{"params": t["params"], "objective": t["objective"], "status": t["status"]}
            for t in trials]


def canonical_trials(trials: list[dict]) -> bytes:
    return json.dumps(trials, sort_keys=True).encode()


def _tune_digests(out: Path) -> dict[str, str]:
    return {"trials": sha256(canonical_trials(trial_log(out / "trials.json")))}


def _check_tune(inp: Path, out: Path) -> Outcome:
    from literati import map_decoder as decoder

    trials = trial_log(out / "trials.json")
    res = Outcome(digests=_tune_digests(out))
    # The planted maps carry no noise, so every trial may score alike and the
    # trial log need not depend on the maps. The detections trial 0 scored do:
    # decode every map at its params through the public functions, digest the
    # detections and re-score them against the log.
    if trials:
        maps = decoder.load_maps_dir(inp / "maps")
        value, per_image = top1_objective(maps, gts_net416(inp / "annotations.json"),
                                          decode_params(trials[0]["params"]))
        classes = {m.meta.image_id: m.meta.classes for m in maps}
        res.digests["decode"] = sha256(decoder.detections_to_json(per_image, classes).encode())
        if value != trials[0]["objective"]:
            res.problems.append(f"trial 0: objective {trials[0]['objective']} in the log, "
                                f"{value} from its detections")
    complete = [t for t in trials if t["status"] == "complete"]
    res.counts["trials"] = len(trials)
    res.counts["failed_trials"] = len(trials) - len(complete)
    if len(trials) != TUNE_BUDGET:
        res.problems.append(f"{len(trials)} trials, budget {TUNE_BUDGET}")
    for i, t in enumerate(trials):
        if t["status"] not in ("complete", "failed"):
            res.problems.append(f"trial {i}: status {t['status']!r}")
        if set(t["params"]) != {"d", "tau", "alpha"}:
            res.problems.append(f"trial {i}: params {sorted(t['params'])}")
    for i, t in enumerate(complete):
        if not 0.0 <= t["objective"] <= 1.0:
            res.problems.append(f"complete trial {i}: objective {t['objective']}")
    if complete:
        res.quality = max(t["objective"] for t in complete)
    else:
        res.problems.append("no complete trial")
    return res


# ---------------------------------------------------------------------------
# parse-corpus


def _parse_jobs(inp: Path, out: Path) -> list[list[str]]:
    return [["parse", "--reports", str(inp / "reports.jsonl"), "--level", level,
             "--out", str(out / f"{level}.jsonl")] for level in LEVELS]


def _count_report_items(inp: Path) -> int:
    with open(inp / "reports.jsonl", "rb") as f:
        return sum(1 for _ in f) * len(LEVELS)


def _load_lexicon_and_reports(inp: Path) -> None:
    from literati import report_parser

    report_parser.default_lexicon()
    report_parser.read_reports_jsonl(inp / "reports.jsonl")


def _parse_digests(out: Path) -> dict[str, str]:
    return {level: sha256((out / f"{level}.jsonl").read_bytes()) for level in LEVELS}


def _check_parse(inp: Path, out: Path) -> Outcome:
    res = Outcome(digests=_parse_digests(out))
    n_reports = _count_report_items(inp) // len(LEVELS)
    polarity: dict[str, dict[str, str]] = {}
    total = 0
    for level in LEVELS:
        lines = (out / f"{level}.jsonl").read_text(encoding="utf-8").splitlines()
        res.counts[f"{level}_expressions"] = len(lines)
        total += len(lines)
        for n, line in enumerate(lines, 1):
            try:
                doc = json.loads(line)
                ok = (doc["level"] == level and doc["polarity"] in ("positive", "negative")
                      and isinstance(doc["phrase"], str) and doc["report_id"])
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                res.problems.append(f"{level}.jsonl line {n} is not a valid expression")
                continue
            if level == "disease_emphasis":
                for disease in doc["disease_tags"]:
                    polarity.setdefault(doc["report_id"], {})[disease] = doc["polarity"]
        if level == "scene_label" and len(lines) != n_reports:
            res.problems.append(f"{len(lines)} scene labels for {n_reports} reports")
    res.counts["expressions"] = total
    labels = json.loads((inp / "labels.json").read_text(encoding="utf-8"))
    right = sum(polarity.get(rid, {}).get(disease) == want
                for rid, (disease, want) in labels.items())
    res.quality = right / len(labels)
    return res


WORKLOADS = {
    "decode-dense": Workload("decode-dense", "map", _decode_jobs, _count_maps,
                             _load_maps_and_coco, _decode_digests, _check_decode),
    "tune-planted": Workload("tune-planted", "trial", _tune_jobs, lambda inp: TUNE_BUDGET,
                             _load_maps_and_coco, _tune_digests, _check_tune),
    "parse-corpus": Workload("parse-corpus", "report x level", _parse_jobs,
                             _count_report_items, _load_lexicon_and_reports,
                             _parse_digests, _check_parse, reference="python"),
}
