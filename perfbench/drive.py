"""Traced run: each CLI job driven item by item through literati's public functions.

The drives below redo what the CLI subcommands do, one map, trial or
report at a time, with span wrappers installed on the public functions of
each module. A traced run first runs the real CLI jobs untraced, then the
drives, and requires that the drives compose byte-identical outputs; for
``tune`` that means replaying ``suggest`` over the history so far and
recomputing every objective. If the program's internals drift so that a
drive no longer does the CLI's work, the run fails instead of reporting
a wrong split.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

LEVELS = workloads.LEVELS


class DriftError(RuntimeError):
    """The program no longer does what a drive assumes of it."""


def _targets():
    """(module, public function, span name, work counter) for every wrapped call."""
    from literati import annotation_store as store
    from literati import eval_harness as harness
    from literati import map_decoder as decoder
    from literati import report_parser as parser
    from literati import tpe_tuner as tpe

    def regions(c, result, prob_map, class_index, *rest):
        c["regions"] += len(result)
        c["region_cells"] += sum(r.member_count for r in result)

    def decoded(c, result, logits, *rest):
        c["maps"] += 1
        c["detections"] += len(result)
        c["class_channels"] += logits.shape[0] - 1

    def coco(c, result, *rest):
        c["boxes"] += sum(len(a.boxes) for a in result[1])

    def matched(c, result, dets, gts, *rest):
        c["match_calls"] += 1
        c["iou_pairs"] += len(dets) * len(gts)

    def segmented(c, result, *rest):
        c["sentences"] += len(result)
        c["tokens"] += sum(len(s.tokens) for s in result)

    return [
        (decoder, "load_maps_dir", "map_decoder.load", None),
        (decoder, "detections_from_json", "map_decoder.load", None),
        (decoder, "decode", "map_decoder.decode", decoded),
        (decoder, "softmax_map", "map_decoder.softmax", None),
        (decoder, "maximal_filter_regions", "map_decoder.regions", regions),
        (decoder, "region_to_detection", "map_decoder.boxes", None),
        (decoder, "detection_to_net416", "map_decoder.boxes", None),
        (decoder, "detections_to_json", "map_decoder.write", None),
        (store, "load_coco", "annotation_store.load_coco", coco),
        (store, "rescale_box", "annotation_store.rescale", None),
        (harness, "match_image", "eval_harness.match", matched),
        (harness, "accuracy_table", "eval_harness.table", None),
        (harness, "render_table", "eval_harness.table", None),
        (tpe, "suggest", "tpe_tuner.suggest", None),
        (parser, "default_lexicon", "report_parser.read", None),
        (parser, "read_reports_jsonl", "report_parser.read", None),
        (parser, "segment_sentences", "report_parser.segment", segmented),
        (parser, "classify_attributes", "report_parser.classify", None),
        (parser, "compose_referring_expression", "report_parser.compose", None),
        (parser, "write_expressions_jsonl", "report_parser.write", None),
    ]


def _cli_targets():
    """Library entry points the CLI calls that no drive calls directly."""
    from literati import report_parser as parser
    from literati import tpe_tuner as tpe

    return [
        (tpe, "tune_decoder", "tpe_tuner.tune", None),
        (tpe, "write_trials", "tpe_tuner.write", None),
        (parser, "parse_report", "report_parser.parse", None),
    ]


# ---------------------------------------------------------------------------
# drives: each mirrors one workload's CLI jobs


def drive_decode_dense(tracer: Tracer, inp: Path, out: Path) -> None:
    """``literati decode --space net416`` then ``literati eval --mode greedy_multi``."""
    from literati import eval_harness as harness
    from literati import map_decoder as decoder

    maps = decoder.load_maps_dir(inp / "maps")
    params = decoder.DecodeParams()
    results = {}
    for m in maps:
        tracer.item = m.meta.image_id
        results[m.meta.image_id] = [decoder.detection_to_net416(d, m.meta)
                                    for d in decoder.decode(m.logits, params)]
    classes = {m.meta.image_id: m.meta.classes for m in maps}
    tracer.item = ""
    det_path = out / "detections.json"
    det_path.write_text(decoder.detections_to_json(results, classes) + "\n", encoding="utf-8")

    per_image = decoder.detections_from_json(det_path)
    gts = workloads.gts_net416(inp / "annotations.json")
    matches = []
    for image_id, boxes in sorted(gts.items()):
        tracer.item = image_id
        matches.append(harness.match_image(per_image.get(image_id, []), boxes,
                                           harness.IOU_THRESHOLDS, mode="greedy_multi",
                                           image_id=image_id))
    tracer.item = ""
    table = harness.accuracy_table(matches, method="detections")
    (out / "table.csv").write_text(harness.render_table(table, format="csv"), encoding="utf-8")


def drive_tune_planted(tracer: Tracer, inp: Path, out: Path) -> None:
    """``literati tune --budget 40``: suggest, then the objective over every map."""
    from literati import map_decoder as decoder
    from literati import tpe_tuner as tpe

    maps = decoder.load_maps_dir(inp / "maps")
    gts = workloads.gts_net416(inp / "annotations.json")
    space = tpe.default_decoder_space()
    cfg = tpe.TpeConfig()
    defaults = decoder.DecodeParams()

    history = []
    for i in range(workloads.TUNE_BUDGET):
        tracer.item = f"trial-{i}"
        if i == 0:  # the tuner evaluates the decoder defaults first
            raw = {"d": defaults.d, "tau": defaults.tau, "alpha": defaults.alpha}
        else:
            raw = tpe.suggest(history, space, cfg)
        with tracer.span("tpe_tuner.objective"):
            try:
                params = workloads.decode_params(raw)
                value = workloads.top1_objective(maps, gts, params)[0]
            except ValueError:  # parameters the decoder rejects
                value = math.nan
        status = "complete" if math.isfinite(value) else "failed"
        history.append(tpe.Trial(params=dict(raw), objective=value, status=status))
        tracer.counts["trials"] += 1
        tracer.counts["failed_trials"] += status == "failed"
    tracer.item = ""
    tpe.write_trials(out / "trials.json", history)


def drive_parse_corpus(tracer: Tracer, inp: Path, out: Path) -> None:
    """``literati parse`` at each level, one report at a time."""
    from literati import report_parser as parser

    for level in LEVELS:
        lexicon = parser.default_lexicon()
        reports = parser.read_reports_jsonl(inp / "reports.jsonl")
        before = tracer.calls.copy()
        sentences = tracer.counts["sentences"]
        expressions = []
        for report in reports:
            tracer.item = f"{report.report_id}#{level}"
            with tracer.span(f"report_parser.{level}"):
                expressions.extend(parser.parse_report(report, lexicon, level))
        tracer.item = ""
        parser.write_expressions_jsonl(out / f"{level}.jsonl", expressions)
        calls = tracer.calls - before
        seen = tracer.counts["sentences"] - sentences
        if calls["segment_sentences"] != len(reports):
            raise DriftError(f"parse_report at level {level} segmented "
                             f"{calls['segment_sentences']} times for {len(reports)} reports")
        if level == "referring" and not (
                calls["classify_attributes"] == calls["compose_referring_expression"] == seen):
            raise DriftError(
                f"referring level: {seen} sentences but {calls['classify_attributes']} "
                f"classify and {calls['compose_referring_expression']} compose calls")
        tracer.counts["expressions"] += len(expressions)


def _check_decoder_calls(tracer: Tracer) -> None:
    c, calls = tracer.counts, tracer.calls
    if calls["decode"] and not (
            calls["softmax_map"] == calls["decode"]
            and calls["maximal_filter_regions"] == c["class_channels"]
            and calls["region_to_detection"] == c["regions"] == c["detections"]):
        raise DriftError(
            f"decode no longer runs softmax_map once, maximal_filter_regions per class "
            f"and region_to_detection per region: {dict(calls)} {dict(c)}")


def _same_bytes(*names):
    def compare(ref: Path, drove: Path) -> list[str]:
        return [f"{name}: traced output differs from the CLI's"
                for name in names if (ref / name).read_bytes() != (drove / name).read_bytes()]
    return compare


def _same_trials(ref: Path, drove: Path) -> list[str]:
    want = workloads.trial_log(ref / "trials.json")
    got = workloads.trial_log(drove / "trials.json")
    for i, (w, g) in enumerate(zip(want, got)):
        if w["params"] != g["params"]:
            return [f"trial {i}: suggest replay gave {g['params']}, CLI tried {w['params']}"]
        if workloads.canonical_trials([w]) != workloads.canonical_trials([g]):
            return [f"trial {i}: recomputed objective {g['objective']} ({g['status']}), "
                    f"CLI recorded {w['objective']} ({w['status']})"]
    if len(want) != len(got):
        return [f"{len(got)} replayed trials, CLI ran {len(want)}"]
    return []


DRIVES = {
    "decode-dense": (drive_decode_dense, _same_bytes("detections.json", "table.csv")),
    "tune-planted": (drive_tune_planted, _same_trials),
    "parse-corpus": (drive_parse_corpus,
                     _same_bytes(*(f"{level}.jsonl" for level in LEVELS))),
}


# ---------------------------------------------------------------------------
# per-layer metrics

# Span names whose self time is reported under each metric. Every *_s metric
# is a self time except tpe_tuner.objective_s and report_parser.<level>_s,
# which are inclusive. Two self times cover more than one step:
# map_decoder.decode_self_s is decode's own time outside its wrapped calls
# (the loop over classes and the confidence sort), and report_parser.scan_s
# is parse_report's own time outside segment, classify and compose (disease
# and negation scanning, and building scene labels and disease mentions).
SELF_TIMES = {
    "map_decoder.load_s": ("map_decoder.load",),
    "map_decoder.softmax_s": ("map_decoder.softmax",),
    "map_decoder.regions_s": ("map_decoder.regions",),
    "map_decoder.boxes_s": ("map_decoder.boxes",),
    "map_decoder.decode_self_s": ("map_decoder.decode",),
    "map_decoder.write_s": ("map_decoder.write",),
    "tpe_tuner.suggest_s": ("tpe_tuner.suggest",),
    "eval_harness.match_s": ("eval_harness.match",),
    "eval_harness.table_s": ("eval_harness.table",),
    "annotation_store.load_coco_s": ("annotation_store.load_coco",),
    "annotation_store.rescale_s": ("annotation_store.rescale",),
    "report_parser.read_s": ("report_parser.read",),
    "report_parser.segment_s": ("report_parser.segment",),
    "report_parser.classify_s": ("report_parser.classify",),
    "report_parser.compose_s": ("report_parser.compose",),
    "report_parser.scan_s": tuple(f"report_parser.{level}" for level in LEVELS),
    "report_parser.write_s": ("report_parser.write",),
}
INCLUSIVE_TIMES = {
    "tpe_tuner.objective_s": "tpe_tuner.objective",
    **{f"report_parser.{level}_s": f"report_parser.{level}" for level in LEVELS},
}
COUNTS = {
    "map_decoder.maps": "maps", "map_decoder.regions": "regions",
    "map_decoder.region_cells": "region_cells", "map_decoder.detections": "detections",
    "tpe_tuner.trials": "trials", "tpe_tuner.failed_trials": "failed_trials",
    "eval_harness.match_calls": "match_calls", "eval_harness.iou_pairs": "iou_pairs",
    "annotation_store.boxes": "boxes", "report_parser.sentences": "sentences",
    "report_parser.tokens": "tokens", "report_parser.expressions": "expressions",
}
LATENCIES = ("map_decoder.decode_ms", "tpe_tuner.trial_ms", "report_parser.report_ms")


def tail_stats(samples: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest percentile
    with at least ten samples above it, or the maximum below 11 samples."""
    if not samples:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    if len(xs) <= 10:
        return statistics.median(xs), xs[-1], 100.0
    k = len(xs) - 11
    return statistics.median(xs), xs[k], 100.0 * (k + 1) / len(xs)


def _latency_samples(tracer: Tracer) -> dict[str, list[float]]:
    trial_ms: dict[str, float] = {}
    for name, start, end, _, item in tracer.spans:
        if name in ("tpe_tuner.suggest", "tpe_tuner.objective"):
            trial_ms[item] = trial_ms.get(item, 0.0) + (end - start) * 1e3
    return {
        "map_decoder.decode_ms": [d * 1e3 for d in tracer.durations("map_decoder.decode")],
        "tpe_tuner.trial_ms": list(trial_ms.values()),
        "report_parser.report_ms": [d * 1e3 for level in LEVELS
                                    for d in tracer.durations(f"report_parser.{level}")],
    }


def trace_run(wl: workloads.Workload, inp: Path, out: Path, seconds: float) -> dict:
    """Untraced CLI jobs and traced drives in turn until ``seconds`` have passed."""
    from literati import cli

    ref, drove = out / "cli", out / "trace"
    ref.mkdir(parents=True, exist_ok=True)
    drove.mkdir(parents=True, exist_ok=True)
    argvs = wl.jobs(inp, ref)
    drive, compare = DRIVES[wl.name]
    inclusive, own, counts = {}, {}, {}
    samples: dict[str, list[float]] = {name: [] for name in LATENCIES}
    job_seconds, cli_overheads, drive_seconds, rcs, problems = [], [], [], [], []
    start = perf_counter()
    while True:
        # The untraced CLI jobs, then the same jobs with every library call
        # wrapped, which leaves the CLI's own time outside the spans.
        t0 = perf_counter()
        rcs.append([cli.run(argv) for argv in argvs])
        job_seconds.append(perf_counter() - t0)
        if any(rcs[-1]):
            return {"job_seconds": job_seconds, "rcs": rcs, "items": wl.items(inp)}
        outer = Tracer()
        with outer.patched(_targets() + _cli_targets()):
            t0 = perf_counter()
            rcs.append([cli.run(argv) for argv in argvs])
            cli_overheads.append(perf_counter() - t0 - outer.root_seconds())
        tracer = Tracer()
        with tracer.patched(_targets()):
            t0 = perf_counter()
            drive(tracer, inp, drove)
            drive_seconds.append(perf_counter() - t0)
        _check_decoder_calls(tracer)
        problems += compare(ref, drove)
        incl, self_ = tracer.times()
        for name in incl:
            inclusive[name] = inclusive.get(name, 0.0) + incl[name]
            own[name] = own.get(name, 0.0) + self_[name]
        counts = dict(tracer.counts)  # identical on every drive
        for name, values in _latency_samples(tracer).items():
            samples[name] += values
        if perf_counter() - start >= seconds:
            break
    tracer.write(out / "spans.tsv")

    n = len(drive_seconds)
    metrics = {name: sum(own.get(s, 0.0) for s in spans) / n
               for name, spans in SELF_TIMES.items()}
    metrics.update({name: inclusive.get(s, 0.0) / n for name, s in INCLUSIVE_TIMES.items()})
    metrics.update({name: counts.get(key, 0) for name, key in COUNTS.items()})
    for name in LATENCIES:
        p50, tail, pct = tail_stats(samples[name])
        stem = name[:-3]
        metrics[f"{name}_p50"] = p50
        metrics[f"{name}_tail"] = tail
        metrics[f"{stem}_tail_pct"] = pct
        metrics[f"{stem}_samples"] = len(samples[name])
    job_s = statistics.median(job_seconds)
    metrics["cli.job_s"] = job_s
    metrics["cli.overhead_s"] = statistics.median(cli_overheads)
    # Share of the untraced throughput that tracing costs.
    metrics["trace.overhead_frac"] = 1.0 - job_s / statistics.median(drive_seconds)
    return {
        "job_seconds": job_seconds,
        "rcs": rcs,
        "items": wl.items(inp),
        "drive_seconds": drive_seconds,
        "layer_metrics": metrics,
        "counts": counts,
        "problems": problems,
    }
