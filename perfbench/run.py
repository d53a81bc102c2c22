"""Seeded benchmark of the literati CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src.
Workloads (see BENCHMARK.json for why each was chosen):

    decode-dense   literati decode --space net416, then eval --mode greedy_multi,
                   on 3-channel smoothed-noise maps (256 and 416 cells a side)
                   with Gaussian bumps planted in one disease class
    tune-planted   literati tune --budget 40 on 50 planted 64x64 maps
    parse-corpus   literati parse at all three levels on ~10k fixture reports

Inputs are generated from the seed once and reused (gen_inputs.py). Each
measurement runs in a fresh child process (job.py). With --trace 0 the
CLI jobs run with LITERATI_THREADS=min(2, nproc) and the end-to-end
metrics are printed. throughput_per_s and setup_s are in calibrated
seconds: a fixed reference task (reference.py) runs around every run of
the jobs and around the set-up probes, and the timings are scaled by its
mean time, so that the shared host's drift in speed cancels out; the
uncalibrated figures are printed beside them. With --trace 1 the traced run of drive.py gives the
per-layer metrics; it drives one item at a time, so it runs everything
with LITERATI_THREADS=1 and its timings leave the thread pool out.
Every run checks the CLI outputs: invariants on any seed, and on the seeds
in digests.json the sha256 of each output that must stay byte-identical.
The "digests" line a run prints is in the form digests.json keeps per
workload and seed; a recorded digest is only compared when the generated
inputs hash to the recorded "inputs" digest. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

--size tiny shrinks every input, for the smoke test in tests/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen_inputs
import workloads
from reference import NOMINAL_S, calibrate, reference_seconds

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MAX_THREADS = 2
CHILD_TIMEOUT_S = 170
MAX_PRINTED_PROBLEMS = 20

END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}
PER_LAYER = {
    "map_decoder.load_s": "s", "map_decoder.softmax_s": "s",
    "map_decoder.regions_s": "s", "map_decoder.boxes_s": "s",
    "map_decoder.decode_self_s": "s", "map_decoder.write_s": "s",
    "map_decoder.decode_ms_p50": "ms", "map_decoder.decode_ms_tail": "ms",
    "map_decoder.decode_tail_pct": "%", "map_decoder.decode_samples": "count",
    "map_decoder.maps": "count", "map_decoder.regions": "count",
    "map_decoder.region_cells": "count", "map_decoder.detections": "count",
    "tpe_tuner.suggest_s": "s", "tpe_tuner.objective_s": "s",
    "tpe_tuner.trial_ms_p50": "ms", "tpe_tuner.trial_ms_tail": "ms",
    "tpe_tuner.trial_tail_pct": "%", "tpe_tuner.trial_samples": "count",
    "tpe_tuner.trials": "count", "tpe_tuner.failed_trials": "count",
    "eval_harness.match_s": "s", "eval_harness.match_calls": "count",
    "eval_harness.iou_pairs": "count", "eval_harness.table_s": "s",
    "annotation_store.load_coco_s": "s", "annotation_store.rescale_s": "s",
    "annotation_store.boxes": "count",
    "report_parser.read_s": "s", "report_parser.segment_s": "s",
    "report_parser.classify_s": "s", "report_parser.compose_s": "s",
    "report_parser.scan_s": "s",
    "report_parser.write_s": "s", "report_parser.scene_label_s": "s",
    "report_parser.referring_s": "s", "report_parser.disease_emphasis_s": "s",
    "report_parser.report_ms_p50": "ms", "report_parser.report_ms_tail": "ms",
    "report_parser.report_tail_pct": "%", "report_parser.report_samples": "count",
    "report_parser.sentences": "count", "report_parser.tokens": "count",
    "report_parser.expressions": "count",
    "cli.job_s": "s", "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class ChildError(RuntimeError):
    pass


def machine_block(threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    try:
        backend = importlib.import_module("literati._decode_kernels").default_backend()
    except (ImportError, AttributeError):
        backend = "single path"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba,
        "decoder_backend": backend,
        "LITERATI_THREADS": threads,
    }


def child(args: list[str], env: dict, log: Path) -> dict:
    """Run job.py in a fresh interpreter and return the JSON it wrote."""
    result = log.with_suffix(".json")
    result.unlink(missing_ok=True)
    with open(log, "w", encoding="utf-8") as f:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), *args, str(result)],
                              stdout=f, stderr=subprocess.STDOUT, env=env,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        raise ChildError(f"job.py {args[0]} exited with {proc.returncode}:\n" + "\n".join(tail))
    return json.loads(result.read_text(encoding="utf-8"))


def seconds_per_run(job_seconds: list[list[float]], refs: list[float]) -> tuple[float, float]:
    """Mean seconds for one run of the jobs, uncalibrated and calibrated.

    The first run warms caches and lazy imports, so it is left out when at
    least two others remain, and so are the reference times before it.
    Means rather than medians: the host's speed wanders over seconds, and
    the jobs and the reference task sample it best over the whole span.
    """
    skip = 1 if len(job_seconds) >= 3 else 0
    runs = job_seconds[skip:]
    raw = sum(map(sum, runs)) / len(runs)
    return raw, calibrate(raw, refs[skip:])


def recorded_digests(workload: str, size: str, seed: int) -> dict | None:
    doc = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return doc.get(workload, {}).get(str(seed)) if size == "full" else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=gen_inputs.SIZES, default="full")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "literati" / "cli.py").is_file():
        sys.stderr.write("perfbench: no ./src/literati here; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(src))
    wl = workloads.WORKLOADS[args.workload]
    threads = 1 if args.trace else min(MAX_THREADS, os.cpu_count() or 1)
    machine = machine_block(threads)

    inp = gen_inputs.ensure_inputs(root, src, args.workload, args.size, args.seed)
    inputs_digest = (inp / "DONE").read_text(encoding="utf-8").strip()
    out = root / ".bench_runs" / f"{args.workload}-{args.size}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "LITERATI_THREADS": str(threads)}

    try:
        setup_s, setup_refs = [], []
        if not args.trace:
            setup_refs.append(reference_seconds(wl.reference))
            setup_s = [child(["setup", wl.name, str(inp)], env,
                             out / f"setup{i}.log")["setup_s"]
                       for i in range(SETUP_PROBES)]
            setup_refs.append(reference_seconds(wl.reference))
        res = child([("trace" if args.trace else "run"), wl.name, str(inp), str(out),
                     str(args.seconds)], env, out / "job.log")
    except (ChildError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1

    # Items and failures: a non-zero CLI exit fails every item of that run.
    items = res["items"]
    runs = res["rcs"] + [[0]] * len(res.get("drive_seconds", []))
    attempted = items * len(runs)
    failed = items * sum(1 for codes in runs if any(codes))
    problems = [f"CLI exit codes {codes}" for codes in res["rcs"] if any(codes)]

    outcome = None
    if not problems:
        outcome = wl.check(inp, out / "cli")
        problems += outcome.problems
        failed += outcome.counts.get("failed_trials", 0) * len(runs)
        digests = res.get("digests", [])
        if any(not d.items() <= outcome.digests.items() for d in digests):
            problems.append("CLI outputs differ between runs of the same inputs")
        want = recorded_digests(wl.name, args.size, args.seed)
        if want and want["inputs"] == inputs_digest:
            for name, digest in outcome.digests.items():
                if want.get(name) != digest:
                    problems.append(f"{name} digest {digest[:16]} differs from the "
                                    f"recorded {want.get(name, 'none')[:16]}")
        problems += res.get("problems", [])

    print(f"perfbench {wl.name} seed={args.seed} size={args.size} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"inputs {inp.relative_to(root)}")
    if outcome is not None:
        print("digests " + json.dumps({"inputs": inputs_digest, **outcome.digests},
                                      sort_keys=True))
        counts = {**outcome.counts, **res.get("counts", {})}
        print("counts " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        print(f"quality {outcome.quality:.6g}")

    if args.trace:
        metrics = dict(res.get("layer_metrics", {}))
        metrics["failed_frac"] = failed / attempted
        missing = set(PER_LAYER) - set(metrics)
        if missing and not problems:
            problems.append(f"no value for {sorted(missing)}")
        metrics = {k: v for k, v in metrics.items() if k in PER_LAYER}
        units = PER_LAYER
        print(f"{len(res.get('drive_seconds', []))} traced drive(s), spans of the last in "
              f"{(out / 'spans.tsv').relative_to(root)}")
    else:
        raw_s, run_s = seconds_per_run(res["job_seconds"], res["ref_seconds"])
        metrics = {
            "throughput_per_s": items / run_s,
            "setup_s": calibrate(statistics.median(setup_s), setup_refs),
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            "quality": outcome.quality if outcome is not None else 0.0,
        }
        units = END_TO_END
        print(f"{len(res['job_seconds'])} run(s) of the jobs, {items} {wl.item}(s) each: "
              + " ".join("+".join(f"{t:.3f}" for t in times) + "s"
                         for times in res["job_seconds"]))
        print("setup probes " + " ".join(f"{t:.3f}s" for t in setup_s))
        for what, refs in (("jobs", res["ref_seconds"]), ("setup", setup_refs)):
            print(f"{wl.reference} reference task around the {what}: "
                  f"mean {statistics.fmean(refs):.3f}s "
                  f"over {len(refs)} runs ({min(refs):.3f}-{max(refs):.3f}s), "
                  f"nominal {NOMINAL_S}s")
        print(f"uncalibrated: throughput {items / raw_s:.6g}/s, "
              f"setup {statistics.median(setup_s):.6g}s")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"CHECK FAILED: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more")
    print("checks " + ("passed" if not problems else f"failed ({len(problems)})"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
