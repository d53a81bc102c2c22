"""Child process of the benchmark; ``run.py`` starts a fresh one for each measurement.

    job.py setup WORKLOAD INPUTS RESULT
        Time ``import literati.cli`` plus the workload's library loaders.
    job.py run WORKLOAD INPUTS OUT SECONDS RESULT
        Run the workload's CLI jobs in-process through ``literati.cli.run``,
        writing to OUT/cli, until SECONDS have passed; record the time of
        each job in each run, the reference task's time before the first
        run and after every run (reference.py), and each run's output
        digests.
    job.py trace WORKLOAD INPUTS OUT SECONDS RESULT
        The traced run of ``drive.py``.

The result is written as JSON to RESULT. Only the standard library is
imported before the set-up clock starts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads


def setup(wl: workloads.Workload, inp: Path) -> dict:
    t0 = time.perf_counter()
    import literati.cli  # noqa: F401  (everything a CLI job imports)
    wl.setup(inp)
    return {"setup_s": time.perf_counter() - t0}


def run(wl: workloads.Workload, inp: Path, out: Path, seconds: float) -> dict:
    from literati import cli
    from reference import reference_seconds

    out = out / "cli"
    out.mkdir(exist_ok=True)
    argvs = wl.jobs(inp, out)
    job_seconds, rcs, digests = [], [], []
    start = time.perf_counter()
    refs = [reference_seconds(wl.reference)]
    while True:
        codes, times = [], []
        for argv in argvs:
            t0 = time.perf_counter()
            codes.append(cli.run(argv))
            times.append(time.perf_counter() - t0)
        refs.append(reference_seconds(wl.reference))
        job_seconds.append(times)
        rcs.append(codes)
        if any(codes):
            break
        digests.append(wl.digests(out))
        if time.perf_counter() - start >= seconds:
            break
    return {"job_seconds": job_seconds, "ref_seconds": refs, "rcs": rcs,
            "digests": digests, "items": wl.items(inp)}


def main(argv: list[str]) -> int:
    mode, name, inp = argv[0], argv[1], Path(argv[2])
    wl = workloads.WORKLOADS[name]
    if mode == "setup":
        result = setup(wl, inp)
    else:
        out, seconds = Path(argv[3]), float(argv[4])
        out.mkdir(parents=True, exist_ok=True)
        if mode == "run":
            result = run(wl, inp, out, seconds)
        else:
            import drive
            result = drive.trace_run(wl, inp, out, seconds)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(argv[-1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
