"""Fixed reference tasks that measure how fast the host is running right now.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: the
same CLI job can take 50% longer a few minutes later, with no steal time
reported. Timings are therefore taken in reference units: the process that
times the jobs also runs a reference task before the first run of the jobs
and after every run, and a timing is divided by the task's mean time over
the same span and multiplied by NOMINAL_S. The task takes about a second,
so that its own short-term jitter averages out over a run. A change to the program moves the
calibrated figure as it moves the raw one; a slower host moves the jobs and
the reference together and cancels out.

The host's load slows different kinds of work by different amounts, so each
workload is calibrated by a task that does its kind of work:

    python  pure-Python string and dict handling, like the report parser
    maps    peak finding and region growing on small probability maps, with
            sliding windows and scipy labelling, like the map decoder

Neither imports literati, so a change to the program cannot change them.
Changing them changes every calibrated figure, so they must stay as they are.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

# About what either task takes on a 2-vCPU Xeon host when the host is quiet.
# A calibrated figure is what the raw one would read on such a host.
NOMINAL_S = 1.0

_WORDS = ("no focal consolidation pleural effusion or pneumothorax is seen "
          "heart size normal").split()


def _python_task(n: int = 1_200_000) -> None:
    counts: dict[str, int] = {}
    for i in range(n):
        key = (_WORDS[i % len(_WORDS)] + _WORDS[(i * 7) % len(_WORDS)]).lower()
        counts[key] = counts.get(key, 0) + len(key.split("o"))
        if i % 5 == 0:
            " ".join(_WORDS[:i % 9]).upper()


def _bumps(side: int, count: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:side, 0:side]
    p = np.zeros((side, side))
    for _ in range(count):
        cy, cx = rng.uniform(0, side, 2)
        s = rng.uniform(side / 20, side / 8)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        p = np.maximum(p, rng.uniform(0.6, 1.0) * bump)
    return p


_rng = np.random.default_rng(0)
_SMALL_MAPS = [_bumps(64, 2, _rng) for _ in range(8)]
_LARGE_MAP = _bumps(256, 12, _rng)
_EIGHT = np.ones((3, 3), dtype=bool)


def _regions(p: np.ndarray, d: int = 3, tau: float = 0.5, alpha: float = 0.5) -> int:
    """Peaks of p by window maximum, each grown into the cells within alpha of it."""
    window = sliding_window_view(np.pad(p, d, constant_values=-np.inf), (2 * d + 1,) * 2)
    rs, cs = np.nonzero((window.max(axis=(2, 3)) == p) & (p >= tau))
    claimed = np.full(p.shape, -1, dtype=np.int32)
    regions = []
    for r, c in sorted(zip(rs.tolist(), cs.tolist()), key=lambda rc: -p[rc]):
        if claimed[r, c] != -1:
            continue
        peak = p[r, c]
        labels, _ = ndimage.label((claimed == -1) & (p >= alpha * peak) & (p <= peak),
                                  structure=_EIGHT)
        claimed[labels == labels[r, c]] = len(regions)
        mr, mc = np.nonzero(claimed == len(regions))
        regions.append(frozenset(zip(mr.tolist(), mc.tolist())))
    return len(regions)


def _maps_task(rounds: int = 30) -> None:
    for _ in range(rounds):
        for p in _SMALL_MAPS:
            _regions(p)
    _regions(_LARGE_MAP)


TASKS = {"python": _python_task, "maps": _maps_task}


def reference_seconds(kind: str) -> float:
    """Wall time of one run of the reference task of that kind."""
    task = TASKS[kind]
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def calibrate(seconds: float, refs: list[float]) -> float:
    """A timing in reference units, given the reference times taken around it."""
    return seconds * NOMINAL_S / statistics.fmean(refs)
