"""A fixed set of forked worker processes, each owning one shard of a list.

``ShardPool(items, fn)`` forks ``n = min(worker_count(), len(items))``
workers once; worker ``w`` owns ``items[w::n]`` for the pool's whole life.
Every ``map(arg)`` sends ``arg`` to each worker, which answers with
``fn(item, arg)`` for the items of its shard. Because the items reach the
workers through ``fork`` (copy-on-write) they are never pickled, and
whatever ``fn`` memoises on an item stays warm from one ``map`` to the
next; only ``arg`` and the results cross a pipe. With one worker nothing
is forked and ``fn`` runs inline.
"""

from __future__ import annotations

import os
import signal
from contextlib import suppress

ENV_WORKERS = "LITERATI_THREADS"


class WorkerLostError(RuntimeError):
    """A worker process ended before it answered."""


def worker_count() -> int:
    """``LITERATI_THREADS`` when set, else the CPUs this process may run on."""
    env = os.environ.get(ENV_WORKERS)
    if not env:
        return len(os.sched_getaffinity(0))
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{ENV_WORKERS} must be an integer >= 1, got {env!r}")
    return n


class ShardPool:
    """``[fn(item, arg) for item in items]`` per ``map(arg)``, spread over forked workers.

    Open it after the items are loaded and prepared, as a context manager:
    leaving the block stops every worker, and kills them if a map was cut
    short. ``map`` returns the results in item order; if ``fn`` raised, it
    re-raises the exception of the first failing item in item order, as the
    inline run would.
    """

    def __init__(self, items, fn):
        self._items = list(items)
        self._fn = fn
        self._workers = []  # (process, connection to it)
        self._idle = True   # no map is waiting on a reply
        n = min(worker_count(), len(self._items))
        if n < 2:
            return
        import multiprocessing  # only runs that fork pay for the import

        ctx = multiprocessing.get_context("fork")
        try:
            for w in range(n):
                conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=self._serve, args=(self._items[w::n], child_conn),
                                   daemon=True)
                proc.start()
                child_conn.close()
                self._workers.append((proc, conn))
        except BaseException:
            self.close()
            raise

    def _serve(self, shard, conn) -> None:
        # the parent takes an interrupt and stops the pool
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while (message := conn.recv()) is not None:  # None: the pool is closing
            (arg,) = message
            results = []
            try:
                for item in shard:
                    results.append(self._fn(item, arg))
            except Exception as e:
                conn.send((len(results), e))
            else:
                conn.send((None, results))

    def map(self, arg) -> list:
        if not self._workers:
            return [self._fn(item, arg) for item in self._items]
        self._idle = False
        for proc, conn in self._workers:
            try:
                conn.send((arg,))
            except OSError:
                raise self._lost(proc) from None
        replies = [self._receive(proc, conn) for proc, conn in self._workers]
        self._idle = True
        n = len(self._workers)
        failures = [(position * n + w, error)
                    for w, (position, error) in enumerate(replies) if position is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        results = [None] * len(self._items)
        for w, (_, shard_results) in enumerate(replies):
            results[w::n] = shard_results
        return results

    def _receive(self, proc, conn):
        try:
            return conn.recv()
        except (EOFError, OSError):
            raise self._lost(proc) from None

    @staticmethod
    def _lost(proc) -> WorkerLostError:
        proc.join()
        return WorkerLostError(f"worker process {proc.pid} ended unexpectedly "
                               f"(exit code {proc.exitcode})")

    def close(self) -> None:
        """Stop the workers and wait for them: idle ones exit, busy ones are killed."""
        for proc, conn in self._workers:
            if self._idle:
                with suppress(OSError):
                    conn.send(None)
            else:
                proc.terminate()
        for proc, conn in self._workers:
            proc.join()
            proc.close()
            conn.close()
        self._workers = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
