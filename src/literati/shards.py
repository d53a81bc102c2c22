"""Forked worker processes, in two modes: a fixed shard pool and an ordered stream.

``ShardPool(items, fn)`` forks ``n = min(worker_count(), len(items))``
workers once; worker ``w`` owns ``items[w::n]`` for the pool's whole life.
Every ``map(arg)`` sends ``arg`` to each worker, which answers with
``fn(item, arg)`` for the items of its shard. Because the items reach the
workers through ``fork`` (copy-on-write) they are never pickled, and
whatever ``fn`` memoises on an item stays warm from one ``map`` to the
next; only ``arg`` and the results cross a pipe.

``ordered_map(fn, chunks)`` streams: it yields ``fn(chunk)`` for each chunk
of an iterable, in input order, while the chunks are worked on by
``n = min(worker_count(), number of chunks)`` forked workers. It reads the
input lazily and keeps at most ``2 * n`` chunks in flight, so memory stays
flat however long the input is. Chunk ``i`` goes to worker ``i % n``; each
worker drains its pipe on a reader thread, so neither side blocks sending a
large chunk while the other blocks sending a large result. Here the chunks
and the results are pickled, and ``fn`` reaches the workers through
``fork``.

In both modes a failure re-raises the exception of the first failing item
or chunk in input order, as the inline run would; with one worker (or one
chunk) nothing is forked and ``fn`` runs inline; and the workers ignore
SIGINT, leaving an interrupt to the parent, which stops them.
"""

from __future__ import annotations

import os
import signal
from collections import deque
from contextlib import suppress
from itertools import chain, islice

ENV_WORKERS = "LITERATI_THREADS"

# Chunks a stream keeps in flight per worker: one being worked on, one queued.
IN_FLIGHT_PER_WORKER = 2


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


def _worker_main(serve, *args) -> None:
    # the parent takes an interrupt and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    serve(*args)


def _fork(serve, worker_args) -> list:
    """One forked worker per tuple of ``worker_args``, running ``serve(*args, conn)``;
    returns them as (process, connection to it) pairs."""
    import multiprocessing  # only runs that fork pay for the import

    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for args in worker_args:
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(serve, *args, child_conn),
                               daemon=True)
            proc.start()
            child_conn.close()
            workers.append((proc, conn))
    except BaseException:
        _stop(workers, idle=True)
        raise
    return workers


def _stop(workers, idle: bool) -> None:
    """Stop the workers and wait for them: idle ones are told to exit, busy ones killed."""
    for proc, conn in workers:
        if idle:
            with suppress(OSError):
                conn.send(None)
        else:
            proc.terminate()
    for proc, conn in workers:
        proc.join()
        proc.close()
        conn.close()


def _send(worker, message) -> None:
    proc, conn = worker
    try:
        conn.send(message)
    except OSError:
        raise _lost(proc) from None


def _receive(worker):
    proc, conn = worker
    try:
        return conn.recv()
    except (EOFError, OSError):
        raise _lost(proc) from None


def _lost(proc) -> WorkerLostError:
    proc.join()
    return WorkerLostError(f"worker process {proc.pid} ended unexpectedly "
                           f"(exit code {proc.exitcode})")


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
        if n >= 2:
            self._workers = _fork(self._serve, [(self._items[w::n],) for w in range(n)])

    def _serve(self, shard, conn) -> None:
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
        for worker in self._workers:
            _send(worker, (arg,))
        replies = [_receive(worker) for worker in self._workers]
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

    def close(self) -> None:
        """Stop the workers and wait for them: idle ones exit, busy ones are killed."""
        _stop(self._workers, self._idle)
        self._workers = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ordered_map(fn, chunks):
    """Yield ``fn(chunk)`` for each chunk of ``chunks``, in order, from forked workers.

    A generator: close it (``contextlib.closing``) when the caller may stop
    early, so that busy workers are killed at once rather than when the
    generator is collected. If ``fn`` raised on a chunk, the exception of
    the first failing chunk is re-raised after the results of the chunks
    before it were yielded; an exception from ``chunks`` itself propagates
    when the chunk is read.
    """
    chunks = iter(chunks)
    head = list(islice(chunks, worker_count()))  # never more workers than chunks
    n = len(head)
    if n < 2:
        yield from map(fn, chain(head, chunks))
        return
    workers = _fork(_serve_stream, [(fn,)] * n)
    # the worker of each chunk sent and not yet answered, in chunk order; a
    # chunk counts from before its send, so a send cut short kills the workers
    pending = deque()
    try:
        for i, chunk in enumerate(chain(head, chunks)):
            pending.append(workers[i % n])
            _send(pending[-1], chunk)
            if len(pending) == IN_FLIGHT_PER_WORKER * n:
                yield _result(_receive(pending.popleft()))
        while pending:
            yield _result(_receive(pending.popleft()))
    finally:
        _stop(workers, idle=not pending)


def _result(reply):
    ok, value = reply
    if not ok:
        raise value
    return value


def _serve_stream(fn, conn) -> None:
    import queue
    import threading

    # The reader thread keeps the pipe drained, so the parent never blocks
    # sending a chunk while this worker blocks sending it a result.
    inbox = queue.SimpleQueue()

    def read() -> None:
        try:
            while (chunk := conn.recv()) is not None:  # None: the stream is closing
                inbox.put(chunk)
        except (EOFError, OSError):
            pass  # the parent is gone
        finally:
            inbox.put(None)

    threading.Thread(target=read, daemon=True).start()
    while (chunk := inbox.get()) is not None:
        try:
            reply = (True, fn(chunk))
        except Exception as e:
            reply = (False, e)
        conn.send(reply)
