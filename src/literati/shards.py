"""Forked worker processes that stream chunks of work and keep their order.

``ordered_map(fn, chunks)`` yields ``fn(chunk)`` for each chunk of an
iterable, in input order, while the chunks are worked on by
``n = min(worker_count(), number of chunks)`` forked workers. Chunk ``i``
goes to worker ``i % n``, and only once the parent has read that worker's
answer to chunk ``i - n``: each worker holds at most one chunk, so the
input is read lazily, memory stays flat however long the input is, and
every send goes to a worker that is waiting to read it, so neither side
blocks the other however large a chunk or a result. The chunks and the
results are pickled, while ``fn``, and whatever it reads that was loaded
before the first chunk was sent, reaches the workers through ``fork``
(copy-on-write): a chunk can be an index into data the parent already
holds.

A failure re-raises the exception of the first failing chunk in input
order, as the inline run would; with one worker (or one chunk) nothing is
forked and ``fn`` runs inline; and the workers ignore SIGINT, leaving an
interrupt to the parent, which stops them.
"""

from __future__ import annotations

import os
import signal
from contextlib import suppress
from itertools import chain, islice

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


def _fork(fn, n: int) -> list:
    """``n`` forked workers, each serving ``fn`` on the chunks sent to it;
    returns them as (process, connection to it) pairs."""
    import multiprocessing  # only runs that fork pay for the import

    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for _ in range(n):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(fn, child_conn), daemon=True)
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
    workers = _fork(fn, n)
    # a chunk counts as sent from before its send, so a send cut short kills
    # the workers, and as answered once its answer is read
    sent = answered = 0
    try:
        for worker, chunk in zip(workers, head):
            sent += 1
            _send(worker, chunk)
        while answered < sent:
            worker = workers[answered % n]  # it holds chunk `answered`, the oldest
            reply = _receive(worker)
            answered += 1
            # the next chunk, if any, goes to it before the caller takes the answer
            for chunk in islice(chunks, 1):
                sent += 1
                _send(worker, chunk)
            yield _result(reply)
    finally:
        _stop(workers, idle=answered == sent)

def _result(reply):
    ok, value = reply
    if not ok:
        raise value
    return value


def _serve(fn, conn) -> None:
    # the parent takes an interrupt and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with suppress(EOFError, OSError):  # the parent is gone
        while (chunk := conn.recv()) is not None:  # None: the stream is closing
            try:
                reply = (True, fn(chunk))
            except Exception as e:
                reply = (False, e)
            conn.send(reply)
