"""Fork-safe process-pool ``pmap`` for whole analyses.

One item of a :func:`pmap` is one whole analysis: a sweep scenario
(:mod:`repro.sweep.engine`: a delta session plus a property check) and,
outside the package, a paper-benchmark row. Those are the only grains
measured to gain from a pool; finer ones (per-file parsing, per-rule
lint) lost to fork and pickle costs at every registry size, so they run
inline. :func:`pmap` fans such loops out over a process pool while
keeping the results byte-identical to a serial run:

* **Deterministic ordering.** Results come back in input order
  regardless of which worker finished first (``Pool.map`` semantics).
* **Fork safety without pickling the function.** On platforms with the
  ``fork`` start method the mapped callable is published through a
  module global *before* forking, so closures and locally-defined
  functions work; only items and results cross the pipe. Where ``fork``
  is unavailable the map degrades to serial rather than failing.
* **Serial fallback for small inputs.** Inputs below ``min_items`` (or
  a single-job setting) run inline.
* **Forks only from the main thread.** A fork copies one thread of a
  multi-threaded process, with its signal handlers and whatever locks
  the other threads held, and two threads mapping at once would
  overwrite each other's published callable. (A pool forked from the
  service's threads inherited its SIGTERM handler, so a worker could
  survive the pool's teardown and hang the job for good.) A call from
  any other thread runs inline.
* **One env knob.** ``REPRO_JOBS`` sets the default worker count, the
  sweep's width (``REPRO_JOBS=1`` runs it serially); callers can
  override per call with ``jobs=``.

Workers inherit the parent's module state at fork time, so engines,
intern pools, and registries behave as read-only snapshots inside a
worker; anything a worker returns must be picklable. The pool is forked
inside each call, on the calling thread, so workers also inherit that
thread's :mod:`contextvars` — the request context their spans stamp —
and nothing about it crosses the pipe. What does cross back, per chunk,
is the chunk's metrics dump and coverage-scope vector.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")

#: Below this many items the pool overhead dominates; run inline.
DEFAULT_MIN_ITEMS = 4

#: The callable being mapped, published to forked children (see module
#: docstring). Only meaningful between fork and pool teardown.
_WORKER_FN: Optional[Callable] = None


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``, else the CPU count.

    ``REPRO_JOBS=0`` (or any non-positive value) explicitly requests the
    CPU count — handy for overriding a pinned value from a wrapper
    script without having to unset the variable.
    """
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
        if value > 0:
            return value
    return os.cpu_count() or 1


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _invoke_chunk(chunk):
    """Map a whole chunk in one task (to amortize IPC per item), and ship
    its wall time, metrics and coverage back for the parent to merge.

    The forked worker inherits the parent's registry, so it is reset at
    chunk start — everything in the outbound dump is this chunk's own
    contribution. It also inherits the calling thread's request context
    (the pool is forked inside the call), so its spans carry the
    originating ``request_id``. The chunk runs in a fresh coverage
    scope, whose vector the parent adds into the scope the map was
    called from.
    """
    obs.metrics().reset()
    with obs.coverage_scope() as vector:
        started = time.perf_counter()
        results = [_WORKER_FN(item) for item in chunk]
        wall = time.perf_counter() - started
    return results, wall, obs.worker_dump(vector)


def chunked(items: Sequence[T], chunk_size: int) -> List[Sequence[T]]:
    """Split ``items`` into order-preserving chunks of ``chunk_size``."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    min_items: int = DEFAULT_MIN_ITEMS,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` on a process pool, in input order.

    ``jobs``: worker count (default :func:`default_jobs`).
    ``min_items``: inputs smaller than this run serially.
    ``progress``: called in the parent as ``progress(done, total)``
    after each completed item (serial path) or chunk (pool path) — a
    running sweep job reports done/total through this.

    Exceptions raised by ``fn`` propagate to the caller, as in a plain
    loop. Results must be picklable when the pool path is taken.
    """
    global _WORKER_FN
    work = list(items)
    n_jobs = default_jobs() if jobs is None else max(1, int(jobs))
    n_jobs = min(n_jobs, len(work)) if work else 1
    if (
        n_jobs <= 1
        or len(work) < max(2, min_items)
        or not fork_available()
        # Pool workers are daemonic and may not fork grandchildren;
        # a nested pmap call degrades to serial inside the worker.
        or multiprocessing.current_process().daemon
        # See "Forks only from the main thread" above.
        or threading.current_thread() is not threading.main_thread()
    ):
        if obs.active():
            obs.add("pmap.serial_calls")
            obs.add("pmap.items", len(work))
        out: List[R] = []
        for item in work:
            out.append(fn(item))
            if progress is not None:
                progress(len(out), len(work))
        return out
    # Roughly four tasks per worker, so stragglers rebalance.
    chunks = chunked(work, max(1, -(-len(work) // (n_jobs * 4))))
    mp_context = multiprocessing.get_context("fork")
    previous = _WORKER_FN
    _WORKER_FN = fn
    try:
        with mp_context.Pool(processes=min(n_jobs, len(chunks))) as pool:
            done = 0
            mapped = []
            with obs.span("pmap", jobs=n_jobs, chunks=len(chunks)):
                # imap (not map): results stream back in input order
                # as chunks finish, so progress fires incrementally.
                for results, wall, dump in pool.imap(_invoke_chunk, chunks):
                    obs.observe("pmap.chunk_seconds", wall)
                    obs.merge_worker_dump(dump)
                    mapped.append(results)
                    done += len(results)
                    if progress is not None:
                        progress(done, len(work))
            obs.add("pmap.pool_calls")
            obs.add("pmap.items", len(work))
            obs.add("pmap.chunks", len(chunks))
            obs.gauge("pmap.jobs", n_jobs)
    finally:
        _WORKER_FN = previous
    return [result for chunk in mapped for result in chunk]
