"""The one worker model: a lazily grown pool of long-lived daemon threads.

Service activations, an executable's main (its pool's one job) and the
connections of each socket:// port all run on a WorkerPool; a port's
workers also take turns to accept its connections. Jobs are taken in
the order they were submitted; a thread starts only when none is idle,
and never more than the pool's size, so further jobs wait in the queue.
Each job comes with the function that handles it, so a pool holds
nothing of its owner but the jobs still queued, and an owner that holds
its pool makes no reference cycle. A job submitted after stop() may
never run, so callers refuse a call before they submit it to a stopped
pool (ServiceInstance._submit).
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Any, Callable

log = logging.getLogger("monoslice.runtime")

MAX_WORKERS = 32


class WorkerPool:
    """At most `size` threads named `name`, each running `handle(job)` for the submitted pairs."""

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self._queue: "queue.SimpleQueue[tuple[Callable[[Any], None], Any] | None]" = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._idle = 0  # threads waiting for a job that no submitted job has claimed
        self._lock = threading.Lock()

    def submit(self, handle: Callable[[Any], None], job: Any) -> None:
        with self._lock:
            if self._idle:
                self._idle -= 1
            elif len(self._threads) < self.size:
                thread = threading.Thread(target=self._run, name=self.name, daemon=True)
                self._threads.append(thread)
                thread.start()
        self._queue.put((handle, job))

    def _run(self) -> None:
        while (item := self._queue.get()) is not None:
            handle, job = item
            try:
                handle(job)
            except Exception:  # a job's bug must not cost the pool a thread
                log.exception("unhandled error in %s: %s", self.name, handle.__name__)
            with self._lock:
                self._idle += 1

    def stop(self) -> None:
        """Let every thread end once the jobs submitted before this call are done."""
        # one end marker for every thread the pool may hold, even one still starting
        for _ in range(self.size):
            self._queue.put(None)

    def join(self, deadline: float | None) -> bool:
        """Wait for the threads until the monotonic deadline, or None for no limit; True once all ended."""
        for thread in list(self._threads):
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._threads)
