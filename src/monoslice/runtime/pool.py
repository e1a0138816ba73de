"""The one worker model: a lazily grown pool of long-lived daemon threads.

Service activations and the connections of each socket:// port both run
on a WorkerPool; a port's workers also take turns to accept its
connections. Jobs are taken in the order they were submitted; a
thread starts only when none is idle, and never more than the pool's
size, so further jobs wait in the queue. Each thread asks the pool's
worker factory once for its job handler, so state a handler keeps, such
as a sequential service's scope, lives and dies with its thread. A job
submitted after stop() may never run, so callers refuse a call before
they submit it to a stopped pool (ServiceInstance._submit).
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
    """At most `size` threads named `name`, each running `worker()(job)` on submitted jobs."""

    def __init__(self, name: str, size: int, worker: Callable[[], Callable[[Any], None]]):
        self.name = name
        self.size = size
        self._worker = worker
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._idle = 0  # threads waiting for a job that no submitted job has claimed
        self._lock = threading.Lock()

    def submit(self, job: Any) -> None:
        with self._lock:
            if self._idle:
                self._idle -= 1
            elif len(self._threads) < self.size:
                thread = threading.Thread(target=self._run, name=self.name, daemon=True)
                self._threads.append(thread)
                thread.start()
        self._queue.put(job)

    def _run(self) -> None:
        handle = self._worker()
        while (job := self._queue.get()) is not None:
            try:
                handle(job)
            except Exception:  # a job's bug must not cost the pool a thread
                log.exception("unhandled error in %s", self.name)
            with self._lock:
                self._idle += 1

    def stop(self) -> None:
        """Let every thread end once the jobs submitted before this call are done."""
        # one end marker for every thread the pool may hold, even one still starting
        for _ in range(self.size):
            self._queue.put(None)

    def join(self, deadline: float) -> None:
        """Wait for the threads until the monotonic deadline."""
        for thread in list(self._threads):
            thread.join(max(0.0, deadline - time.monotonic()))
