"""Bounded asynchronous job queue for long-running sweep work.

``POST /sweeps`` must not hold an HTTP worker for the minutes a large
Monte-Carlo grid can take, and it must not accept unbounded work either.
:class:`JobQueue` gives both properties: submissions land in a bounded
:class:`queue.Queue` (full → :class:`~repro.errors.JobQueueFullError`,
surfaced as HTTP 429 backpressure) and a small fixed pool of worker
threads drains it.  Job state is observable at every step
(``queued → running → done | failed | cancelled``) and
:meth:`JobQueue.close` can drain in-flight jobs for a graceful shutdown.
The job table is bounded too: it keeps at most
:data:`MAX_FINISHED_JOBS` finished jobs (each holding its full sweep
result) and forgets the oldest-finished first, so a long-running server
does not grow without limit.  Queued and running jobs are always kept.

The queue is deliberately engine-agnostic: it runs any
``fn(job) -> payload`` callable, so tests exercise it without spinning
up simulations.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from queue import Empty, Full, Queue
from typing import Any, Callable

from repro.errors import JobQueueFullError, ServeError, UnknownJobError
from repro.pipeline.cache import stable_digest

__all__ = ["Job", "JobQueue", "JOB_STATES", "MAX_FINISHED_JOBS"]

#: Every observable job state, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Finished (done, failed or cancelled) jobs a queue remembers; beyond
#: this the oldest-finished job is forgotten and its id answers
#: :class:`~repro.errors.UnknownJobError` (HTTP 404).
MAX_FINISHED_JOBS = 256


@dataclass
class Job:
    """One unit of queued work and its observable lifecycle.

    Attributes
    ----------
    job_id:
        Stable identifier: a monotonic sequence number plus a digest
        prefix of the payload, so ids are unique *and* hint at content.
    payload:
        The request body the job was built from (echoed in status).
    state:
        One of :data:`JOB_STATES`.
    result:
        The worker function's return value once ``done``.
    error:
        ``repr`` of the exception once ``failed``.
    """

    job_id: str
    payload: dict[str, Any]
    state: str = "queued"
    result: Any = None
    error: str = ""
    submitted_s: float = field(default_factory=time.time)
    started_s: float | None = None
    finished_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready status view (result included only when done)."""
        out: dict[str, Any] = {
            "job": self.job_id,
            "state": self.state,
            "payload": self.payload,
        }
        if self.state == "done":
            out["result"] = self.result
        if self.error:
            out["error"] = self.error
        if self.started_s is not None and self.finished_s is not None:
            out["wall_s"] = round(self.finished_s - self.started_s, 6)
        return out


class JobQueue:
    """Fixed worker pool over a bounded queue of :class:`Job` items.

    Parameters
    ----------
    fn:
        Worker function ``fn(job) -> result``; its return value becomes
        ``job.result``, its exception marks the job ``failed``.
    workers:
        Pool size (``>= 1``).
    maxsize:
        Queue bound; a submission against a full queue raises
        :class:`~repro.errors.JobQueueFullError` immediately (the HTTP
        layer maps it to 429) rather than blocking the caller.
    logger:
        Optional :class:`~repro.telemetry.StructuredLogger` for
        ``job.start`` / ``job.finish`` events.
    """

    def __init__(
        self,
        fn: Callable[[Job], Any],
        *,
        workers: int = 2,
        maxsize: int = 8,
        logger: Any = None,
    ) -> None:
        if workers < 1:
            raise ServeError("job queue needs at least one worker")
        if maxsize < 1:
            raise ServeError("job queue bound must be >= 1")
        self._fn = fn
        self._log = logger
        self._queue: Queue[Job | None] = Queue(maxsize=maxsize)
        self._jobs: dict[str, Job] = {}
        # Ids of finished jobs still in _jobs, oldest-finished first.
        self._finished: deque[str] = deque()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission / inspection ----------------------------------------------------

    def submit(self, payload: dict[str, Any]) -> Job:
        """Enqueue *payload*; returns the queued :class:`Job`.

        Raises :class:`~repro.errors.JobQueueFullError` when the bound
        is hit and :class:`~repro.errors.ServeError` after
        :meth:`close`.
        """
        with self._lock:
            if self._closed:
                raise ServeError("job queue is closed")
            seq = next(self._seq)
        job = Job(
            job_id=f"job-{seq:05d}-{stable_digest(payload)[:8]}",
            payload=payload,
        )
        with self._lock:
            self._jobs[job.job_id] = job
        try:
            self._queue.put_nowait(job)
        except Full:
            with self._lock:
                del self._jobs[job.job_id]
            raise JobQueueFullError(
                f"job queue full ({self._queue.maxsize} pending); retry later"
            ) from None
        return job

    def get(self, job_id: str) -> Job:
        """The job registered under *job_id*.

        Raises :class:`~repro.errors.UnknownJobError` for unknown ids.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_s)

    def cancel(self, job_id: str) -> Job:
        """Cancel a still-queued job; running/finished jobs are left alone.

        Returns the job; check ``job.state`` to see whether cancellation
        won the race (the HTTP layer reports 409 when it did not).
        """
        job = self.get(job_id)
        with self._lock:
            if job.state == "queued":
                self._finish(job, "cancelled")
        return job

    def _finish(self, job: Job, state: str) -> None:
        """Move *job* to a final *state* and forget the oldest finished
        jobs beyond :data:`MAX_FINISHED_JOBS`; the caller holds the lock."""
        job.state = state
        job.finished_s = time.time()
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    # -- worker loop ----------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:
                    return
                with self._lock:
                    if job.state != "queued":  # cancelled while waiting
                        continue
                    job.state = "running"
                    job.started_s = time.time()
                if self._log is not None:
                    self._log.info("job.start", job=job.job_id)
                try:
                    result = self._fn(job)
                except Exception as exc:  # job failure is data, not a crash
                    with self._lock:
                        job.error = repr(exc)
                        self._finish(job, "failed")
                    if self._log is not None:
                        self._log.error(
                            "job.finish", job=job.job_id, error=job.error
                        )
                else:
                    with self._lock:
                        job.result = result
                        self._finish(job, "done")
                    if self._log is not None:
                        self._log.info(
                            "job.finish", job=job.job_id, state="done"
                        )
            finally:
                self._queue.task_done()

    # -- shutdown -------------------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and shut the pool down.

        With ``drain=True`` (graceful shutdown) workers finish every
        already-queued job first; with ``drain=False`` still-queued jobs
        are cancelled and only in-flight ones run to completion.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for job in list(self._jobs.values()):
                    if job.state == "queued":
                        self._finish(job, "cancelled")
        for _ in self._threads:
            while True:  # a full queue still has to take the sentinel
                try:
                    self._queue.put(None, timeout=timeout)
                    break
                except Full:  # pragma: no cover - needs a wedged worker
                    try:
                        self._queue.get_nowait()
                        self._queue.task_done()
                    except Empty:
                        pass
        for thread in self._threads:
            thread.join(timeout=timeout)
