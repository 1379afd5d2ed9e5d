"""One client API over every serving substrate.

:class:`ServingClient` is the facade the CLI, the benchmarks, and the
tests all submit through.  It wraps *any* backend exposing the common
surface — ``submit(job) -> ticket``, ``stop()``, ``health()``,
``readiness()``, and optionally ``run_pending()`` — which today means a
single in-process :class:`~repro.serving.service.FactorizationService`
or a sharded :class:`~repro.serving.cluster.ServingCluster`, inline or
multi-process.  Code written against the client does not change when
the deployment grows from one service to N shards.

Requests are the typed schema from :mod:`repro.serving.api`: a
:class:`~repro.serving.api.Job`, a bare
:class:`~repro.experiments.spec.SpecPoint`, or a versioned job wire
document; builders like :func:`~repro.serving.api.chol_request`
construct them.  Responses are always
:class:`~repro.serving.api.ServiceResponse`.

Three submission shapes:

* :meth:`submit` — synchronous request/response.
* :meth:`submit_async` — returns the ticket (a future: ``done()``,
  ``result(timeout)``, ``add_done_callback``).
* :meth:`submit_many` / :meth:`stream` — batched submission through a
  *bounded in-flight window*: at most ``window`` jobs are outstanding
  at once, a new one entering as each resolves.  The window is the
  client-side complement of the server's bounded admission queue — a
  client that dumped 10k jobs at once would just shed against its own
  service's waiting room; the window keeps the pipeline full without
  flooding it.  ``stream`` yields ``(job, response)`` pairs in
  *completion* order as they arrive; ``submit_many`` returns responses
  in submission order.

Backends whose execution must be driven by the caller (``workers=0``
services, inline clusters — anything with a truthy ``needs_pump`` or a
``run_pending`` with no worker threads) are pumped automatically
between window refills, so the same batched code runs identically on
deterministic virtual-clock backends and on threaded/process ones.
"""

from __future__ import annotations

import queue
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.experiments.spec import SpecPoint
from repro.serving.api import Job, ServiceResponse, job_from_wire
from repro.serving.service import FactorizationService


def _coerce_job(request: "Job | SpecPoint | Mapping[str, Any]") -> Job:
    """Normalize any accepted request shape to a :class:`Job`."""
    if isinstance(request, Job):
        return request
    if isinstance(request, SpecPoint):
        return Job(point=request)
    if isinstance(request, Mapping):
        return job_from_wire(request)
    raise TypeError(
        f"expected Job, SpecPoint or a job wire mapping, got "
        f"{type(request).__name__}"
    )


class ServingClient:
    """The unified submit facade over a service or a cluster backend.

    Parameters
    ----------
    backend:
        Anything with ``submit(job) -> ticket`` and ``stop()``.
    own_backend:
        When true (the default for the :meth:`local` / :meth:`cluster`
        constructors), :meth:`close` stops the backend too; pass False
        to wrap a backend someone else manages.
    """

    def __init__(self, backend, *, own_backend: bool = True) -> None:
        self.backend = backend
        self._own_backend = own_backend
        self._closed = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def local(cls, **service_kwargs) -> "ServingClient":
        """A client over a fresh single-process service (owned)."""
        return cls(FactorizationService(**service_kwargs))

    @classmethod
    def cluster(cls, **cluster_kwargs) -> "ServingClient":
        """A client over a fresh sharded cluster (owned).

        Keyword arguments go to
        :class:`~repro.serving.cluster.ServingCluster` verbatim —
        ``shards=``, ``mode=``, ``workers_per_shard=`` and friends.
        """
        from repro.serving.cluster import ServingCluster

        return cls(ServingCluster(**cluster_kwargs))

    # -- pump detection ----------------------------------------------------

    @property
    def needs_pump(self) -> bool:
        """Must the client drive the backend's execution itself?

        True for inline clusters (they declare it) and for services
        with no worker threads; threaded services and process-mode
        clusters drain themselves.
        """
        declared = getattr(self.backend, "needs_pump", None)
        if declared is not None:
            return bool(declared)
        return getattr(self.backend, "workers", None) == 0

    def pump(self, max_jobs: "int | None" = None) -> int:
        """Run pending work on this thread (no-op for self-draining)."""
        if not self.needs_pump:
            return 0
        return self.backend.run_pending(max_jobs)

    # -- submission --------------------------------------------------------

    def submit_async(self, request: "Job | SpecPoint | Mapping") -> Any:
        """Submit one job; returns the backend's ticket (a future)."""
        if self._closed:
            raise RuntimeError("client is closed")
        return self.backend.submit(_coerce_job(request))

    def submit(
        self,
        request: "Job | SpecPoint | Mapping",
        timeout: "float | None" = None,
    ) -> ServiceResponse:
        """Submit one job and block for its terminal response."""
        ticket = self.submit_async(request)
        if self.needs_pump and not ticket.done():
            self.pump()
        return ticket.result(timeout=timeout)

    def stream(
        self,
        requests: "Iterable[Job | SpecPoint | Mapping]",
        *,
        window: int = 32,
        timeout: "float | None" = None,
    ) -> "Iterator[tuple[Job, ServiceResponse]]":
        """Yield ``(job, response)`` in completion order, windowed.

        At most ``window`` jobs are in flight at once; each completion
        admits the next request from the iterable.  ``timeout`` bounds
        the wait for any single completion (a stuck backend raises
        ``TimeoutError`` instead of hanging the generator).  The
        generator owns no results — abandoning it mid-iteration simply
        stops feeding new jobs; already-submitted ones still run.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        completions: "queue.Queue[tuple[Job, ServiceResponse]]" = queue.Queue()
        pending = 0
        it = iter(requests)

        def feed() -> int:
            """Admit jobs until the window is full; returns admissions."""
            nonlocal pending
            admitted = 0
            while pending < window:
                try:
                    request = next(it)
                except StopIteration:
                    break
                job = _coerce_job(request)
                ticket = self.submit_async(job)
                ticket.add_done_callback(
                    lambda response, j=job: completions.put((j, response))
                )
                pending += 1
                admitted += 1
            return admitted

        feed()
        while pending > 0:
            if self.needs_pump:
                if completions.empty():
                    self.pump()
                try:
                    job, response = completions.get_nowait()
                except queue.Empty:
                    # pump ran and resolved nothing: the backend has
                    # stranded work — surface it, never hang
                    raise RuntimeError(
                        f"pumped backend made no progress with "
                        f"{pending} jobs in flight"
                    ) from None
            else:
                try:
                    job, response = completions.get(timeout=timeout)
                except queue.Empty:
                    raise TimeoutError(
                        f"no completion within {timeout}s "
                        f"({pending} in flight)"
                    ) from None
            pending -= 1
            feed()
            yield job, response

    def submit_many(
        self,
        requests: "Iterable[Job | SpecPoint | Mapping]",
        *,
        window: int = 32,
        timeout: "float | None" = None,
    ) -> "list[ServiceResponse]":
        """Run a batch through the window; responses in submission order."""
        jobs = [_coerce_job(r) for r in requests]
        order = {job.job_id: i for i, job in enumerate(jobs)}
        out: "list[ServiceResponse | None]" = [None] * len(jobs)
        for job, response in self.stream(jobs, window=window, timeout=timeout):
            out[order[job.job_id]] = response
        assert all(r is not None for r in out)
        return out  # type: ignore[return-value]

    # -- introspection / lifecycle -----------------------------------------

    def health(self) -> dict:
        """The backend's health snapshot, pass-through."""
        return self.backend.health()

    def readiness(self) -> dict:
        """The backend's readiness snapshot, pass-through."""
        return self.backend.readiness()

    def close(self) -> None:
        """Stop accepting; stops the backend too when owned."""
        if self._closed:
            return
        self._closed = True
        if self._own_backend:
            self.backend.stop()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServingClient"]
