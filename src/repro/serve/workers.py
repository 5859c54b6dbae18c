"""The crash-only worker pool: subprocess workers that may die at any
instant without taking a job — let alone their caller — with them.

Two callers share it (DESIGN.md §12): the ``repro serve`` daemon runs
its ``compile`` / ``experiment`` requests here, and the experiment
harness (:class:`repro.experiments.harness.SimulationRunner`) runs its
cache misses here as internal ``simulate`` jobs.  Worker *processes*
are connected by pipes and multiplexed with
``multiprocessing.connection.wait``:

- workers are **persistent** (a compile or a small simulation costs
  milliseconds; a fork plus imports costs more) but **crash-only**: a
  worker holds no state that matters — results live in the shared store
  or go back to the caller — so recovery from segfault, OOM kill,
  injected ``kill``, or a wedged toolchain is always the same: reap,
  respawn, fail only that worker's job.  There is no worker "shutdown
  protocol" beyond a sentinel; ``kill -9`` is an equally valid exit.
- a worker that exceeds its job's **deadline** is terminated (then
  killed) and respawned; only the one overdue job fails, every other
  in-flight job keeps its worker.
- the scheduler runs on a daemon *thread*; ``submit`` returns a
  :class:`JobFuture` the caller awaits (the daemon via
  ``asyncio.wrap_future``, the harness via ``concurrent.futures.wait``).
  The thread that consumes a result also merges the worker's metrics
  (:meth:`JobFuture.merge_obs`); the scheduler thread writes only the
  pool's own ``{name}.*`` counters, so every registry instrument keeps
  one writer (:mod:`repro.obs.metrics`).

Fault sites (chaos grammar, DESIGN.md §12): each job fires exactly one
worker site as it starts — ``serve.worker`` for the daemon's kinds
(``REPRO_FAULTS=serve.worker:kill:times=2`` kills two workers mid-job
across the whole daemon), ``harness.worker`` for ``simulate``;
``serve.toolchain`` fires before a native-engine compile, so toolchain
wedges are deterministically reproducible.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Optional

__all__ = [
    "JobFailed",
    "JobFuture",
    "WorkerCrash",
    "WorkerPool",
    "WorkerTimeout",
    "execute_job",
]


class WorkerCrash(RuntimeError):
    """The worker process died mid-job (segfault/OOM/injected kill)."""

    def __init__(self, exitcode: Optional[int]):
        self.exitcode = exitcode
        super().__init__(f"worker died mid-job (exit code {exitcode})")


class WorkerTimeout(RuntimeError):
    """The job exceeded its deadline; the worker was killed."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        super().__init__(f"job exceeded its {deadline_s:g}s deadline")


class JobFailed(RuntimeError):
    """The job raised in the worker (the worker itself survived)."""

    def __init__(self, error_type: str, message: str):
        self.error_type = error_type
        super().__init__(f"{error_type}: {message}")


# -- worker-side execution ----------------------------------------------------


def execute_job(job: dict, cache_dir: Optional[str]) -> Any:
    """Run one job dict to its result.

    The daemon's kinds (a normalised request) fire the ``serve.worker``
    site and return a JSON-able dict.  ``simulate`` is the harness's
    internal kind — no request normaliser in :mod:`repro.serve.protocol`
    produces it — and returns ``_run_sim_task_timed``'s tuple, firing
    only the ``harness.worker`` site inside it.  Top-level so the
    chaos/unit suites can call it in-process.
    """
    kind = job.get("kind")
    if kind == "simulate":
        from repro.experiments.harness import _run_sim_task_timed

        return _run_sim_task_timed(job["task"])
    from repro.resilience.faults import maybe_fault

    maybe_fault("serve.worker", label=job.get("label", kind or ""))
    if kind == "compile":
        return _execute_compile(job, cache_dir)
    if kind == "experiment":
        return _execute_experiment(job, cache_dir)
    if kind == "probe":  # health probe: proves the worker round-trips
        return {"pid": os.getpid()}
    raise ValueError(f"unknown job kind {kind!r}")


def _execute_compile(job: dict, cache_dir: Optional[str]) -> dict:
    from repro.frontend.spec import StencilSpec
    from repro.pipeline.cache import ArtifactCache
    from repro.pipeline.driver import compile_spec
    from repro.resilience.faults import maybe_fault

    spec = StencilSpec.from_json(job["spec"])
    if job["engine"] == "native":
        # Deterministic stand-in for a wedged/crashing cc invocation.
        maybe_fault("serve.toolchain", label=spec.name)
    result = compile_spec(
        spec,
        sizes=job.get("sizes"),
        seed=job.get("seed"),
        lint=job.get("lint", False),
        execute=job.get("execute", True),
        codegen=job.get("codegen", False),
        cache=ArtifactCache(cache_dir=cache_dir),
        engine=job["engine"],
    )
    execute = next((r for r in result.records if r.name == "execute"), None)
    return {
        "spec": result.spec.name,
        "sizes": dict(result.sizes),
        "seed": result.seed,
        "engine": job["engine"],
        "engine_used": (
            getattr(execute.artifact, "engine_used", job["engine"])
            if execute is not None
            else None
        ),
        "stages": [
            {
                "name": r.name,
                "key": f"{r.name}-{r.key}",
                "cached": r.cached,
                "wall_s": round(r.wall_s, 6),
            }
            for r in result.records
        ],
        "cached": bool(result.records) and not result.stages_run,
        "degradation": (
            getattr(execute.artifact, "degradation", None)
            if execute is not None
            else None
        ),
        "outputs_sha256": (
            getattr(execute.artifact, "outputs_sha256", None)
            if execute is not None
            else None
        ),
    }


def _execute_experiment(job: dict, cache_dir: Optional[str]) -> dict:
    from dataclasses import asdict

    from repro.codes import get_version
    from repro.experiments.harness import SimTask, SimulationRunner
    from repro.machine.configs import MACHINES

    machine = next(m for m in MACHINES if m.name == job["machine"])
    version = get_version(job["code"], job["version"])
    task = SimTask.of(
        version,
        job["sizes"],
        machine,
        passes=job["passes"],
        seed=job["seed"],
    )
    runner = SimulationRunner(jobs=1, cache_dir=cache_dir)
    try:
        sim = runner.run_tasks([task])[0]
        return {
            "task": task.label,
            "key": runner.task_key(task),
            "cached": runner.cache_hits > 0,
            "result": asdict(sim),
        }
    finally:
        runner.close()


def _drop_orphaned_imports() -> None:
    """Forget the imports other threads of the parent had in flight when
    this worker was forked.

    The pool forks replacement workers from its scheduler thread while
    the caller's threads run on.  A module another thread was importing
    at that instant is locked here by a thread this process does not
    have, so importing it would block forever.  The worker is
    single-threaded: dropping the orphaned lock, and the half-initialised
    module, lets it import the module afresh.
    """
    me = threading.get_ident()
    locks = importlib._bootstrap._module_locks
    for name, ref in list(locks.items()):
        lock = ref()
        if getattr(lock, "owner", None) in (None, me):
            continue
        del locks[name]
        module = sys.modules.get(name)
        if getattr(getattr(module, "__spec__", None), "_initializing", False):
            del sys.modules[name]


def _worker_main(conn, cache_dir: Optional[str]) -> None:
    """Persistent worker loop: recv job, execute, send outcome, repeat.

    Crash-only by construction: nothing here needs to run on the way
    out.  A fault, a segfault, or the parent's ``kill()`` all leave the
    shared store consistent (its writes are atomic) and the parent
    replans from EOF on the pipe.
    """
    _drop_orphaned_imports()
    from repro import obs
    from repro.resilience.faults import reset_plan

    # The fork inherited the parent's armed plan object; re-arm from the
    # environment so per-process state (after=, p= RNGs) starts fresh
    # while cross-process injection counts stay in REPRO_FAULTS_DIR.
    reset_plan()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, job = message
        try:
            # A fresh registry per job: the snapshot shipped home is
            # exactly this job's contribution.
            obs.reset_metrics()
            result = execute_job(job, cache_dir)
            payload = {
                "metrics": obs.get_metrics().snapshot(),
                "dedup": list(obs.seen_keys()),
            }
            conn.send((job_id, "ok", result, payload))
        except BaseException as exc:  # noqa: BLE001 - parent classifies
            try:
                conn.send((job_id, "err", type(exc).__name__, str(exc)))
            except Exception:
                pass
    conn.close()


# -- parent-side pool ---------------------------------------------------------


class JobFuture(Future):
    """The future :meth:`WorkerPool.submit` returns.

    On success it also carries the worker's observability payload (its
    metrics snapshot and ``warn_once`` dedup keys).  The caller folds
    that in with :meth:`merge_obs` on the thread that consumes the
    result, never the pool's scheduler thread.
    """

    obs_payload: Optional[dict] = None

    def merge_obs(self) -> None:
        """Merge the worker's payload into this process (at most once)."""
        from repro import obs

        payload, self.obs_payload = self.obs_payload, None
        if payload is not None:
            obs.merge_snapshot(payload["metrics"])
            obs.merge_dedup(payload["dedup"])


def _fail_future(future: Future, exc: BaseException) -> None:
    """Fail ``future`` unless it already resolved (races the scheduler
    thread delivering a result between our done() check and set)."""
    if future.done():
        return
    try:
        future.set_exception(exc)
    except Exception:  # InvalidStateError: the result won the race
        pass


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = (
        "proc", "conn", "job_id", "future", "deadline", "deadline_s",
        "started_at",
    )

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.job_id: Optional[int] = None
        self.future: Optional[JobFuture] = None
        # The in-flight job's own deadline: seconds, and when it passes.
        self.deadline_s: Optional[float] = None
        self.deadline: Optional[float] = None
        self.started_at = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.future is not None


class WorkerPool:
    """N crash-only workers behind a ``connection.wait`` scheduler thread.

    ``name`` labels the scheduler thread and the pool's own metrics
    (``{name}.jobs.completed`` / ``.failed``, ``{name}.worker_restarts``)
    and restart event, so the daemon's pool and the harness's pool stay
    apart in one registry.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        deadline_s: Optional[float] = None,
        name: str = "serve",
    ) -> None:
        self.name = name
        self.size = max(1, int(workers))
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.deadline_s = deadline_s
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._pending: collections.deque = collections.deque()
        self._workers: list[_Worker] = []
        self._job_ids = itertools.count(1)
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.restarts = 0
        self.completed = 0
        self.crashes = 0
        self.timeouts = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("pool already started")
        # Every job kind runs on numpy.  Importing it before the first
        # fork lets each worker, respawned ones included, inherit it
        # instead of importing it on its first job.
        import numpy  # noqa: F401

        for _ in range(self.size):
            self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._scheduler, name=f"{self.name}-pool", daemon=True
        )
        self._thread.start()

    def _spawn(self) -> _Worker:
        ours, theirs = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(theirs, self.cache_dir), daemon=True
        )
        proc.start()
        theirs.close()  # the worker's death is EOF on ours
        return _Worker(proc, ours)

    def shutdown(self, grace_s: float = 10.0) -> None:
        """Stop accepting, let in-flight jobs finish within ``grace_s``,
        then take the pool down (kill anything still running at once;
        idle workers get the exit sentinel).

        While ``_closing`` is set the scheduler keeps dispatching the
        already-accepted queue and delivering results; it only refuses
        *new* submissions.  So the grace loop here normally observes the
        pool go idle with every future resolved, and the failure path
        below only fires for jobs that truly outlived the grace window.
        """
        self._closing.set()
        self._wake()
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            with self._lock:
                idle = not self._pending and not any(
                    w.busy for w in self._workers
                )
            if idle:
                break
            time.sleep(0.05)
        with self._lock:
            workers, self._workers = self._workers, []
            pending, self._pending = list(self._pending), collections.deque()
        for _, _, future, _ in pending:
            _fail_future(future, RuntimeError("pool shut down"))
        for worker in workers:
            if worker.future is not None:
                worker.proc.kill()  # outlived the grace window
                _fail_future(worker.future, RuntimeError("pool shut down"))
                continue
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None

    # -- submission ------------------------------------------------------

    def submit(self, job: dict, deadline_s: Optional[float] = None) -> JobFuture:
        """Queue one job; the future resolves to the worker's result
        or raises :class:`WorkerCrash` / :class:`WorkerTimeout` /
        :class:`JobFailed`.  ``deadline_s`` defaults to the pool's."""
        if self._closing.is_set():
            raise RuntimeError("pool is shutting down")
        future = JobFuture()
        job_id = next(self._job_ids)
        if deadline_s is None:
            deadline_s = self.deadline_s
        with self._lock:
            self._pending.append((job_id, job, future, deadline_s))
        self._wake()
        return future

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    # -- the scheduler thread -------------------------------------------

    def _scheduler(self) -> None:
        while True:
            self._dispatch()
            closing = self._closing.is_set()
            waitables: list[Any] = [self._wake_r]
            timeout = 0.5
            now = time.monotonic()
            with self._lock:
                busy = sum(1 for w in self._workers if w.busy)
                pending = len(self._pending)
                alive = len(self._workers)
                for worker in self._workers:
                    waitables.append(worker.conn)
                    if worker.busy and worker.deadline is not None:
                        timeout = min(timeout, max(0.0, worker.deadline - now))
            if closing and busy == 0 and (pending == 0 or alive == 0):
                # Draining is done: every dispatched job delivered its
                # result (or its worker died and the future failed), and
                # nothing dispatchable remains.  shutdown() fails whatever
                # is left and reaps the processes.
                break
            try:
                ready = _connection_wait(waitables, timeout=timeout)
            except OSError:
                # A connection was torn down under us (shutdown race or a
                # worker dying between snapshot and wait): just rescan.
                continue
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                self._on_worker_message(conn)
            self._reap_overdue()

    def _dispatch(self) -> None:
        # Loop of passes: each pass assigns pending jobs under the lock;
        # workers found dead are replaced *after* the lock is released
        # (_replace takes the lock itself, and mutates self._workers),
        # then one more pass lets the replacements pick up requeued jobs.
        while True:
            dead: list[_Worker] = []
            with self._lock:
                for worker in self._workers:
                    if not self._pending:
                        break
                    if worker.busy:
                        continue
                    job_id, job, future, deadline_s = self._pending.popleft()
                    if future.cancelled():
                        continue
                    try:
                        worker.conn.send((job_id, job))
                    except (OSError, ValueError):
                        # Worker died while idle: requeue the job and
                        # respawn once we are outside the lock.
                        self._pending.appendleft(
                            (job_id, job, future, deadline_s)
                        )
                        dead.append(worker)
                        continue
                    worker.job_id = job_id
                    worker.future = future
                    worker.deadline_s = deadline_s
                    worker.deadline = (
                        time.monotonic() + deadline_s
                        if deadline_s is not None
                        else None
                    )
            if not dead:
                return
            for worker in dead:
                self._replace(worker)

    def _on_worker_message(self, conn) -> None:
        from repro import obs

        with self._lock:
            worker = next(
                (w for w in self._workers if w.conn is conn), None
            )
        if worker is None:
            return
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        future = worker.future
        with self._lock:
            worker.job_id = None
            worker.future = None
            worker.deadline_s = None
            worker.deadline = None
        if future is None or future.done():
            return
        if message[1] == "ok":
            _, _, result, payload = message
            self.completed += 1
            obs.get_metrics().counter(f"{self.name}.jobs.completed").inc()
            future.obs_payload = payload
            future.set_result(result)
        else:
            _, _, exc_type, exc_msg = message
            obs.get_metrics().counter(f"{self.name}.jobs.failed").inc()
            future.set_exception(JobFailed(exc_type, exc_msg))

    def _worker_died(self, worker: _Worker) -> None:
        worker.proc.join(1.0)
        exitcode = worker.proc.exitcode
        future = worker.future
        self._replace(worker)
        if future is not None and not future.done():
            self.crashes += 1
            _fail_future(future, WorkerCrash(exitcode))

    def _reap_overdue(self) -> None:
        now = time.monotonic()
        with self._lock:
            overdue = [
                w
                for w in self._workers
                if w.busy and w.deadline is not None and now >= w.deadline
            ]
        for worker in overdue:
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            future = worker.future
            deadline_s = worker.deadline_s
            self._replace(worker)
            if future is not None and not future.done():
                self.timeouts += 1
                _fail_future(future, WorkerTimeout(deadline_s))

    def _replace(self, worker: _Worker) -> None:
        # Takes self._lock (non-reentrant): callers MUST NOT hold it —
        # collect dead workers under the lock, replace after releasing.
        from repro import obs

        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join()
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
                if not self._closing.is_set():
                    self._workers.append(self._spawn())
        self.restarts += 1
        obs.get_metrics().counter(f"{self.name}.worker_restarts").inc()
        obs.event(f"{self.name}.worker_restart", exitcode=worker.proc.exitcode)

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            busy = sum(1 for w in self._workers if w.busy)
            alive = sum(1 for w in self._workers if w.proc.is_alive())
            queued = len(self._pending)
        return {
            "size": self.size,
            "alive": alive,
            "busy": busy,
            "queued": queued,
            "completed": self.completed,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "deadline_s": self.deadline_s,
        }
