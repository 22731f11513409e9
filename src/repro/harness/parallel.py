"""Process-pool transport: per-benchmark runs on worker processes.

The full evaluation is embarrassingly parallel: every (benchmark, config)
pipeline is deterministic and self-contained (DESIGN.md decision 1 — the
trace is rebuilt bit-identically from the benchmark spec's seed), so runs
fan out over a :class:`~concurrent.futures.ProcessPoolExecutor` with no
shared state beyond the disk cache, which is safe under concurrent writers
(unique temp names + atomic rename, see :mod:`repro.harness.cache`).

Nothing non-picklable crosses the process boundary: workers receive the
frozen config dataclasses plus the cache directory (and a shared-memory
handle to each trace), and :func:`_worker_run` returns
``BenchmarkRun.to_dict()`` payloads together with their serialised
observability records (the dispatch transport's workers run the same
function).  The suite driver
(:func:`repro.harness.recovery.run_tasks`) owns retries, backoff,
failure accounting and obs merging; :class:`ProcessPoolTransport` only
submits attempts and reports how each settled.  A worker that *dies*
(OOM kill, segfault — surfacing as ``BrokenProcessPool``) breaks the
whole pool: the transport respawns it, reports a crash for every doomed
in-flight run and hands back the rest uncharged.  A run exceeding the
policy's per-run timeout cannot be cancelled in place (process pools
cannot interrupt a running call), so the transport terminates the
workers, respawns the pool, reports the timed-out run, and hands back
the innocent in-flight tasks at their current attempt count.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..engine.shm import share_trace, shm_enabled
from ..errors import HarnessError, ReproError
from ..obs import POOL_RESPAWNS
from .cache import ResultCache
from .recovery import Attempt, Transport, error_info

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import ExperimentRunner

logger = logging.getLogger(__name__)

#: How often the parent wakes to check per-run timeouts (seconds).
_TIMEOUT_TICK = 0.05

#: How long to wait for a broken pool's doomed futures to settle.
_DRAIN_SECONDS = 30.0


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job count: ``None``/``0`` means one worker per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise HarnessError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _worker_obs(
    runner: "ExperimentRunner", worker: Optional[str] = None
) -> dict:
    """A worker's observability shipment: timing view + spans + metrics.

    Each shipped root span is stamped with the executing host/pid (and
    the dispatch worker id, when there is one) so the stitched campaign
    trace records *where* every attempt ran.
    """
    attributes = {"host": socket.gethostname(), "pid": os.getpid()}
    if worker is not None:
        attributes["worker"] = worker
    for root in runner.obs.tracer.roots:
        root.set(**attributes)
    return {
        "timing": runner.timing.to_dict(),
        "spans": runner.obs.tracer.to_payload(),
        "metrics": runner.obs.metrics.to_dict(),
    }


def _adopt_shared_trace(runner: "ExperimentRunner", payload: dict) -> None:
    """Attach the task's shared-memory trace into the worker's memo.

    Zero-copy: the runner's trace becomes a read-only view over the
    parent's pages.  Any attach failure degrades (counted) to the
    pre-shm behaviour — the worker rebuilds the trace locally, which is
    bit-identical by construction, so results never depend on whether
    the attach succeeded.
    """
    from ..engine.shm import attach_or_none
    from ..workloads.registry import load_workload

    handle = (payload.get("trace_shm") or {}).get(payload["benchmark"])
    if handle is None:
        return
    workload = load_workload(
        payload["benchmark"], scale=payload["workload_scale"]
    )
    trace = attach_or_none(workload, handle, metrics=runner.obs.metrics)
    if trace is not None:
        runner.adopt_trace(payload["benchmark"], trace)


def _start_streaming(
    runner: "ExperimentRunner", telemetry: dict
) -> Tuple[threading.Event, threading.Thread]:
    """Push sequence-numbered metrics deltas onto the pool's progress
    queue while the run executes (the local-pool face of the dispatch
    heartbeat piggyback)."""
    from ..obs.stream import DEFAULT_STREAM_INTERVAL, MetricsDeltaEncoder

    encoder = MetricsDeltaEncoder(runner.obs.metrics)
    interval = float(telemetry.get("interval", DEFAULT_STREAM_INTERVAL))
    stream_id = telemetry["stream"]
    queue = telemetry["queue"]
    stop = threading.Event()

    def _stream() -> None:
        while not stop.wait(interval):
            delta = encoder.next_delta()
            if delta is None:
                continue
            try:
                queue.put({"stream": stream_id, **delta})
            except Exception:  # manager gone — the run outlives telemetry
                return

    thread = threading.Thread(
        target=_stream, name="repro-stream", daemon=True
    )
    thread.start()
    return stop, thread


def _worker_run(payload: dict, runner_sink=None) -> dict:
    """Execute one pipeline run inside a worker process.

    Rebuilds a local :class:`ExperimentRunner` (workers share only the
    on-disk cache), runs the benchmark, and returns either
    ``{"status": "ok", "run": ..., "obs": ...}`` or — when the pipeline
    raises a library error — ``{"status": "error", "info": ...}`` with
    the exception class, message, traceback, failing stage and the
    worker's observability records (timing view, span trees, metrics),
    so the parent can retry or record the failure without the exception
    tearing down the suite (:func:`worker_attempt` reads either back).
    Non-library exceptions (genuine bugs) propagate through the future
    and abort the suite, exactly as in-process.

    A ``trace_ctx`` in the payload joins the driver's distributed trace
    (span ids minted under the task's origin, roots pointed at the
    owning suite span).  A ``telemetry`` entry streams metrics deltas
    onto the given queue while the run executes.  *runner_sink*, when
    given, receives the freshly built runner before execution starts —
    the dispatch worker uses it to tap the registry for heartbeat
    piggybacking.
    """
    from . import faults
    from .runner import ExperimentRunner

    faults.set_attempt(payload.get("attempt", 0))
    runner = ExperimentRunner(
        sampling=payload["sampling"],
        cost_model=payload["cost_model"],
        cache=ResultCache(
            directory=payload["cache_dir"], enabled=payload["cache_enabled"]
        ),
        workload_scale=payload["workload_scale"],
        methods=payload["methods"],
        diagnostics=payload.get("diagnostics", True),
    )
    context = payload.get("trace_ctx")
    if context:
        runner.obs.tracer.adopt_context(
            trace_id=context.get("trace_id"),
            parent_id=context.get("parent_id"),
            origin=context.get("origin"),
        )
    if runner_sink is not None:
        runner_sink(runner)
    stream_stop = stream_thread = None
    telemetry = payload.get("telemetry")
    if telemetry is not None:
        stream_stop, stream_thread = _start_streaming(runner, telemetry)
    worker_label = payload.get("worker")
    _adopt_shared_trace(runner, payload)
    try:
        run = runner.run_benchmark(payload["benchmark"], payload["config"])
    except ReproError as error:
        return {"status": "error", "info": dict(
            error_info(error), obs=_worker_obs(runner, worker=worker_label),
        )}
    finally:
        faults.set_attempt(0)
        if stream_stop is not None:
            stream_stop.set()
            stream_thread.join()
    return {
        "status": "ok", "run": run.to_dict(),
        "obs": _worker_obs(runner, worker=worker_label),
    }


def worker_attempt(
    index: int, outcome: dict, stream: Optional[str]
) -> Attempt:
    """The :class:`Attempt` a :func:`_worker_run` outcome reports — a
    pool future's result and a dispatch ``result`` message alike."""
    from .runner import BenchmarkRun

    if outcome.get("status") == "ok":
        return Attempt(
            index, "ok", run=BenchmarkRun.from_dict(outcome["run"]),
            obs=outcome.get("obs"), stream=stream,
        )
    info = outcome.get("info", {})
    return Attempt(index, "error", info=info, obs=info.get("obs"),
                   stream=stream)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool whose workers may be hung.

    ``shutdown`` alone would join the workers — forever, if one is hung —
    so the worker processes are terminated first.  (``_processes`` is
    private but stable across supported CPythons; when absent we fall
    back to a plain non-waiting shutdown.)
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken executor internals
        pass


class ProcessPoolTransport(Transport):
    """Attempts as :func:`_worker_run` calls on a ``ProcessPoolExecutor``.

    Traces are published once to shared memory; with a live-telemetry
    plane, workers stream metrics deltas over a Manager queue under a
    per-submission stream id.  A dead worker (``BrokenProcessPool``) or
    a run past the policy timeout tears the pool down and respawns it.
    The parent wakes on future completion — and, only when a per-run
    timeout needs checking, every ``_TIMEOUT_TICK``.
    """

    def __init__(self, runner, tasks, policy, jobs: int) -> None:
        super().__init__(runner, tasks, policy)
        self.jobs = jobs
        self.workers = min(jobs, len(tasks))
        self.pending: Dict[Future, Tuple[int, Optional[str]]] = {}
        self.running_since: Dict[Future, float] = {}
        self.shared: dict = {}
        self.segments: list = []
        self.manager = self.progress_queue = None
        self.streams = 0

    def __enter__(self) -> "ProcessPoolTransport":
        if self.plane is not None:
            import multiprocessing

            self.manager = multiprocessing.Manager()
            self.progress_queue = self.manager.Queue()
        # Publish each benchmark's trace once; workers attach zero-copy.
        # The parent owns the segments and unlinks them on exit — pool
        # respawns re-attach by name, dead workers leak nothing.
        if shm_enabled():
            handles: Dict[str, dict] = {}
            for benchmark in dict.fromkeys(b for b, _ in self.tasks):
                segment, handle = share_trace(
                    self.runner.trace(benchmark),
                    metrics=self.runner.obs.metrics,
                )
                self.segments.append(segment)
                handles[benchmark] = handle
            self.shared["trace_shm"] = handles
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.pool.shutdown()
        else:
            _kill_pool(self.pool)
        for segment in self.segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        if self.manager is not None:
            self.manager.shutdown()

    def launch(self, index: int, payload: dict) -> bool:
        payload = dict(payload, **self.shared)
        stream = None
        if self.progress_queue is not None:
            self.streams += 1
            stream = (
                f"pool:{payload['benchmark']}:{payload['config'].name}"
                f":s{self.streams}"
            )
            payload["telemetry"] = {
                "queue": self.progress_queue, "stream": stream,
            }
        try:
            future = self.pool.submit(_worker_run, payload)
        except BrokenProcessPool:
            return False
        self.pending[future] = (index, stream)
        return True

    def _drain_streams(self) -> None:
        if self.progress_queue is None:
            return
        while True:
            try:
                item = self.progress_queue.get_nowait()
            except Exception:
                return
            self.plane.live.fold(str(item.get("stream", "")), item)

    def _pop(self, future: Future) -> Tuple[int, Optional[str]]:
        self.running_since.pop(future, None)
        return self.pending.pop(future)

    def _abandon(self, future: Future) -> Attempt:
        index, stream = self._pop(future)
        return Attempt(index, "abandoned", stream=stream)

    def _restart(self, why: str) -> List[Attempt]:
        """Tear the pool down and respawn it; its innocent in-flight
        attempts come back abandoned, to requeue uncharged."""
        abandoned = [self._abandon(f) for f in list(self.pending)]
        _kill_pool(self.pool)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        self.runner.obs.metrics.counter(POOL_RESPAWNS).inc()
        self.emit("pool_respawn", workers=self.workers)
        logger.warning(
            "%s; pool respawned with %d workers", why, self.workers
        )
        return abandoned

    def _result(self, future: Future) -> Attempt:
        """Report one settled future."""
        index, stream = self._pop(future)
        benchmark, config = self.tasks[index]
        try:
            outcome = future.result()
        except BrokenProcessPool as error:
            self.emit("worker_dead", benchmark=benchmark, config=config.name)
            return Attempt.lost(
                index, "crash", f"worker process died mid-run ({error})",
                stream,
            )
        except ReproError as error:
            # A library error raised outside the worker's own capture
            # (e.g. payload validation in the worker's runner setup).
            return Attempt(index, "error", info=error_info(error),
                           stream=stream)
        except Exception as error:
            raise HarnessError(
                f"worker failed on {benchmark} ({config.name}): {error}"
            ) from error
        return worker_attempt(index, outcome, stream)

    def poll(self, timeout: Optional[float], queued: int) -> List[Attempt]:
        if not self.pending:
            time.sleep(timeout if timeout is not None else 0.01)
            return []
        if self.policy.timeout is not None:
            timeout = (_TIMEOUT_TICK if timeout is None
                       else min(timeout, _TIMEOUT_TICK))
        done, _ = wait(
            set(self.pending), timeout=timeout, return_when=FIRST_COMPLETED
        )
        self._drain_streams()
        settled = [self._result(future) for future in done]
        if any(attempt.kind == "crash" for attempt in settled):
            # Every other in-flight future is doomed too; drain them
            # (each crash charges that task an attempt), requeue what is
            # still unsettled at its current attempt count, respawn.
            doomed, _ = wait(set(self.pending), timeout=_DRAIN_SECONDS)
            settled += [self._result(future) for future in doomed]
            return settled + self._restart("worker pool died")
        if self.policy.timeout is None:
            return settled
        # Per-run timeout bookkeeping: clocks start when a future is
        # first observed running (dispatched to a worker), not when it
        # was submitted to the queue.
        now = time.monotonic()
        for future in self.pending:
            if future not in self.running_since and future.running():
                self.running_since[future] = now
        timed_out = [
            future for future, began in self.running_since.items()
            if now - began > self.policy.timeout
        ]
        if not timed_out:
            return settled
        # A running call cannot be interrupted; tear the pool down,
        # charge the timed-out runs, requeue the innocents as-is.
        message = f"run exceeded per-run timeout of {self.policy.timeout}s"
        for future in timed_out:
            index, stream = self._pop(future)
            settled.append(Attempt.lost(index, "timeout", message, stream))
        return settled + self._restart(
            f"per-run timeout ({self.policy.timeout:.1f}s) hit"
        )
