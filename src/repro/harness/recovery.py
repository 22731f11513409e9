"""Fault-tolerant suite execution: the driver, policies, journaling.

One failed (benchmark, config) pipeline must not abort a whole campaign.
This module holds the one suite driver and the pieces around it:

* :func:`run_tasks` — the driver: attempts, backoff, retries, failure
  accounting, obs merging and journal hooks, over a :class:`Transport`
  that only launches attempts and reports how each settled
  (:class:`InProcess` here; the process pool and the dispatch fleet in
  :mod:`~repro.harness.parallel` and :mod:`~repro.harness.dispatch`).
* :class:`FaultPolicy` — bounded retries with deterministic exponential
  backoff, an optional per-run timeout, and a ``fail_fast`` toggle that
  restores abort-on-first-failure semantics.
* :class:`RunFailure` — the structured record of a run that exhausted
  its attempts (exception class/message, traceback, failing stage from
  the timing instrumentation, attempt accounting).
* :class:`SuiteOutcome` — what ``run_suite`` returns: the completed runs
  (in suite order; the outcome iterates like a plain run list) plus the
  failures.
* :class:`SuiteJournal` — an append-only JSONL checkpoint next to the
  result cache: one fsync'd line per completed run or final failure, so
  checkpoint cost is O(1) per record and ``--resume`` skips completed
  runs and re-attempts only failed or missing ones.  A crash mid-append
  can tear at most the final line, which the loader drops (counted as
  ``repro_journal_torn_total``) before healing the file.

Retries are safe because every pipeline run is a pure function of its
(benchmark spec, scale, sampling config, machine config) inputs
(DESIGN.md decision 1): a re-attempt cannot produce a different result,
only the same result or another failure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import tempfile
import threading
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..config import MachineConfig
from ..errors import HarnessError, ReproError, RunTimeout
from ..obs import (
    JOURNAL_TORN,
    RETRY_BACKOFF_SECONDS,
    RUN_FAILURES,
    RUN_RETRIES,
    RUN_TIMEOUTS,
    RUNS_COMPLETED,
    WORKER_CRASHES,
    MetricsRegistry,
)
from . import faults
from .cache import CACHE_SCHEMA_VERSION
from .timing import SuiteTiming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import BenchmarkRun, ExperimentRunner

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """How the suite drivers respond to a failing run.

    ``max_retries`` counts *re*-attempts: a run executes at most
    ``max_retries + 1`` times.  Backoff before re-attempt *n* (1-based)
    is ``backoff_base * backoff_factor ** (n - 1)`` seconds — purely
    deterministic, no jitter, so failure schedules are reproducible.
    ``timeout`` bounds one attempt's wall clock (``None`` disables).
    ``fail_fast`` raises on the first run that exhausts its attempts
    instead of recording it and carrying on.
    """

    max_retries: int = 1
    timeout: Optional[float] = None
    fail_fast: bool = False
    backoff_base: float = 0.1
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise HarnessError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise HarnessError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise HarnessError(
                f"backoff must have base >= 0 and factor >= 1, got "
                f"base={self.backoff_base}, factor={self.backoff_factor}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a run may consume."""
        return self.max_retries + 1

    def backoff_seconds(self, reattempt: int) -> float:
        """Deterministic delay before re-attempt *reattempt* (1-based)."""
        if reattempt <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (reattempt - 1)


#: Policy used when callers pass none: one retry, no timeout, graceful.
DEFAULT_POLICY = FaultPolicy()


# ----------------------------------------------------------------------
# failures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunFailure:
    """Structured record of one run that exhausted its attempts."""

    benchmark: str
    config_name: str
    attempts: int
    max_attempts: int
    error_type: str
    error_message: str
    traceback: str
    stage: Optional[str]

    @property
    def label(self) -> str:
        """Compact table marker, e.g. ``FAILED(3/3)``."""
        return f"FAILED({self.attempts}/{self.max_attempts})"

    def describe(self) -> str:
        """One-line human summary (CLI failure reports)."""
        where = f" in {self.stage}" if self.stage else ""
        return (
            f"{self.benchmark} ({self.config_name}): {self.error_type}"
            f"{where} after {self.attempts}/{self.max_attempts} attempts"
            f" — {self.error_message}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (journal entries)."""
        return {
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.traceback,
            "stage": self.stage,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunFailure":
        """Rebuild from :meth:`to_dict` output."""
        return RunFailure(
            benchmark=payload["benchmark"],
            config_name=payload["config_name"],
            attempts=payload["attempts"],
            max_attempts=payload["max_attempts"],
            error_type=payload["error_type"],
            error_message=payload["error_message"],
            traceback=payload["traceback"],
            stage=payload.get("stage"),
        )

    @staticmethod
    def from_exception(
        benchmark: str,
        config_name: str,
        error: BaseException,
        attempts: int,
        max_attempts: int,
        tb: Optional[str] = None,
    ) -> "RunFailure":
        """Build a failure record from a caught exception.

        The failing stage comes from the marker the timing layer attaches
        to exceptions that escape a stage context (see
        :meth:`SuiteTiming.stage`).
        """
        return RunFailure(
            benchmark=benchmark,
            config_name=config_name,
            attempts=attempts,
            max_attempts=max_attempts,
            error_type=type(error).__name__,
            error_message=str(error),
            traceback=tb if tb is not None else traceback_module.format_exc(),
            stage=getattr(error, "_repro_stage", None),
        )


# ----------------------------------------------------------------------
# outcome
# ----------------------------------------------------------------------
class SuiteOutcome(Sequence):
    """Runs plus failures of one suite invocation.

    Iterating (or indexing) an outcome yields the completed
    :class:`BenchmarkRun` objects in suite order, so code written against
    the old ``List[BenchmarkRun]`` return type keeps working; the
    failures ride along in :attr:`failures`.
    """

    def __init__(
        self,
        runs: Sequence["BenchmarkRun"],
        failures: Sequence[RunFailure] = (),
    ) -> None:
        self.runs: Tuple["BenchmarkRun", ...] = tuple(runs)
        self.failures: Tuple[RunFailure, ...] = tuple(failures)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index):
        return self.runs[index]

    def __iter__(self) -> Iterator["BenchmarkRun"]:
        return iter(self.runs)

    def __repr__(self) -> str:
        return (
            f"SuiteOutcome({len(self.runs)} runs, "
            f"{len(self.failures)} failures)"
        )

    @property
    def ok(self) -> bool:
        """True when every run completed."""
        return not self.failures

    def raise_if_failed(self) -> None:
        """Strict-mode check: raise :class:`HarnessError` on any failure."""
        if self.failures:
            raise HarnessError(self.failure_summary())

    def failure_summary(self) -> str:
        """Multi-line report of every failure (CLI / logs)."""
        total = len(self.runs) + len(self.failures)
        lines = [f"{len(self.failures)} of {total} runs failed:"]
        lines += [f"  {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)


def assemble_outcome(
    tasks: Sequence[Tuple[str, MachineConfig]],
    results: Dict[int, "BenchmarkRun"],
    failures: Dict[int, RunFailure],
) -> SuiteOutcome:
    """Build the outcome, insisting every task is accounted for.

    A task index that produced neither a run nor a failure means the
    driver lost a result — an internal invariant violation that used to
    silently shorten the suite; it is now an explicit error.
    """
    missing = [
        f"{tasks[i][0]} ({tasks[i][1].name})"
        for i in range(len(tasks))
        if i not in results and i not in failures
    ]
    if missing:
        raise HarnessError(
            f"suite driver lost {len(missing)} run(s) without recording "
            f"a result or failure: {', '.join(missing)}"
        )
    return SuiteOutcome(
        runs=[results[i] for i in range(len(tasks)) if i in results],
        failures=[failures[i] for i in sorted(failures)],
    )


# ----------------------------------------------------------------------
# per-run timeout (in-process transport)
# ----------------------------------------------------------------------
@contextmanager
def run_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound the wall clock of the enclosed run via ``SIGALRM``.

    Signal-based, so it interrupts even a hung C-level sleep; only
    installable in the main thread (and on platforms with ``SIGALRM``) —
    elsewhere it degrades to a no-op, and the worker transports enforce
    timeouts by terminating workers instead.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise RunTimeout(f"run exceeded per-run timeout of {seconds}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# the suite driver
# ----------------------------------------------------------------------
@dataclass
class Attempt:
    """One attempt as a transport reports it back to the driver.

    ``kind`` is ``ok`` (``run`` set), ``error``, ``crash``, ``timeout``,
    ``expired`` (lease) — or ``abandoned``: dropped uncharged when its
    pool was torn down around it.  ``info`` holds the failure fields of
    :func:`error_info`; ``obs`` and ``stream`` are a worker's shipment
    and live-telemetry stream id (``None`` in-process).
    """

    index: int
    kind: str
    run: Optional["BenchmarkRun"] = None
    info: Optional[dict] = None
    obs: Optional[dict] = None
    stream: Optional[str] = None

    @classmethod
    def lost(cls, index: int, kind: str, message: str,
             stream: Optional[str] = None) -> "Attempt":
        """A crash, timeout or lease expiry: no worker error to report."""
        error_type = {"crash": "WorkerCrash", "timeout": "RunTimeout",
                      "expired": "LeaseExpired"}[kind]
        return cls(index, kind, stream=stream, info={
            "error_type": error_type, "error_message": message,
        })


def error_info(error: BaseException) -> dict:
    """The failure fields of a library error (call inside ``except``)."""
    return {
        "error_type": type(error).__name__,
        "error_message": str(error),
        "traceback": traceback_module.format_exc(),
        "stage": getattr(error, "_repro_stage", None),
    }


class Transport:
    """How a suite's attempts are launched, and how they settle.

    The driver (:func:`run_tasks`) owns all per-task state.  A transport
    implements ``launch(index, payload) -> bool`` (False: not started,
    the task stays queued) and ``poll(timeout, queued) -> [Attempt]``
    (wait up to *timeout* seconds, ``None`` meaning until something
    settles), reporting every launched attempt exactly once.  Entering
    it acquires what attempts run on; leaving releases that, also when
    the driver aborts.
    """

    #: Worker count recorded in ``runner.timing.jobs``.
    jobs = 1
    #: Start attempts strictly in task order: a task waiting out its
    #: retry backoff holds back every later task.
    ordered = False

    def __init__(self, runner: "ExperimentRunner",
                 tasks: Sequence[Tuple[str, MachineConfig]],
                 policy: FaultPolicy) -> None:
        self.runner = runner
        self.tasks = tasks
        self.policy = policy
        self.plane = getattr(runner, "telemetry", None)

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def emit(self, kind: str, **fields) -> None:
        """Record a flight-recorder event when a plane is attached."""
        if self.plane is not None:
            self.plane.events.emit(kind, **fields)


class InProcess(Transport):
    """Runs one attempt at a time on the parent runner, bounded by
    :func:`run_deadline`: no processes, spans nest directly."""

    ordered = True
    _next: Optional[Tuple[int, dict]] = None

    def launch(self, index: int, payload: dict) -> bool:
        if self._next is not None:
            return False
        self._next = (index, payload)
        return True

    def poll(self, timeout: Optional[float], queued: int) -> List[Attempt]:
        if self._next is None:
            time.sleep(timeout or 0.0)
            return []
        (index, payload), self._next = self._next, None
        faults.set_attempt(payload["attempt"])
        try:
            with run_deadline(self.policy.timeout):
                run = self.runner.run_benchmark(
                    payload["benchmark"], payload["config"]
                )
        except ReproError as error:
            # Library errors (including injected faults and timeouts)
            # are retryable run failures; anything else — interrupts,
            # MemoryError, genuine bugs — still propagates.
            kind = "timeout" if isinstance(error, RunTimeout) else "error"
            return [Attempt(index, kind, info=error_info(error))]
        finally:
            faults.set_attempt(0)
        return [Attempt(index, "ok", run=run)]


def run_tasks(
    runner: "ExperimentRunner",
    tasks: Sequence[Tuple[str, MachineConfig]],
    transport: Transport,
    policy: FaultPolicy = DEFAULT_POLICY,
    progress: bool = False,
    on_run: Optional[Callable[[int, "BenchmarkRun"], None]] = None,
    on_failure: Optional[Callable[[int, RunFailure], None]] = None,
) -> SuiteOutcome:
    """Run *tasks* over *transport* with retries, backoff and timeouts.

    The one suite driver.  Each task gets up to ``policy.max_attempts``
    attempts with deterministic backoff between them; one that exhausts
    its budget becomes a :class:`RunFailure` (or raises, under
    ``fail_fast``).  Settled attempts' obs payloads merge into the
    runner (through the live-telemetry plane when one is attached) and
    ``on_run`` / ``on_failure`` fire as each task settles.  Completed
    runs come back in task order.
    """
    if not tasks:
        return SuiteOutcome(())
    metrics = runner.obs.metrics
    plane = getattr(runner, "telemetry", None)
    runner.timing.jobs = max(runner.timing.jobs, transport.jobs)
    base = {
        "sampling": runner.sampling,
        "cost_model": runner.cost_model,
        "workload_scale": runner.workload_scale,
        "methods": runner.methods,
        "cache_dir": Path(runner.cache.directory),
        "cache_enabled": runner.cache.enabled,
        "diagnostics": runner.diagnostics,
    }
    results: Dict[int, "BenchmarkRun"] = {}
    failures: Dict[int, RunFailure] = {}
    attempts = [0] * len(tasks)
    eligible = [0.0] * len(tasks)
    queue = set(range(len(tasks)))
    in_flight = 0

    def _launch_ready(now: float) -> Optional[float]:
        """Start every eligible task the transport has room for; return
        when the next task still backing off becomes eligible."""
        nonlocal in_flight
        wake = None
        for index in sorted(queue):
            if eligible[index] > now:
                wake = (eligible[index] if wake is None
                        else min(wake, eligible[index]))
                if transport.ordered:
                    break
                continue
            benchmark, config = tasks[index]
            attempt = attempts[index]
            payload = dict(
                base, benchmark=benchmark, config=config, attempt=attempt,
                trace_ctx=runner.obs.tracer.export_context(
                    f"{benchmark}:{config.name}:a{attempt}"
                ),
            )
            if not transport.launch(index, payload):
                break
            queue.discard(index)
            in_flight += 1
            if progress:
                suffix = f" (attempt {attempt + 1})" if attempt else ""
                logger.info("[%s] %s ...%s", config.name, benchmark, suffix)
        return wake

    def _merge_obs(payload: Optional[dict]) -> None:
        # Span roots attach under the current span (the suite span), so
        # the merged trace reads suite -> run -> stages wherever it ran.
        if payload:
            runner.timing.merge(SuiteTiming.from_dict(payload["timing"]))
            runner.obs.merge_dict(payload)

    def _settle(done: Attempt) -> None:
        index = done.index
        benchmark, config = tasks[index]
        landed = done.kind in ("ok", "error")
        # A landed attempt's streamed deltas retire atomically with its
        # committed obs payload, so live scrapes never double count; any
        # other attempt's partial stream is simply dropped.
        if plane is not None and done.stream is not None:
            if landed:
                plane.live.resolve(
                    done.stream, merge=lambda: _merge_obs(done.obs)
                )
            else:
                plane.live.discard(done.stream)
        elif landed:
            _merge_obs(done.obs)
        if done.kind == "abandoned":
            queue.add(index)
            return
        if done.kind == "ok":
            metrics.counter(RUNS_COMPLETED).inc()
            results[index] = done.run
            if on_run is not None:
                on_run(index, done.run)
            if progress:
                logger.info("[%s] %s done", config.name, benchmark)
            return
        if done.kind == "crash":
            metrics.counter(WORKER_CRASHES).inc()
        elif done.kind == "timeout":
            metrics.counter(RUN_TIMEOUTS).inc()
        info = done.info or {}
        error_type = info.get("error_type", "ReproError")
        attempts[index] += 1
        if attempts[index] < policy.max_attempts:
            delay = policy.backoff_seconds(attempts[index])
            logger.info(
                "[%s] %s attempt %d failed (%s); retrying in %.2fs",
                config.name, benchmark, attempts[index], error_type, delay,
            )
            metrics.counter(RUN_RETRIES).inc()
            metrics.histogram(RETRY_BACKOFF_SECONDS).observe(delay)
            if plane is not None:
                plane.events.emit(
                    "retry", benchmark=benchmark, config=config.name,
                    attempt=attempts[index], error=error_type,
                )
            eligible[index] = time.monotonic() + delay
            queue.add(index)
            return
        failure = RunFailure(
            benchmark=benchmark,
            config_name=config.name,
            attempts=attempts[index],
            max_attempts=policy.max_attempts,
            error_type=error_type,
            error_message=info.get("error_message", ""),
            traceback=info.get("traceback", ""),
            stage=info.get("stage"),
        )
        logger.warning("run failed: %s", failure.describe())
        metrics.counter(RUN_FAILURES).inc()
        if policy.fail_fast:
            raise HarnessError(f"fail_fast: {failure.describe()}")
        failures[index] = failure
        if on_failure is not None:
            on_failure(index, failure)

    with transport:
        while queue or in_flight:
            now = time.monotonic()
            wake = _launch_ready(now)
            timeout = None if wake is None else max(wake - now, 0.01)
            for done in transport.poll(timeout, len(queue)):
                in_flight -= 1
                _settle(done)
    return assemble_outcome(tasks, results, failures)


# ----------------------------------------------------------------------
# checkpoint journal
# ----------------------------------------------------------------------
def suite_fingerprint(
    runner: "ExperimentRunner",
    config: MachineConfig,
    names: Sequence[str],
) -> str:
    """Content fingerprint of one suite invocation.

    Two invocations share a journal only when every input that could
    change their results matches (same discipline as the result cache's
    content keys).
    """
    text = (
        f"v{CACHE_SCHEMA_VERSION}:{config!r}:{runner.sampling!r}:"
        f"scale={runner.workload_scale}:"
        f"methods={','.join(runner.methods)}:names={','.join(names)}"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SuiteJournal:
    """Append-only JSONL checkpoint of suite progress, for ``--resume``.

    The suite driver records every completed run (with its full result
    payload) and every final failure as **one appended, fsync'd line**
    — O(1) per record, where the original rewrite-the-file scheme cost
    O(records) per record and made checkpointing quadratic over a
    campaign.  A crash (even an OOM kill mid-append) can tear at most
    the final line; the loader drops any unparseable line, counts it as
    ``repro_journal_torn_total``, and heals the file with one atomic
    rewrite (mkstemp + ``os.replace``, the :class:`ResultCache`
    discipline) so later appends cannot concatenate onto a torn tail.
    Whole-file rewrites remain only for the rare structural edits:
    ``reset`` and ``drop_failures``.

    Only the suite *parent* writes the journal (workers return results
    to it), so there is a single writer per file — this is also the
    dispatch backend's at-most-once commit point: a stale worker's late
    result is discarded by the lease table before it ever reaches here.
    """

    VERSION = 1

    def __init__(
        self,
        path: Path,
        fingerprint: str,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.metrics = metrics
        self._entries: List[dict] = []

    @staticmethod
    def for_suite(
        directory: Path,
        runner: "ExperimentRunner",
        config: MachineConfig,
        names: Sequence[str],
    ) -> "SuiteJournal":
        """The journal of one suite invocation, next to the cache."""
        fingerprint = suite_fingerprint(runner, config, names)
        return SuiteJournal(
            Path(directory) / f"suite-{fingerprint}.journal.jsonl",
            fingerprint,
            metrics=runner.obs.metrics,
        )

    # ------------------------------------------------------------------
    def load(self) -> int:
        """Read existing entries (tolerating torn lines); return count.

        Unparseable lines — a crash tore the final append — are dropped
        and counted (``repro_journal_torn_total``); when any were found
        the journal is immediately rewritten from the surviving entries,
        so a subsequent append cannot concatenate onto a torn tail.  A
        journal written by a different suite invocation (mismatched
        fingerprint) or journal version is ignored wholesale — resuming
        against it would mix incompatible results.
        """
        self._entries = []
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return 0
        entries: List[dict] = []
        torn = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                logger.warning("journal %s: dropping torn line", self.path)
                continue
            entries.append(entry)
        if torn and self.metrics is not None:
            self.metrics.counter(JOURNAL_TORN).inc(torn)
        if not entries:
            return 0
        header = entries[0]
        if (
            header.get("type") != "header"
            or header.get("fingerprint") != self.fingerprint
            or header.get("version") != self.VERSION
        ):
            logger.warning(
                "journal %s belongs to a different suite invocation; "
                "ignoring it", self.path,
            )
            return 0
        self._entries = entries
        if torn:
            self._rewrite()
        return len(entries) - 1

    def reset(self) -> None:
        """Start a fresh journal (non-resume invocations)."""
        self._entries = [{
            "type": "header",
            "version": self.VERSION,
            "fingerprint": self.fingerprint,
        }]
        self._rewrite()

    # ------------------------------------------------------------------
    def completed(self) -> Dict[Tuple[str, str], dict]:
        """Loaded run payloads keyed by (benchmark, config_name)."""
        return {
            (e["benchmark"], e["config_name"]): e["payload"]
            for e in self._entries
            if e.get("type") == "run"
        }

    def failed(self) -> List[RunFailure]:
        """Loaded failure records (these get re-attempted on resume)."""
        return [
            RunFailure.from_dict(e["failure"])
            for e in self._entries
            if e.get("type") == "failure"
        ]

    def drop_failures(self) -> None:
        """Forget recorded failures (they are about to be re-attempted).

        A structural edit, so this is one atomic whole-file rewrite —
        it happens once per resume, not once per record.
        """
        self._entries = [
            e for e in self._entries if e.get("type") != "failure"
        ]
        self._rewrite()

    # ------------------------------------------------------------------
    def record_run(
        self, benchmark: str, config_name: str, payload: dict
    ) -> None:
        """Checkpoint one completed run (one appended, fsync'd line)."""
        self._append({
            "type": "run",
            "benchmark": benchmark,
            "config_name": config_name,
            "payload": payload,
        })

    def record_failure(self, failure: RunFailure) -> None:
        """Checkpoint one final (post-retries) failure."""
        self._append({"type": "failure", "failure": failure.to_dict()})

    def _append(self, entry: dict) -> None:
        """Append one record: write the line, flush, fsync.

        The fsync bounds what a crash can lose to the final, possibly
        torn line — which :meth:`load` then drops and heals.
        """
        if not self._entries:
            self.reset()
        self._entries.append(entry)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _rewrite(self) -> None:
        """Atomically replace the whole file (reset / heal / drop)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.stem + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                for entry in self._entries:
                    handle.write(json.dumps(entry) + "\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
