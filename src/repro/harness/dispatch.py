"""Campaign pools: the execution backends of a suite, and their transports.

A :class:`Pool` picks the transport a suite's (benchmark, config)
attempts launch on; the one suite driver
(:func:`repro.harness.recovery.run_tasks`) owns everything else —
attempts, backoff, retries, failure accounting, obs merging, journal
hooks.  Two pools, three transports:

* :class:`LocalPool` — in-process
  (:class:`~repro.harness.recovery.InProcess`) for one effective job or
  one task, otherwise a ``ProcessPoolExecutor``
  (:class:`~repro.harness.parallel.ProcessPoolTransport`);
* :class:`DispatchPool` — subprocess workers launched via a
  configurable launcher command (default ``python -m
  repro.harness.worker``, so an SSH or cluster launcher is just a
  command prefix) speaking the versioned JSONL protocol of
  :mod:`repro.harness.worker` over stdin/stdout.

Task ownership in the dispatch transport is **lease-based**: the
dispatcher hands each worker a (run spec, lease, deadline) tuple,
workers heartbeat while executing, and the monitor sweep reclaims and
reports any task whose lease expires — missed heartbeats, a dead
process, an injected partition.  Idle workers steal reclaimed work.
Results commit **at-most-once**: a lease that was reclaimed can no
longer commit (the stale result is counted and discarded), so a
partitioned or slow worker finishing late cannot double-commit a run
into the :class:`~repro.harness.recovery.SuiteJournal`; re-execution of
a reclaimed task is idempotent because every run is a pure function of
its spec and lands in the shared :class:`~repro.harness.cache
.ResultCache`.  Leases stay specific to this transport: a process-pool
future can never go stale, so there is nothing to reclaim.  The
invariant the tests pin: in-process == pooled == dispatched output,
byte-identical, including under every injected dispatch fault
(``worker_exit``, ``heartbeat_drop``, ``partition``, ``stale_commit`` —
see :mod:`repro.harness.faults`).

The lease bookkeeping itself lives in :class:`LeaseTable`, a pure
state machine (grant / renew / sweep / reclaim / settle) so property
tests can drive arbitrary interleavings of expiry, steal and late
commit without processes or clocks.
"""

from __future__ import annotations

import json
import logging
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from queue import Empty, Queue
from threading import Thread
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..config import MachineConfig
from ..errors import DispatchError, HarnessError
from ..obs import (
    DISPATCH_HEARTBEATS,
    DISPATCH_LEASE_SECONDS,
    DISPATCH_LEASES,
    DISPATCH_MISSED,
    DISPATCH_RECLAIMS,
    DISPATCH_STALE_COMMITS,
    DISPATCH_STEALS,
    MetricsRegistry,
)
from .parallel import ProcessPoolTransport, resolve_jobs, worker_attempt
from .recovery import (
    DEFAULT_POLICY,
    Attempt,
    FaultPolicy,
    InProcess,
    RunFailure,
    SuiteOutcome,
    Transport,
    run_tasks,
)
from .worker import PROTOCOL_VERSION, encode_task_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import BenchmarkRun, ExperimentRunner

logger = logging.getLogger(__name__)

#: Default lease timeout: a lease with no heartbeat for this long is
#: reclaimed and its task re-queued.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Dispatcher monitor tick (seconds): inbox poll + deadline sweep cadence.
_DISPATCH_TICK = 0.05

#: Grace period for workers to exit after a shutdown message.
_SHUTDOWN_GRACE = 5.0

#: Consecutive worker deaths before first contact that abort the
#: campaign (the launcher command itself is broken).
_MAX_SPAWN_FAILURES = 3


# ----------------------------------------------------------------------
# lease bookkeeping (pure, property-testable)
# ----------------------------------------------------------------------
class Lease:
    """One granted lease: a task owned by a worker until a deadline."""

    __slots__ = (
        "lease_id", "index", "worker", "granted_at", "last_contact",
        "partitioned", "missed_marked",
    )

    def __init__(
        self,
        lease_id: str,
        index: int,
        worker: int,
        now: float,
        partitioned: bool = False,
    ) -> None:
        self.lease_id = lease_id
        self.index = index
        self.worker = worker
        self.granted_at = now
        self.last_contact = now
        #: Injected network partition: while the lease is active, every
        #: message concerning it is dropped at the dispatcher.
        self.partitioned = partitioned
        #: Heartbeat slots already counted as missed (monitor sweep).
        self.missed_marked = 0


class LeaseTable:
    """Lease state machine with at-most-once commit gating.

    Pure bookkeeping — no processes, no wall clock of its own; callers
    pass ``now``.  The invariants the dispatcher (and the hypothesis
    property tests) rely on:

    * a task has at most one *active* lease;
    * a committed task can never be granted again;
    * :meth:`settle` accepts a result only for an active,
      non-partitioned lease — anything else is dropped (and, unless the
      drop *is* the partition, counted as a stale commit).
    """

    def __init__(
        self,
        lease_timeout: float,
        heartbeat_interval: float,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[object] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise HarnessError(
                f"lease timeout must be > 0, got {lease_timeout}"
            )
        if heartbeat_interval <= 0:
            raise HarnessError(
                f"heartbeat interval must be > 0, got {heartbeat_interval}"
            )
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.metrics = metrics
        #: Optional flight recorder (:class:`repro.obs.events.EventLog`)
        #: — like ``metrics``, a passive sink that keeps the state
        #: machine pure.
        self.events = events
        self._active: Dict[str, Lease] = {}
        self._by_index: Dict[int, str] = {}
        self._committed: Set[int] = set()
        #: Worker that lost each reclaimed task (steal detection).
        self._lost: Dict[int, int] = {}
        self._serial = 0

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _event(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def active_count(self) -> int:
        """Number of currently active leases."""
        return len(self._active)

    def active_ids(self) -> List[str]:
        """The active lease ids (sorted, for deterministic tests)."""
        return sorted(self._active)

    def get(self, lease_id: str) -> Optional[Lease]:
        """The active lease *lease_id*, or None."""
        return self._active.get(lease_id)

    def is_partitioned(self, lease_id: str) -> bool:
        """Is *lease_id* active and under an injected partition?"""
        lease = self._active.get(lease_id)
        return lease is not None and lease.partitioned

    # ------------------------------------------------------------------
    def grant(
        self, index: int, worker: int, now: float, partitioned: bool = False
    ) -> Lease:
        """Lease task *index* to *worker*; counts steals of reclaimed work."""
        if index in self._committed:
            raise DispatchError(
                f"task {index} already committed; cannot re-lease"
            )
        if index in self._by_index:
            raise DispatchError(
                f"task {index} already leased as {self._by_index[index]}"
            )
        self._serial += 1
        lease = Lease(f"L{self._serial}", index, worker, now, partitioned)
        self._active[lease.lease_id] = lease
        self._by_index[index] = lease.lease_id
        self._count(DISPATCH_LEASES)
        self._event(
            "lease_grant", lease=lease.lease_id, index=index, worker=worker,
        )
        lost_to = self._lost.pop(index, None)
        if lost_to is not None and lost_to != worker:
            self._count(DISPATCH_STEALS)
            self._event(
                "lease_steal", lease=lease.lease_id, index=index,
                worker=worker, lost_by=lost_to,
            )
        return lease

    def ungrant(self, lease_id: str) -> Optional[Lease]:
        """Roll back a grant whose task message never reached the worker.

        No counters move: the lease never existed from the worker's
        point of view (the caller re-queues the task itself).
        """
        lease = self._active.pop(lease_id, None)
        if lease is not None:
            self._by_index.pop(lease.index, None)
        return lease

    def renew(self, lease_id: str, now: float) -> bool:
        """Heartbeat: refresh the lease deadline.  False when stale.

        Heartbeats for a partitioned lease are dropped (that *is* the
        partition); heartbeats for unknown leases — already reclaimed —
        are ignored, so a stale worker cannot resurrect its lease.
        """
        lease = self._active.get(lease_id)
        if lease is None or lease.partitioned:
            return False
        lease.last_contact = now
        self._count(DISPATCH_HEARTBEATS)
        return True

    def sweep(self, now: float) -> List[Lease]:
        """Monitor pass: count missed heartbeats, reclaim expired leases.

        Returns the reclaimed leases (their tasks must be re-queued by
        the caller).
        """
        expired: List[Lease] = []
        for lease in list(self._active.values()):
            age = now - lease.last_contact
            slots = int(age // self.heartbeat_interval)
            if slots > lease.missed_marked:
                self._count(DISPATCH_MISSED, slots - lease.missed_marked)
                lease.missed_marked = slots
            if age > self.lease_timeout:
                expired.append(lease)
        for lease in expired:
            self._reclaim(lease)
        return expired

    def reclaim(self, lease_id: str) -> Optional[Lease]:
        """Reclaim one lease explicitly (dead worker, run timeout)."""
        lease = self._active.get(lease_id)
        if lease is None:
            return None
        self._reclaim(lease)
        return lease

    def _reclaim(self, lease: Lease) -> None:
        del self._active[lease.lease_id]
        self._by_index.pop(lease.index, None)
        self._lost[lease.index] = lease.worker
        self._count(DISPATCH_RECLAIMS)
        self._event(
            "lease_reclaim", lease=lease.lease_id, index=lease.index,
            worker=lease.worker,
        )

    def settle(self, lease_id: str, ok: bool, now: float) -> Optional[Lease]:
        """Gate one incoming result.  Returns the lease iff it may land.

        An active, non-partitioned lease settles: the lease ends, and a
        successful result marks the task committed — for ever, which is
        the at-most-once guarantee.  A partitioned lease drops the
        message silently (the network ate it).  Anything else — the
        lease was reclaimed, possibly re-granted and even re-committed
        by now — is a stale commit attempt: counted, discarded.
        """
        lease = self._active.get(lease_id)
        if lease is None:
            self._count(DISPATCH_STALE_COMMITS)
            self._event("stale_commit", lease=lease_id)
            return None
        if lease.partitioned:
            return None
        del self._active[lease_id]
        self._by_index.pop(lease.index, None)
        if ok:
            self._committed.add(lease.index)
            self._lost.pop(lease.index, None)
            if self.metrics is not None:
                self.metrics.histogram(DISPATCH_LEASE_SECONDS).observe(
                    max(now - lease.granted_at, 0.0)
                )
            self._event(
                "lease_commit", lease=lease_id, index=lease.index,
                worker=lease.worker,
            )
        return lease


# ----------------------------------------------------------------------
# pool interface
# ----------------------------------------------------------------------
class Pool:
    """One interface over the campaign execution backends: a pool picks
    the :class:`~repro.harness.recovery.Transport` attempts launch on,
    and the one suite driver (:func:`~repro.harness.recovery.run_tasks`)
    does the rest."""

    def transport(self, runner, tasks, policy) -> Transport:
        """The transport one ``run_tasks`` call launches attempts on."""
        raise NotImplementedError

    def run_tasks(
        self,
        runner: "ExperimentRunner",
        tasks: Sequence[Tuple[str, MachineConfig]],
        policy: FaultPolicy = DEFAULT_POLICY,
        progress: bool = False,
        on_run: Optional[Callable[[int, "BenchmarkRun"], None]] = None,
        on_failure: Optional[Callable[[int, RunFailure], None]] = None,
    ) -> SuiteOutcome:
        """Turn *tasks* into a :class:`SuiteOutcome` under *policy*;
        ``on_run`` / ``on_failure`` fire as each task settles (the suite
        journal hooks in here)."""
        logger.info("running %d runs on %s", len(tasks), self.describe())
        return run_tasks(
            runner, tasks, self.transport(runner, tasks, policy),
            policy=policy, progress=progress, on_run=on_run,
            on_failure=on_failure,
        )

    def describe(self) -> str:
        """One-line human description (logs, manifests)."""
        raise NotImplementedError


class LocalPool(Pool):
    """The local backend: one effective job (or one task) runs
    in-process; anything wider fans out over a ``ProcessPoolExecutor``
    (:mod:`repro.harness.parallel`)."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs

    def transport(self, runner, tasks, policy):
        jobs = resolve_jobs(self.jobs)
        if jobs <= 1 or len(tasks) <= 1:
            return InProcess(runner, tasks, policy)
        return ProcessPoolTransport(runner, tasks, policy, jobs)

    def describe(self) -> str:
        if self.jobs == 1:
            return "in-process (1 job)"
        return f"local process pool ({self.jobs or 'auto'} jobs)"


def _worker_env() -> Dict[str, str]:
    """Environment for spawned workers: this package stays importable.

    ``$REPRO_FAULTS`` and ``$REPRO_CACHE_DIR`` cross untouched; the
    package's ``src`` root is prepended to ``PYTHONPATH`` so
    ``python -m repro.harness.worker`` resolves even when the dispatcher
    itself was started via ``sys.path`` tweaks.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return env


class _WorkerProc:
    """One launched worker: process, pipes, reader thread, lease state."""

    STARTING = "starting"  # launched, no hello yet
    IDLE = "idle"          # ready for a task
    BUSY = "busy"          # holds an active lease
    SUSPECT = "suspect"    # lease reclaimed while the process lives
    DEAD = "dead"          # EOF observed

    def __init__(
        self,
        wid: int,
        command: List[str],
        inbox: "Queue[Tuple[int, Optional[str]]]",
    ) -> None:
        self.wid = wid
        self.state = self.STARTING
        self.lease_id: Optional[str] = None
        try:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=_worker_env(),
            )
        except OSError as error:
            raise DispatchError(
                f"cannot launch worker via {' '.join(command)!r}: {error}"
            ) from error
        self._inbox = inbox
        self.reader = Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        try:
            for line in self.proc.stdout:
                self._inbox.put((self.wid, line))
        finally:
            self._inbox.put((self.wid, None))

    def send(self, message: dict) -> bool:
        """Write one JSONL message; False when the pipe is broken."""
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    def shutdown(self) -> None:
        """Ask the worker to exit (message + closed stdin)."""
        self.send({"v": PROTOCOL_VERSION, "type": "shutdown"})
        try:
            self.proc.stdin.close()
        except OSError:  # pragma: no cover - pipe already gone
            pass

    def kill(self) -> None:
        """Forcibly stop the worker process."""
        try:
            self.proc.kill()
        except OSError:  # pragma: no cover - already dead
            pass


class DispatchPool(Pool):
    """Subprocess-worker backend with lease-based work stealing.

    ``launcher`` is the full worker command as one shell-style string
    (default: this interpreter running ``-m repro.harness.worker``); a
    cluster backend is just a prefix, e.g. ``"ssh node7 python -m
    repro.harness.worker"``.  ``lease_timeout`` bounds how long a task
    may go without contact before it is reclaimed and re-queued;
    workers heartbeat every ``heartbeat_interval`` (default: a fifth of
    the lease timeout) while executing.
    """

    def __init__(
        self,
        workers: int = 2,
        launcher: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise HarnessError(f"workers must be >= 1, got {workers}")
        if lease_timeout <= 0:
            raise HarnessError(
                f"lease timeout must be > 0, got {lease_timeout}"
            )
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise HarnessError(
                f"heartbeat interval must be > 0, got {heartbeat_interval}"
            )
        self.workers = workers
        self.launcher = launcher
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None
            else max(self.lease_timeout / 5.0, 0.05)
        )
        #: Every worker pid this pool ever spawned (tests assert none
        #: outlive a campaign).
        self.spawned_pids: List[int] = []

    def command(self) -> List[str]:
        """The worker launch command (argv form)."""
        if self.launcher:
            parts = shlex.split(self.launcher)
            if not parts:
                raise HarnessError("launcher command is empty")
            return parts
        # The runpy filter silences the (harmless) "found in sys.modules"
        # warning: the harness package itself imports .worker.
        return [
            sys.executable, "-u", "-W", "ignore::RuntimeWarning:runpy",
            "-m", "repro.harness.worker",
        ]

    def describe(self) -> str:
        return (
            f"dispatch pool ({self.workers} workers via "
            f"{' '.join(self.command())!r}, lease {self.lease_timeout}s)"
        )

    def transport(self, runner, tasks, policy):
        return _Fleet(self, runner, tasks, policy)


class _Fleet(Transport):
    """The :class:`DispatchPool` transport: leased JSONL stdio workers.

    Each attempt goes to an idle worker under a lease; reader threads
    feed every worker line into one inbox.  The :class:`LeaseTable` is
    the at-most-once commit gate: a result lands only while its lease is
    live, and a lease that expires or outlives the policy timeout is
    reclaimed, reported, and its task stolen by an idle worker.  Lease
    ids double as live-telemetry stream ids (unique per grant).
    """

    def __init__(self, pool: DispatchPool, runner, tasks, policy) -> None:
        super().__init__(runner, tasks, policy)
        self.pool = pool
        self.jobs = pool.workers
        self.table = LeaseTable(
            pool.lease_timeout, pool.heartbeat_interval,
            metrics=runner.obs.metrics,
            events=self.plane.events if self.plane is not None else None,
        )
        self.inbox: "Queue[Tuple[int, Optional[str]]]" = Queue()
        self.fleet: Dict[int, _WorkerProc] = {}
        self.spawn_failures = 0
        # Crash-looping tasks are bounded by the retry budget; this cap
        # only backstops a launcher that keeps dying *between* tasks.
        self.max_spawns = pool.workers + len(tasks) * policy.max_attempts + 8
        #: Attempts settled since the last :meth:`poll`.
        self.settled: List[Attempt] = []

    def __exit__(self, *exc) -> None:
        self._shutdown_fleet()

    def poll(self, timeout: Optional[float], queued: int) -> List[Attempt]:
        self._ensure_fleet(queued)
        try:
            item = self.inbox.get(timeout=_DISPATCH_TICK)
            while True:
                self._handle_line(*item)
                item = self.inbox.get_nowait()
        except Empty:
            pass
        self._sweep(time.monotonic())
        settled, self.settled = self.settled, []
        return settled

    # ------------------------------------------------------------------
    def _note_worker(self, wid: int, state: str, benchmark=None, lease=None):
        if self.plane is not None:
            self.plane.progress.note_worker(
                wid, state, benchmark=benchmark, lease=lease
            )

    def _spawn(self) -> None:
        spawned = self.pool.spawned_pids
        if len(spawned) >= self.max_spawns:
            raise DispatchError(
                f"spawned {len(spawned)} workers for {len(self.tasks)} "
                f"tasks; launcher or workers are crash-looping"
            )
        wid = len(self.fleet)
        worker = _WorkerProc(wid, self.pool.command(), self.inbox)
        self.fleet[wid] = worker
        spawned.append(worker.proc.pid)
        self._note_worker(wid, "starting")
        self.emit("worker_spawn", worker=wid, pid=worker.proc.pid)

    def _ensure_fleet(self, queued: int) -> None:
        outstanding = queued + self.table.active_count()
        target = min(self.pool.workers, outstanding)
        usable = sum(
            1 for w in self.fleet.values()
            if w.state in (w.STARTING, w.IDLE, w.BUSY)
        )
        for _ in range(target - usable):
            self._spawn()

    def _suspend_holder(self, lease: Lease) -> None:
        """Detach a reclaimed lease from its (still live) worker."""
        holder = self.fleet.get(lease.worker)
        if holder is not None and holder.lease_id == lease.lease_id:
            holder.lease_id = None
            if holder.state == holder.BUSY:
                holder.state = holder.SUSPECT

    def launch(self, index: int, payload: dict) -> bool:
        from . import faults

        # The fleet iterates in wid order: the lowest idle wid goes first.
        worker = next(
            (w for w in self.fleet.values() if w.state == w.IDLE), None
        )
        if worker is None:
            return False
        benchmark, attempt = payload["benchmark"], payload["attempt"]
        partitioned = faults.dispatch_fault("partition", benchmark, attempt)
        if partitioned:
            logger.warning(
                "injected partition on %s lease (attempt %d)",
                benchmark, attempt,
            )
        lease = self.table.grant(
            index, worker.wid, time.monotonic(), partitioned=partitioned
        )
        message = {
            "v": PROTOCOL_VERSION,
            "type": "task",
            "lease": lease.lease_id,
            "benchmark": benchmark,
            "attempt": attempt,
            "lease_timeout": self.pool.lease_timeout,
            "heartbeat_interval": self.pool.heartbeat_interval,
            "payload": encode_task_payload(
                dict(payload, worker=f"w{worker.wid}")
            ),
        }
        if not worker.send(message):
            # Broken pipe: the task never left; it stays queued without
            # an attempt charged.  The reader's EOF event does the death
            # bookkeeping.
            self.table.ungrant(lease.lease_id)
            return False
        worker.state = worker.BUSY
        worker.lease_id = lease.lease_id
        self._note_worker(
            worker.wid, "busy", benchmark=benchmark, lease=lease.lease_id,
        )
        return True

    def _handle_death(self, wid: int) -> None:
        worker = self.fleet[wid]
        worker.proc.wait()
        was_starting = worker.state == worker.STARTING
        worker.state = worker.DEAD
        self._note_worker(wid, "dead")
        self.emit("worker_dead", worker=wid, exit_code=worker.proc.returncode)
        lease_id, worker.lease_id = worker.lease_id, None
        lease = self.table.reclaim(lease_id) if lease_id else None
        if lease is not None:
            self.settled.append(Attempt.lost(
                lease.index, "crash", f"dispatch worker died mid-lease "
                f"(exit {worker.proc.returncode})", lease_id,
            ))
        if was_starting:
            self.spawn_failures += 1
            if self.spawn_failures >= _MAX_SPAWN_FAILURES:
                raise DispatchError(
                    f"{self.spawn_failures} workers died before first "
                    f"contact; launcher {' '.join(self.pool.command())!r} "
                    f"is broken (exit {worker.proc.returncode})"
                )

    def _handle_result(self, worker: _WorkerProc, message: dict) -> None:
        status = message.get("status")
        if status == "fatal":
            raise DispatchError(
                f"worker {worker.wid} hit a non-library error:\n"
                f"{message.get('traceback', '')}"
            )
        lease_id = message.get("lease", "")
        # Leases end at their deadline, not at the monitor's next pass:
        # reclaim anything already expired before gating this result.
        now = time.monotonic()
        self._sweep(now)
        lease = self.table.settle(lease_id, ok=(status == "ok"), now=now)
        if lease is None:
            if self.table.is_partitioned(lease_id):
                # The partition ate the result; the lease stays active
                # until the sweep reclaims it.
                return
            # Stale commit (already counted): the task was reclaimed —
            # and possibly re-run — while this worker was out of
            # contact.  Its result is discarded, but the worker itself
            # is back: return it to the rotation.
            logger.warning(
                "worker %d: stale result for %s discarded",
                worker.wid, lease_id,
            )
            if worker.state in (worker.BUSY, worker.SUSPECT):
                worker.state = worker.IDLE
                worker.lease_id = None
                self._note_worker(worker.wid, "idle")
            return
        worker.state = worker.IDLE
        worker.lease_id = None
        self._note_worker(worker.wid, "idle")
        self.settled.append(worker_attempt(lease.index, message, lease_id))

    def _handle_line(self, wid: int, line: Optional[str]) -> None:
        worker = self.fleet[wid]
        if line is None:
            self._handle_death(wid)
            return
        if worker.state == worker.DEAD:  # pragma: no cover - race
            return
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            logger.warning(
                "worker %d: unparseable message %r; killing it",
                wid, line[:120],
            )
            worker.kill()
            return
        if message.get("v") != PROTOCOL_VERSION:
            raise DispatchError(
                f"worker {wid} speaks protocol {message.get('v')!r}; "
                f"dispatcher speaks {PROTOCOL_VERSION}"
            )
        kind = message.get("type")
        if kind == "hello":
            self.spawn_failures = 0
            if worker.state == worker.STARTING:
                worker.state = worker.IDLE
                self._note_worker(wid, "idle")
        elif kind == "heartbeat":
            lease_id = message.get("lease", "")
            renewed = self.table.renew(lease_id, time.monotonic())
            # Piggybacked metrics delta: fold exactly once, and only for
            # a live, non-partitioned lease — deltas of a reclaimed lease
            # are stale by definition (their run will recommit
            # elsewhere), and a partition eats its messages.
            if renewed and self.plane is not None and "seq" in message:
                self.plane.live.fold(lease_id, message)
        elif kind == "result":
            self._handle_result(worker, message)
        else:
            logger.warning(
                "worker %d: unexpected message type %r", wid, kind
            )

    def _sweep(self, now: float) -> None:
        timeout = self.pool.lease_timeout
        for lease in self.table.sweep(now):
            self._suspend_holder(lease)
            logger.warning(
                "lease %s on %s expired (no contact for > %.1fs); "
                "reclaiming", lease.lease_id, self.tasks[lease.index][0],
                timeout,
            )
            self.settled.append(Attempt.lost(
                lease.index, "expired", f"lease expired after {timeout}s "
                f"without heartbeat", lease.lease_id,
            ))
        if self.policy.timeout is None:
            return
        overdue = [
            lease for lease in map(self.table.get, self.table.active_ids())
            if lease is not None
            and now - lease.granted_at > self.policy.timeout
        ]
        for lease in overdue:
            # A run past the policy timeout is wedged even though it may
            # still heartbeat; kill the worker (runs cannot be cancelled
            # in place) and charge the task.
            self.table.reclaim(lease.lease_id)
            self._suspend_holder(lease)
            holder = self.fleet.get(lease.worker)
            if holder is not None and holder.state != holder.DEAD:
                holder.kill()
            self.settled.append(Attempt.lost(
                lease.index, "timeout", f"run exceeded per-run timeout of "
                f"{self.policy.timeout}s", lease.lease_id,
            ))

    def _shutdown_fleet(self) -> None:
        for worker in self.fleet.values():
            if worker.state != worker.DEAD:
                worker.shutdown()
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        # Drain the inbox while the fleet winds down: a worker whose
        # lease was reclaimed may flush a withheld result on shutdown
        # (the node "came back"), and that late commit must still be
        # counted and rejected as stale, not vanish unread.  Only dead
        # leases are settled here — an aborting campaign (fault
        # fast-path) may still hold active ones, and those must not land
        # after the driver has stopped recording results.
        def _drain_late(line: Optional[str]) -> None:
            if line is None:
                return
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                return
            lease_id = message.get("lease", "")
            if (message.get("type") == "result"
                    and self.table.get(lease_id) is None):
                self.table.settle(lease_id, ok=False, now=time.monotonic())

        while time.monotonic() < deadline:
            if all(w.proc.poll() is not None for w in self.fleet.values()):
                break
            try:
                _, line = self.inbox.get(timeout=_DISPATCH_TICK)
            except Empty:
                continue
            _drain_late(line)
        for worker in self.fleet.values():
            if worker.proc.returncode is not None:
                continue
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.proc.wait()
        # Final sweep: the reader threads may enqueue a worker's last
        # lines (EOF flush) just after its process exits.
        while True:
            try:
                _, line = self.inbox.get(timeout=_DISPATCH_TICK)
            except Empty:
                break
            _drain_late(line)


def make_pool(
    dispatch: bool = False,
    jobs: Optional[int] = None,
    workers: int = 2,
    launcher: Optional[str] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
) -> Pool:
    """Build the campaign pool the CLI flags describe."""
    if dispatch:
        return DispatchPool(
            workers=workers, launcher=launcher, lease_timeout=lease_timeout
        )
    return LocalPool(jobs=jobs)
