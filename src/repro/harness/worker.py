"""Subprocess worker for the distributed campaign dispatcher.

``python -m repro.harness.worker`` turns a process — local, or remote
behind any launcher that can pipe stdio (SSH, ``prun``, a cluster
spawner) — into a campaign worker.  The worker speaks a versioned
JSONL protocol over stdin/stdout (one JSON object per line):

* worker → dispatcher: ``hello`` (once, at startup), ``heartbeat``
  (periodically while a task executes), ``result`` (one per task,
  carrying the serialised run or error plus the worker's observability
  shipment).
* dispatcher → worker: ``task`` (a run spec under a lease), ``shutdown``.

Every message carries the protocol version (:data:`PROTOCOL_VERSION`);
a mismatch is fatal on both sides, because silently reinterpreting a
task spec across versions could corrupt a campaign.  Task execution
reuses the process-pool worker body (:func:`repro.harness.parallel
._worker_run`), so a dispatched run is the same pure function of its
spec as a pooled or serial one — byte-identical results by
construction, and re-execution after a lost lease is idempotent through
the shared :class:`~repro.harness.cache.ResultCache`.

Dispatch-level fault injection (``$REPRO_FAULTS``, which crosses the
process boundary for free) hooks in here: ``worker_exit`` kills the
worker at task receipt, ``heartbeat_drop`` suppresses heartbeats and
holds the result until the lease has lapsed (so the dispatcher must
reclaim it however fast the run was), and ``stale_commit`` withholds
the finished result (and all heartbeats) until shutdown — by which
point the lease has certainly been reclaimed, so the late commit must
be rejected.  See :mod:`repro.harness.faults`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO

from ..config import (
    BranchPredictorConfig,
    CacheConfig,
    CostModel,
    FunctionalUnits,
    MachineConfig,
    SamplingConfig,
)
from ..errors import DispatchError

#: Version of the dispatcher <-> worker JSONL protocol.  Bump on any
#: incompatible change to message shapes or task payload encoding.
PROTOCOL_VERSION = 1

#: Exit code for protocol violations (unparseable/incompatible input).
PROTOCOL_EXIT_CODE = 65  # EX_DATAERR


# ----------------------------------------------------------------------
# task payload encoding (JSON-safe config round-trips)
# ----------------------------------------------------------------------
def encode_task_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-encode a :func:`_worker_run` payload for the wire.

    The frozen config dataclasses and the cache path become plain JSON
    structures; everything else in the payload is JSON-native already.
    """
    encoded = dict(payload)
    encoded["sampling"] = asdict(payload["sampling"])
    encoded["cost_model"] = asdict(payload["cost_model"])
    encoded["config"] = asdict(payload["config"])
    encoded["cache_dir"] = str(payload["cache_dir"])
    encoded["methods"] = list(payload["methods"])
    return encoded


def decode_task_payload(encoded: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a :func:`_worker_run` payload from its wire form."""
    payload = dict(encoded)
    payload["sampling"] = SamplingConfig(**encoded["sampling"])
    payload["cost_model"] = CostModel(**encoded["cost_model"])
    payload["config"] = decode_machine_config(encoded["config"])
    payload["cache_dir"] = Path(encoded["cache_dir"])
    payload["methods"] = tuple(encoded["methods"])
    return payload


def decode_machine_config(data: Dict[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from ``dataclasses.asdict``."""
    fields = dict(data)
    fields["functional_units"] = FunctionalUnits(**data["functional_units"])
    for cache in ("icache", "dcache", "l2cache"):
        fields[cache] = CacheConfig(**data[cache])
    fields["branch"] = BranchPredictorConfig(**data["branch"])
    return MachineConfig(**fields)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Outbox:
    """Serialised, locked JSONL writes (heartbeat thread + main thread)."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        message.setdefault("v", PROTOCOL_VERSION)
        with self._lock:
            self._stream.write(json.dumps(message) + "\n")
            self._stream.flush()


def _execute_task(
    message: Dict[str, Any], outbox: _Outbox
) -> Optional[Dict[str, Any]]:
    """Run one leased task, heartbeating while it executes.

    Returns ``None`` after sending the result, or — under an injected
    ``stale_commit`` fault — the withheld result message for the caller
    to flush at shutdown.
    """
    from . import faults
    from .parallel import _worker_run

    received = time.monotonic()
    lease = message["lease"]
    benchmark = message["benchmark"]
    attempt = int(message.get("attempt", 0))
    heartbeat_interval = float(message["heartbeat_interval"])

    if faults.dispatch_fault("worker_exit", benchmark, attempt):
        # Simulated node loss: die without a word, mid-lease, exactly as
        # an OOM-killed or powered-off machine would.
        os._exit(faults.KILL_EXIT_CODE)
    drop_heartbeats = faults.dispatch_fault(
        "heartbeat_drop", benchmark, attempt
    )
    stale_commit = faults.dispatch_fault("stale_commit", benchmark, attempt)

    payload = decode_task_payload(message["payload"])

    stop = threading.Event()

    # The heartbeat thread piggybacks incremental metrics snapshots:
    # once _worker_run hands us its runner (via the sink), every beat
    # carries the delta since the previous one under a monotonic
    # sequence number, so the dispatcher's LiveRegistry can fold each
    # exactly once.  A dropped/withheld heartbeat loses nothing — the
    # final result payload carries the authoritative registry.
    tap: Dict[str, Any] = {}

    def _runner_sink(runner: Any) -> None:
        from ..obs.stream import MetricsDeltaEncoder

        tap["encoder"] = MetricsDeltaEncoder(runner.obs.metrics)

    def _heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            if drop_heartbeats:
                continue
            beat: Dict[str, Any] = {"type": "heartbeat", "lease": lease}
            encoder = tap.get("encoder")
            if encoder is not None:
                delta = encoder.next_delta()
                if delta is not None:
                    beat["seq"] = delta["seq"]
                    beat["metrics"] = delta["metrics"]
            outbox.send(beat)

    beater = threading.Thread(target=_heartbeat, daemon=True)
    beater.start()
    try:
        try:
            outcome = _worker_run(payload, runner_sink=_runner_sink)
        except BaseException:
            # Non-library failure (a genuine bug): report it so the
            # dispatcher can abort the campaign with the traceback
            # instead of inferring a silent node loss.
            import traceback as traceback_module

            outbox.send({
                "type": "result",
                "lease": lease,
                "status": "fatal",
                "traceback": traceback_module.format_exc(),
            })
            raise
    finally:
        stop.set()
        beater.join()

    result = {"type": "result", "lease": lease, **outcome}

    if drop_heartbeats:
        # A silent worker's lease lapses whether or not its run is
        # quick: answer only after the deadline (measured from receipt,
        # which is after the grant), so the result is always stale.
        deadline = received + float(message["lease_timeout"]) \
            + heartbeat_interval
        time.sleep(max(0.0, deadline - time.monotonic()))

    if stale_commit:
        # Withhold the finished result (heartbeats already stopped): the
        # lease will expire and the task will be reclaimed and re-run
        # elsewhere.  The result is flushed at shutdown — by then the
        # lease is certainly gone — and must be rejected as stale.
        return result
    outbox.send(result)
    return None


def serve(stdin: TextIO, stdout: TextIO) -> int:
    """Worker main loop: read task messages, execute, answer.

    Returns the process exit code.  EOF on stdin — the dispatcher went
    away — is a clean shutdown, so an orphaned worker never outlives its
    dispatcher's pipes.
    """
    outbox = _Outbox(stdout)
    outbox.send({"type": "hello", "pid": os.getpid()})
    withheld: List[Dict[str, Any]] = []

    def _flush_withheld() -> None:
        for message in withheld:
            try:
                outbox.send(message)
            except OSError:  # pragma: no cover - dispatcher pipe gone
                break
        del withheld[:]

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            print(f"repro-worker: unparseable message: {line[:120]!r}",
                  file=sys.stderr)
            return PROTOCOL_EXIT_CODE
        if message.get("v") != PROTOCOL_VERSION:
            print(
                f"repro-worker: protocol version mismatch "
                f"(mine {PROTOCOL_VERSION}, got {message.get('v')!r})",
                file=sys.stderr,
            )
            return PROTOCOL_EXIT_CODE
        kind = message.get("type")
        if kind == "shutdown":
            _flush_withheld()
            return 0
        if kind != "task":
            print(f"repro-worker: unexpected message type {kind!r}",
                  file=sys.stderr)
            return PROTOCOL_EXIT_CODE
        try:
            deferred = _execute_task(message, outbox)
        except DispatchError as error:
            print(f"repro-worker: {error}", file=sys.stderr)
            return PROTOCOL_EXIT_CODE
        if deferred is not None:
            withheld.append(deferred)
    _flush_withheld()
    return 0


def main() -> int:
    """``python -m repro.harness.worker`` entry point."""
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
