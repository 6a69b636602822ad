"""The worker: pulls leased unit batches, executes them, streams results.

A :class:`ServiceWorker` is a synchronous pull loop -- the execution of one
work unit is CPU-bound simulator/chip code, so there is nothing to gain
from asyncio here.  While a batch executes, a daemon *heartbeat thread*
renews the lease over the shared (thread-safe) message stream; if the
worker process dies the heartbeats stop with it and the scheduler requeues
the lease's incomplete units.

Unit execution reuses :func:`repro.experiments.executors.execute_task`
verbatim -- the exact function behind ``SerialExecutor`` and
``ParallelExecutor`` -- which is what makes service results bit-identical
to local ones: same hermetic chip copies, same payload code.
A unit that raises is reported as ``unit_failed`` (with its traceback) and
the scheduler decides between retry and quarantine.

Failures are never silent: unit exceptions and heartbeat-thread deaths are
logged through the module logger, and a lease whose heartbeat thread died
is surrendered explicitly (``lease_failed``) so the scheduler requeues its
incomplete units immediately instead of waiting out the lease TTL.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import traceback
from typing import Optional

from repro.experiments.executors import execute_task
from repro.service import protocol

logger = logging.getLogger(__name__)


class ServiceWorker:
    """Executes work units leased from a scheduler.

    Parameters
    ----------
    host, port:
        Scheduler endpoint.
    name:
        Worker identity in telemetry; defaults to ``worker-<pid>``.
    batch_size:
        Units requested per lease.
    stop_event:
        Optional :class:`threading.Event` checked between units, for
        embedding a worker in a host process.

    :meth:`run` returns when ``stop_event`` is set or the scheduler closes
    the connection; from the shell, Ctrl-C stops the worker.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        batch_size: int = 2,
        stop_event: Optional[threading.Event] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.host = host
        self.port = port
        self.name = name or f"worker-{os.getpid()}"
        self.batch_size = batch_size
        self.stop_event = stop_event or threading.Event()
        self.units_done = 0
        self.units_failed = 0
        #: Leases surrendered because their heartbeat thread died.
        self.heartbeat_failures = 0

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Pull-execute-report until stopped; returns units completed."""
        stream = protocol.connect_stream(self.host, self.port)
        try:
            stream.send(protocol.hello("worker", self.name))
            ack = stream.recv()
            if ack is None or ack.get("type") != "hello_ack":
                raise protocol.ProtocolError(f"bad handshake reply: {ack!r}")
            while not self.stop_event.is_set():
                stream.send({"type": "lease_request", "capacity": self.batch_size})
                message = stream.recv()
                if message is None:
                    break  # scheduler went away; exit cleanly
                kind = message.get("type")
                if kind == "no_work":
                    if self.stop_event.wait(float(message.get("retry_in") or 0.5)):
                        break
                    continue
                if kind != "lease_grant":
                    raise protocol.ProtocolError(f"expected lease_grant, got {kind!r}")
                self._run_lease(stream, message)
            try:
                stream.send({"type": "goodbye"})
            except OSError:
                pass
        finally:
            stream.close()
        return self.units_done

    # ------------------------------------------------------------------
    def _run_lease(self, stream: protocol.MessageStream, grant: dict) -> None:
        lease_id = grant["lease_id"]
        expires_in = float(grant.get("expires_in") or 15.0)
        stop_heartbeat = threading.Event()
        heartbeat_failed = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(stream, lease_id, max(0.05, expires_in / 3), stop_heartbeat,
                  heartbeat_failed),
            name=f"{self.name}-heartbeat",
            daemon=True,
        )
        beat.start()
        try:
            for unit in grant["units"]:
                if self.stop_event.is_set():
                    break
                self._run_unit(stream, lease_id, unit)
        finally:
            stop_heartbeat.set()
            beat.join(timeout=2.0)
            if heartbeat_failed.is_set():
                # The lease may have silently lapsed mid-batch.  Surrender it
                # explicitly so the scheduler requeues incomplete units now
                # rather than after the TTL sweep; best effort -- the same
                # broken stream may refuse the message too.
                self.heartbeat_failures += 1
                logger.warning(
                    "worker %s surrendering lease %s: heartbeat thread died",
                    self.name, lease_id,
                )
                try:
                    stream.send(
                        {
                            "type": "lease_failed",
                            "lease_id": lease_id,
                            "error": "heartbeat thread died",
                        }
                    )
                except OSError:
                    pass

    def _run_unit(self, stream: protocol.MessageStream, lease_id: str, unit: dict) -> None:
        key = unit["key"]
        try:
            task = protocol.unpack_blob(unit["task"])
            started = time.perf_counter()
            outcome = execute_task(task)
            elapsed = time.perf_counter() - started
        except Exception:
            self.units_failed += 1
            logger.exception("worker %s: unit %s raised", self.name, key)
            stream.send(
                {
                    "type": "unit_failed",
                    "lease_id": lease_id,
                    "key": key,
                    "error": traceback.format_exc(limit=20),
                }
            )
            return
        self.units_done += 1
        stream.send(
            {
                "type": "unit_result",
                "lease_id": lease_id,
                "key": key,
                "elapsed_s": elapsed,
                "outcome": protocol.pack_blob(outcome),
            }
        )

    @staticmethod
    def _heartbeat_loop(
        stream: protocol.MessageStream,
        lease_id: str,
        interval: float,
        stop: threading.Event,
        failed: threading.Event,
    ) -> None:
        """Renew ``lease_id`` until told to stop; flag ``failed`` on death.

        Any exit other than a clean stop sets ``failed`` so the lease holder
        knows renewals ceased -- a silently dead heartbeat thread would let
        the lease expire while the batch is still running.
        """
        try:
            while not stop.wait(interval):
                try:
                    stream.send({"type": "heartbeat", "lease_id": lease_id})
                except OSError as exc:
                    failed.set()
                    logger.warning(
                        "heartbeat for lease %s stopped: stream closed (%s)",
                        lease_id, exc,
                    )
                    return
        except Exception:
            failed.set()
            logger.exception("heartbeat thread for lease %s crashed", lease_id)
