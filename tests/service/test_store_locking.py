"""Advisory store locking and checkpointing a service run.

Two halves of the shared-store story: :class:`ResultStore` mutations take
an exclusive ``flock`` on ``<root>/.lock`` (so concurrent writers to one
directory serialize), and a session submitting to a scheduler checkpoints
every completed unit into its store -- after which a *local* serial
session pointed at the same directory replays the whole service run from
cache.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.experiments import ExperimentSession, SerialExecutor, ServiceExecutor
from repro.experiments.executors import TaskOutcome
from repro.experiments.store import CacheKey, ResultStore, fcntl
from repro.service import SchedulerThread, ServiceWorker
from repro.service.selftest import ServiceSelfTestConfig

pytestmark = pytest.mark.skipif(fcntl is None, reason="fcntl unavailable")


def key(chip_digest):
    return CacheKey("locking-demo", chip_digest, "u0")


def make_outcome(payload):
    return TaskOutcome(study="locking-demo", unit_digest="u0", chip_id=None, payload=payload)


class TestAdvisoryLocking:
    def test_lock_file_appears_at_store_root(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(key("chip"), make_outcome(1))
        assert (tmp_path / "store" / ResultStore.LOCK_FILENAME).exists()

    def test_put_blocks_while_lock_is_held(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put(key("warmup"), make_outcome(0))
        done = threading.Event()

        def contended_put():
            # A different ResultStore instance, as a second process would use.
            ResultStore(root).put(key("contended"), make_outcome(1))
            done.set()

        with (root / ResultStore.LOCK_FILENAME).open("a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            thread = threading.Thread(target=contended_put, daemon=True)
            thread.start()
            # The writer must sit on the flock while we hold it...
            assert not done.wait(0.3)
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        # ...and complete promptly once it is released.
        assert done.wait(10.0)
        thread.join(timeout=10.0)
        contended = key("contended")
        assert root / contended.study / contended.filename in ResultStore(root).entry_paths(
            contended.study
        )

    def test_concurrent_writers_all_land(self, tmp_path):
        """Many writers, one root: every entry readable and complete."""
        root = tmp_path / "store"
        writers = 4
        puts_each = 8

        def blast(writer_id):
            store = ResultStore(root)
            for n in range(puts_each):
                store.put(key(f"w{writer_id}-{n}"), make_outcome((writer_id, n)))

        threads = [
            threading.Thread(target=blast, args=(w,), daemon=True)
            for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        reader = ResultStore(root)
        for writer_id in range(writers):
            for n in range(puts_each):
                cached = reader.get(key(f"w{writer_id}-{n}"))
                assert cached is not None
                assert cached.payload == (writer_id, n)


def run_through_service(store_root, study, config=None, population=None):
    """Run ``study`` on a one-worker scheduler, checkpointing into ``store_root``."""
    with SchedulerThread() as scheduler:
        host, port = scheduler.address
        stop = threading.Event()
        worker = ServiceWorker(host, port, name="ck", stop_event=stop)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            return ExperimentSession(
                population,
                executor=ServiceExecutor(host, port),
                store=ResultStore(store_root),
            ).run(study, config)
        finally:
            stop.set()
            thread.join(timeout=10.0)


class TestServiceRunCheckpointing:
    def test_local_session_replays_service_run_from_shared_store(self, tmp_path):
        """The submitting session checkpoints completed units into its store;
        a local serial session sharing the directory replays them all."""
        root = tmp_path / "shared-store"
        config = ServiceSelfTestConfig(units=5, rounds=100, seed=6)
        service = run_through_service(root, "service-selftest", config)
        assert service.executed == service.units_total == config.units
        # Every unit now sits in the shared store directory.
        shared = ResultStore(root)
        assert len(shared.entry_paths("service-selftest")) == config.units
        # A purely local run against the same directory replays everything.
        local = ExperimentSession(
            executor=SerialExecutor(), store=shared
        ).run("service-selftest", config)
        assert local.executed == 0
        assert local.cache_hits == local.units_total == config.units
        assert local.single() == service.single()

    def test_local_session_replays_undecomposed_service_run(self, tmp_path):
        """An undecomposed per-chip study is checkpointed as the one entry of
        its implicit unit, under the key a local session looks up."""
        root = tmp_path / "shared-store"
        chip = make_chip(
            "DDR4-new", "A", seed=4, geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)
        )
        service = run_through_service(root, "fig8-hcfirst", population=chip)
        assert service.executed == service.units_total == 1
        shared = ResultStore(root)
        assert len(shared.entry_paths("fig8-hcfirst")) == 1
        local = ExperimentSession(
            chip, executor=SerialExecutor(), store=shared
        ).run("fig8-hcfirst")
        assert local.executed == 0
        assert local.cache_hits == local.units_total == 1
        assert local.single() == service.single()
