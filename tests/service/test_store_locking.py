"""Advisory store locking and scheduler-side checkpointing.

Two halves of the shared-store story: :class:`ResultStore` mutations take
an exclusive ``flock`` on ``<root>/.lock`` (so concurrent writers to one
directory serialize), and a scheduler configured with a store checkpoints
every completed unit -- after which a *local* serial session pointed at
the same directory replays the whole service run from cache.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.experiments import ExperimentSession, SerialExecutor, ServiceExecutor
from repro.experiments.store import CacheKey, ResultStore, fcntl
from repro.experiments.study import StudyResult
from repro.service import SchedulerThread, ServiceWorker
from repro.service.selftest import ServiceSelfTestConfig

pytestmark = pytest.mark.skipif(fcntl is None, reason="fcntl unavailable")


def make_result(payload):
    return StudyResult(
        study="locking-demo",
        config_digest="cfg",
        chip_id=None,
        type_node=None,
        manufacturer=None,
        seed=0,
        payload=payload,
    )


class TestAdvisoryLocking:
    def test_lock_file_appears_at_store_root(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(CacheKey("locking-demo", "cfg", "chip"), make_result(1))
        assert (tmp_path / "store" / ResultStore.LOCK_FILENAME).exists()

    def test_put_blocks_while_lock_is_held(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put(CacheKey("locking-demo", "cfg", "warmup"), make_result(0))
        done = threading.Event()

        def contended_put():
            # A different ResultStore instance, as a second process would use.
            ResultStore(root).put(
                CacheKey("locking-demo", "cfg", "contended"), make_result(1)
            )
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
        assert ResultStore(root).contains(
            CacheKey("locking-demo", "cfg", "contended")
        )

    def test_concurrent_writers_all_land(self, tmp_path):
        """Many writers, one root: every entry readable and complete."""
        root = tmp_path / "store"
        writers = 4
        puts_each = 8

        def blast(writer_id):
            store = ResultStore(root)
            for n in range(puts_each):
                key = CacheKey("locking-demo", "cfg", f"w{writer_id}-{n}")
                store.put(key, make_result((writer_id, n)))

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
                key = CacheKey("locking-demo", "cfg", f"w{writer_id}-{n}")
                cached = reader.get(key)
                assert cached is not None
                assert cached.payload == (writer_id, n)
                assert cached.from_cache


def run_through_service(store_root, study, config=None, population=None):
    """Run ``study`` on a one-worker scheduler that checkpoints into ``store_root``."""
    with SchedulerThread(store=ResultStore(store_root)) as scheduler:
        host, port = scheduler.address
        stop = threading.Event()
        worker = ServiceWorker(host, port, name="ck", stop_event=stop)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            return ExperimentSession(
                population, executor=ServiceExecutor(host, port), seed=7
            ).run(study, config)
        finally:
            stop.set()
            thread.join(timeout=10.0)


class TestSchedulerCheckpointing:
    def test_local_session_replays_service_run_from_shared_store(self, tmp_path):
        """The scheduler checkpoints completed units into its store; a local
        serial session sharing the directory replays them all from cache."""
        root = tmp_path / "shared-store"
        config = ServiceSelfTestConfig(units=5, rounds=100, seed=6)
        service = run_through_service(root, "service-selftest", config)
        assert service.executed == service.units_total == config.units
        # Every unit now sits in the shared store directory.
        shared = ResultStore(root)
        assert len(shared.entry_paths("service-selftest", units_only=True)) == (
            config.units
        )
        # A purely local run against the same directory replays everything.
        local = ExperimentSession(
            executor=SerialExecutor(), store=shared, seed=7
        ).run("service-selftest", config)
        assert local.executed == 0
        assert local.cache_hits == local.units_total == config.units
        assert local.single() == service.single()

    def test_local_session_replays_undecomposed_service_run(self, tmp_path):
        """An undecomposed per-chip study is checkpointed as one whole-study
        entry under the key a local session looks up."""
        root = tmp_path / "shared-store"
        chip = make_chip(
            "DDR4-new", "A", seed=4, geometry=ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)
        )
        service = run_through_service(root, "fig8-hcfirst", population=chip)
        assert service.executed == service.units_total == 1
        shared = ResultStore(root)
        assert len(shared.entry_paths("fig8-hcfirst")) == 1
        local = ExperimentSession(
            chip, executor=SerialExecutor(), store=shared, seed=7
        ).run("fig8-hcfirst")
        assert local.executed == 0
        assert local.cache_hits == local.units_total == 1
        assert local.single() == service.single()
