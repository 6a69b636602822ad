"""ResultStore.put fault paths: temp-file hygiene and the no-fcntl fallback.

``put`` publishes each entry atomically through a per-writer unique temp
file.  Two fault paths are pinned here: a failed temp-file write (a full
disk) must not leave ``.tmp`` litter behind (and cleanup must never mask
the original error), and on platforms without ``fcntl`` the advisory lock
degrades to a no-op while the write stays atomic-rename-based.  The
successful path does its set-up once: the root and each study directory
are created by a store's first put into them, and a temp file that was
renamed into place is not unlinked.
"""

from __future__ import annotations

import errno

import pytest

import repro.experiments.store as store_module
from repro.experiments.executors import TaskOutcome
from repro.experiments.store import CacheKey, ResultStore


def key(chip_digest, study="faults-demo"):
    return CacheKey(study, chip_digest, "u0")


def make_outcome(payload, study="faults-demo"):
    return TaskOutcome(study=study, unit_digest="u0", chip_id=None, payload=payload)


def tmp_litter(root):
    return [path for path in root.rglob("*.tmp")]


def break_temp_file_writes(monkeypatch, root):
    """Make every temp-file write stop part-way with a full disk."""

    def broken_write_bytes(self, data):
        with open(self, "wb") as handle:
            handle.write(data[:1])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(type(root), "write_bytes", broken_write_bytes)


class TestTempFileHygiene:
    def test_successful_put_leaves_no_tmp(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put(key("ok"), make_outcome(1))
        assert tmp_litter(root) == []
        assert ResultStore(root).get(key("ok")) is not None

    def test_failed_write_cleans_up_and_raises_original_error(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = ResultStore(root)
        break_temp_file_writes(monkeypatch, root)
        with pytest.raises(OSError, match="No space left"):
            store.put(key("bad"), make_outcome(2))
        assert tmp_litter(root) == []

    def test_unremovable_tmp_does_not_mask_write_error(self, tmp_path, monkeypatch):
        """Even if cleanup itself fails, the *write* error is what surfaces."""
        root = tmp_path / "store"
        store = ResultStore(root)

        def broken_unlink(self, missing_ok=False):
            raise OSError("unlink refused")

        break_temp_file_writes(monkeypatch, root)
        monkeypatch.setattr(type(root), "unlink", broken_unlink)
        with pytest.raises(OSError, match="No space left"):
            store.put(key("bad"), make_outcome(3))


class TestPutSetUp:
    def test_puts_make_each_directory_once_and_unlink_nothing(self, tmp_path, monkeypatch):
        calls = {"mkdir": 0, "unlink": 0}
        path_type = type(tmp_path)
        for name in calls:

            def counting(self, *args, _name=name, _method=getattr(path_type, name), **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(path_type, name, counting)
        root = tmp_path / "store"
        store = ResultStore(root)
        for index in range(5):
            store.put(key(f"chip{index}"), make_outcome(index))
        assert calls["mkdir"] <= 2  # the root and the study's directory
        assert calls["unlink"] == 0
        assert len(store.entry_paths("faults-demo")) == 5
        assert tmp_litter(root) == []
        # A put into another study creates that study's directory.
        other = key("chip0", study="faults-other")
        store.put(other, make_outcome(5, study="faults-other"))
        assert ResultStore(root).get(other).payload == 5


class TestNoFcntlFallback:
    def test_put_without_fcntl_is_still_atomic_and_readable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "fcntl", None)
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put(key("nolock"), make_outcome({"x": 7}))
        assert tmp_litter(root) == []
        # No advisory lock file is created when fcntl is unavailable.
        assert not (root / ResultStore.LOCK_FILENAME).exists()
        cached = ResultStore(root).get(key("nolock"))
        assert cached is not None and cached.payload == {"x": 7}

    def test_failed_write_without_fcntl_cleans_up(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "fcntl", None)
        root = tmp_path / "store"
        store = ResultStore(root)
        break_temp_file_writes(monkeypatch, root)
        with pytest.raises(OSError, match="No space left"):
            store.put(key("bad"), make_outcome(4))
        assert tmp_litter(root) == []
