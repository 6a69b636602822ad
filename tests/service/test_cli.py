"""``python -m repro.service``: submit and status against a loopback scheduler."""

from __future__ import annotations

import json
import threading

import pytest

from repro.service import SchedulerThread, ServiceWorker
from repro.service.__main__ import main

SELFTEST = ["--study", "service-selftest", "--config-json"]
THREE_UNITS = '{"units": 3, "rounds": 10, "fail_units": []}'


@pytest.fixture
def endpoint():
    """A scheduler with one in-process worker; yields the CLI's endpoint flags."""
    stop = threading.Event()
    with SchedulerThread() as scheduler:
        host, port = scheduler.address
        worker = ServiceWorker(host, port, name="cli-w0", stop_event=stop)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            yield ["--host", host, "--port", str(port)]
        finally:
            stop.set()
            thread.join(timeout=10.0)


def test_submit_then_status(endpoint, capsys):
    assert main(["submit", *endpoint, *SELFTEST, THREE_UNITS]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["study"] == "service-selftest"
    assert (summary["results"], summary["units_total"]) == (1, 3)
    assert (summary["executed"], summary["retries"]) == (3, 0)

    assert main(["status", "--json", *endpoint]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["counters"]["units_completed"] == 3


def test_submit_rejects_a_config_that_is_not_an_object():
    with pytest.raises(SystemExit, match="JSON object"):
        main(["submit", *SELFTEST, "[1]"])


def test_per_chip_study_needs_a_population():
    with pytest.raises(SystemExit, match="--table1-chips"):
        main(["submit", "--study", "fig8-hcfirst"])
