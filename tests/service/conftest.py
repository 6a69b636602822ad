"""Fail any service test during which asyncio logged an ERROR.

asyncio reports an exception that escapes a connection handler, and a task
destroyed while still pending, only through its logger; neither fails the
test that caused it on its own.  The collection before the check lets a
task that is already unreachable report itself during its own test.
"""

from __future__ import annotations

import gc
import logging

import pytest


class _ErrorRecords(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    errors = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(errors)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(errors)
    if errors.records:
        pytest.fail(
            "asyncio logged an error:\n"
            + "\n".join(errors.format(record) for record in errors.records),
            pytrace=False,
        )
