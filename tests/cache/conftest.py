"""Fixtures for the cache tests."""

import sys
import threading

import pytest


@pytest.fixture
def run_threads():
    """``run(worker, n=4)``: run *worker* on *n* threads at once under a
    short switch interval (more threads than cores, frequent switches),
    join each with a timeout, and return the exceptions they raised."""

    def run(worker, n=4):
        errors = []

        def guarded():
            try:
                worker()
            except Exception as exc:  # noqa: BLE001 - returned to the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=guarded) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return errors

    return run
