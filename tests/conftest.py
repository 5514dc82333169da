"""Suite-wide checks."""

import time

import pytest

from shadowcheck import runtime


@pytest.fixture(autouse=True)
def program_threads_return_to_the_pool():
    """Fail the test that leaves a program thread running.

    Every pooled worker that took a program thread must be idle again
    within 5 s of the test's end.
    """
    yield
    pool = runtime._POOL
    deadline = time.monotonic() + 5.0
    while len(pool.idle) < pool.size:
        if time.monotonic() > deadline:
            busy = pool.size - len(pool.idle)
            pytest.fail(f"{busy} program thread(s) still running 5 s after the test")
        time.sleep(0.01)
