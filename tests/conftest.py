import faulthandler
import os
import sys

import pytest

# No test takes more than a few seconds; one that runs this long has hung.
# The watchdog then prints every thread's traceback and ends the run.
TEST_WATCHDOG_S = 300
_stderr_fd = None


def pytest_configure(config):
    # Output capture is suspended while pytest configures, so this is the
    # session's stderr.  During a test fd 2 goes to a capture file, which a
    # process ended by the watchdog never shows.
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def watchdog():
    faulthandler.dump_traceback_later(TEST_WATCHDOG_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
