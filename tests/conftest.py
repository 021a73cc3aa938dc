import faulthandler
import functools
import os
import sys
from itertools import repeat

import pytest

import wfuse.simulate

# No test takes more than a few seconds; one that runs this long has hung.
# The watchdog then prints every thread's traceback and ends the run.
TEST_WATCHDOG_S = 300
# Step budget of every run a batch makes in this process or in a pool worker
# forked from it.  The largest in-process batch, acceptance criterion 08 at
# k = 6 (1000 runs), needs at most 94,744 steps per run (20,417 on average),
# so a kernel that stalls fails within seconds instead of running into the
# watchdog at the default budget of 10**9.  Commands run as subprocesses
# keep the default budget.
BATCH_STEP_BUDGET = 10**6
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


@pytest.fixture(autouse=True)
def batch_step_budget(monkeypatch):
    # _run_range looks up the module-global kernel for every run.  A test
    # that passes its own max_steps, or patches the kernel itself, overrides
    # this.
    kernel = functools.partial(
        wfuse.simulate.run_similar_sizes, max_steps=BATCH_STEP_BUDGET
    )
    monkeypatch.setattr(wfuse.simulate, "run_similar_sizes", kernel)


@pytest.fixture
def constant_runs(monkeypatch):
    """Batch runs that read no draws and all cost 4, ending at size 2.

    A batch then spends its time and memory only on its own plumbing: the
    ranges, the fold and the part callback, whose memory is what could
    grow with the number of runs.
    """
    result = wfuse.simulate.RunResult(4, 2, 2, 1, 1, 0)
    monkeypatch.setattr(wfuse.simulate, "run_similar_sizes", lambda k, draws, **kw: result)
    monkeypatch.setattr(
        wfuse.simulate, "draws_for_range", lambda master, start, stop: repeat(None, stop - start)
    )
