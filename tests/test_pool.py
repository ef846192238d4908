import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from quadprimes import pool


def _square(x):
    return x * x


def _pid(item):
    return os.getpid()


def _raises(item):
    if item == 1:
        raise ValueError("stub call rejected its input")
    return item


def test_empty_items_start_no_process(monkeypatch):
    def no_start(self):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
    assert pool.ordered_map(_square, []) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_workers_run_several_items_each(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    pids = set(pool.ordered_map(_pid, range(6)))
    assert os.getpid() not in pids and 1 <= len(pids) <= len(cpus)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_worker_runs_a_fixed_round_robin_share(k, monkeypatch):
    """Items i and j run in one worker exactly when i = j (mod k), whatever
    the calls' times; the results come back in item order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)
    assert pool._usable_cpus() == k
    assert pool.ordered_map(_square, range(7)) == [i * i for i in range(7)]
    pids = pool.ordered_map(_pid, range(7))
    for i in range(7):
        for j in range(7):
            assert (pids[i] == pids[j]) == (i % k == j % k), (i, j, pids)


def test_call_exception_reaches_the_caller():
    with pytest.raises(ValueError, match="stub call rejected its input"):
        pool.ordered_map(_raises, [0, 1, 2])
    # the other worker was stopped too
    assert multiprocessing.active_children() == []


class _Bad(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _call(item):
    return item()


def _passing():
    return 0


def _raises_bad():
    raise _Bad(1, 2)


def test_exception_that_cannot_be_rebuilt_names_the_item():
    with pytest.raises(RuntimeError, match="_raises_bad") as info:
        pool.ordered_map(_call, [_passing, _raises_bad])
    assert "_Bad: 1 and 2" in str(info.value)
    assert "raise _Bad(1, 2)" in str(info.value)  # the worker's traceback


# Runs ordered_map(FN, items) for each of ITEMS in a fresh interpreter, and
# prints the RuntimeError of each, then the processes left.
_DYING = """
import multiprocessing
import os
from quadprimes import pool

def _dies():
    os._exit(3)

def _passing():
    return 0

def _call(item):
    return item()

def _dies_at_7(n):
    return _dies() if n == 7 else n

for items in ITEMS:
    try:
        pool.ordered_map(FN, items)
    except RuntimeError as exc:
        print(exc)
    print("left:", multiprocessing.active_children())
"""


def _run_dying(fn, items):
    script = _DYING.replace("FN", fn).replace("ITEMS", items)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dying_worker_raises_instead_of_hanging():
    """A worker dies, after another item or on the first one with others
    still in its share: the map raises, and no worker is left."""
    lines = _run_dying("_call",
                       "((_passing, _dies), (_dies,) + (_passing,) * 4)")
    assert len(lines) == 4, lines
    for died, left in (lines[:2], lines[2:]):
        assert "_dies" in died and "code 3" in died
        assert left == "left: []"


def test_dying_worker_names_an_item_without_name_by_repr():
    lines = _run_dying("_dies_at_7", "([5, 7, 11],)")
    assert lines == [
        "item 7: its worker exited with code 3 before sending a result",
        "left: []"]


def test_workers_exit_when_the_parent_is_killed():
    """A call kills the mapping process: every worker's next send then
    fails on a broken pipe and it exits, instead of filling the pipe. The
    workers hold the script's stdout, so communicate returns only once they
    have all exited."""
    script = textwrap.dedent("""
        import os
        import signal
        from quadprimes import pool

        def _kills_parent(item):
            if item == 1:
                os.kill(os.getppid(), signal.SIGKILL)
            return item

        pool._usable_cpus = lambda: 2
        pool.ordered_map(_kills_parent, range(4))
    """)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers left behind
        proc.communicate()
        raise AssertionError("a worker outlived the killed map") from None
    assert proc.returncode == -signal.SIGKILL
