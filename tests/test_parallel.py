"""The one split over forked children that the subset search and the
dissimilarity builder share. Its fork-safety gate is tested through the
search, in test_feature_selection.py."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from waveclust import parallel
from waveclust.parallel import split_map


def _square(item):
    return item * item


@pytest.mark.parametrize("cpus", [2, 3])
def test_results_come_back_in_item_order(monkeypatch, forks, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert split_map(_square, range(10), 3) == [i * i for i in range(10)]
    assert forks == ["fork"]


def test_each_worker_takes_every_wth_item(monkeypatch):
    # The caller takes items 0, 3, 6, ...; each child one other offset.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    pids = split_map(lambda item: os.getpid(), range(8), 3)
    assert set(pids[0::3]) == {os.getpid()}
    children = {pids[1], pids[2]}
    assert len(children) == 2 and os.getpid() not in children
    assert set(pids[1::3]) == {pids[1]} and set(pids[2::3]) == {pids[2]}


@pytest.mark.parametrize("workers, cpus, items", [
    (1, 4, 10),  # the caller asks for one
    (4, 1, 10),  # one usable CPU
    (4, 4, 1),   # one item
])
def test_one_worker_forks_nothing(monkeypatch, forks, workers, cpus, items):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert split_map(_square, range(items), workers) == [
        i * i for i in range(items)]
    assert forks == []


def test_a_split_leaves_no_child_and_no_descriptor(monkeypatch, forks):
    """Pipes and processes emit no ResourceWarning when leaked, so the
    split's descriptors are counted directly, and ``waitpid`` finds no
    child, running or exited, of this process."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    fds = Path("/proc/self/fd")
    before = len(list(fds.iterdir())) if fds.is_dir() else None
    split_map(_square, range(10), 3)
    assert forks == ["fork"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert len(list(fds.iterdir())) == before


# Splits ``job`` over eight items and two workers, with ``action`` done
# on the items ``when`` picks (the child's share is items 1, 3, 5, 7),
# and prints the results or what the split raised, whether its cause
# holds a child's traceback, and whether any child or descriptor is
# left. A child that returned into this code would print again.
_PLANTED_SPLIT = """
import os, sys, time
from waveclust import parallel

parallel.usable_cpus = lambda: 2
caller = os.getpid()
descriptors = lambda: len(os.listdir("/proc/self/fd"))
before = descriptors() if os.path.isdir("/proc/self/fd") else None

def job(item):
    in_child = os.getpid() != caller
    if {when}:
        {action}
    return item * item

try:
    print(parallel.split_map(job, range(8), 2))
except BaseException as exc:
    print(type(exc).__name__, exc)
    if exc.__cause__ is not None:
        print("cause holds the child's traceback:",
              'in job' in str(exc.__cause__))
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child left")
if before is not None and descriptors() != before:
    print("descriptors left:", descriptors() - before)
"""


def _planted_split(when, action):
    """The planted split's output, from a fresh interpreter that must
    finish within 60 s. Its process group is killed on a timeout, so no
    forked child outlives a failed test."""
    source_root = str(Path(parallel.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = source_root + os.pathsep + inherited if inherited else source_root
    proc = subprocess.Popen(
        [sys.executable, "-c", _PLANTED_SPLIT.format(when=when,
                                                     action=action)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path}, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    return out.splitlines()


def test_a_childs_exception_reaches_the_caller_with_its_type():
    assert _planted_split(
        "in_child and item == 5", "raise ValueError('planted')") == [
            "ValueError planted", "cause holds the child's traceback: True",
            "no child left"]


def test_a_child_that_dies_makes_the_split_raise():
    # The child computes items 1 and 3, then exits without sending.
    assert _planted_split("in_child and item == 5", "os._exit(3)") == [
        "RuntimeError a worker process exited before sending its results",
        "no child left"]


@pytest.mark.parametrize("action", ["sys.exit(0)", "raise KeyboardInterrupt"])
def test_a_child_that_exits_makes_the_split_raise(action):
    """A child's ``SystemExit`` or ``KeyboardInterrupt`` ends the child
    without a message: it neither returns into the caller's code nor
    reaches the caller as its own exception."""
    assert _planted_split("in_child and item == 5", action) == [
        "RuntimeError a worker process exited before sending its results",
        "no child left"]


def test_a_failing_caller_share_stops_every_child():
    # The child would sleep far past the timeout unless it is ended.
    assert _planted_split(
        "in_child or item == 4",
        "time.sleep(120) if in_child else 1 / 0") == [
            "ZeroDivisionError division by zero", "no child left"]
