"""One way to spread a loop of independent jobs over the usable CPUs.

Both of the package's long loops -- the subset search's k-means runs and
a dissimilarity matrix's rows -- map a pure function over a list whose
results depend only on the item. ``split_map`` runs such a map in the
calling process, or splits it over forked children: with ``w`` workers
the caller computes ``items[0::w]`` itself while ``w - 1`` children
compute ``items[i::w]`` for ``i = 1..w-1``, each writing its list back,
pickled, over its own ``os.pipe``, and the shares are interleaved back
into item order. The result is the same list either way, so a caller
that reduces it in order gets the same bits for any worker count.

Each caller decides when a split pays (a break-even measured for its
own jobs) and how many workers it may use; ``split_map`` adds the
limits every split shares: one worker per usable CPU and per item, and
forking only when it is safe, with ``os.fork`` and ``os.pipe`` alone.

Wall time alone cannot say whether a split paid: on a machine whose
second CPU comes and goes, two balanced shares can take twice their
CPU time. So each split that forks leaves a :class:`SplitRecord` in
``last_split``, with its wall time beside the CPU time of every share.
"""

import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SplitRecord:
    """What one split that forked took.

    ``shares`` holds the items per share, the caller's first;
    ``wall_s`` the wall time from the first fork until every child was
    reaped; ``caller_cpu_s`` the caller's ``time.process_time()`` over
    its own share; and ``child_cpu_s`` each child's user plus system
    seconds, as ``os.wait4`` reports them when it reaps the child.
    """

    workers: int
    shares: tuple
    wall_s: float
    caller_cpu_s: float
    child_cpu_s: tuple


#: The record of the last split this process forked for, or None. A
#: split that raised leaves the one before it.
last_split = None


def usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork(job, share):
    """Fork a child for ``job`` of each item of ``share``; return its pid
    and the reading end of its pipe, as a file. The child writes
    ``(True, results)``, or ``(False, (exception, traceback text))`` if a
    job raised, and ends in ``os._exit``, so it never returns into the
    caller's code; one that raises anything else (``SystemExit``,
    ``KeyboardInterrupt``) or cannot pickle its message writes nothing."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        try:
            try:
                message = (True, list(map(job, share)))
            except Exception as exc:
                import traceback
                message = (False, (exc, traceback.format_exc()))
            with open(writer, "wb") as pipe:
                pipe.write(pickle.dumps(message))
        finally:
            os._exit(0)
    # Only the child holds the writing end, so the read sees end-of-file
    # when the child ends, and no later child inherits it.
    os.close(writer)
    return pid, open(reader, "rb")


def _receive(pipe):
    """A child's results, or the exception its share raised, re-raised
    here with its own type and caused by the child's traceback. A child
    that ended before writing its whole message raises ``RuntimeError``."""
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError("a worker process exited before sending its "
                           "results") from None
    if not ok:
        error, trace = value
        raise error from RuntimeError(f"in a worker process:\n{trace}")
    return value


def split_map(job, items, workers):
    """``job`` of every item of the sequence ``items``, as a list in item
    order, split over at most ``workers`` processes (the caller's
    included).

    The split also uses at most one worker per usable CPU and one per
    item, and is made only when forking is safe: the platform has
    ``os.fork`` and no other thread is alive to be copied mid-operation.
    Otherwise, or with one worker, the items are mapped here, one after
    another. A child's exception is re-raised here with its own type and
    the child's traceback as its cause, a child that dies makes the map
    raise ``RuntimeError``, and on every exit each child is killed and
    reaped. A split that forks and returns leaves its
    :class:`SplitRecord` in ``last_split``. Children are forked, not
    spawned: a spawned child would import NumPy and this package again,
    which costs more than most loops, and a forked one reads the job and
    its data from the memory it shares with the caller, unpickled; only
    the results are pickled.
    """
    workers = min(workers, usable_cpus(), len(items))
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return list(map(job, items))
    global last_split
    began = time.perf_counter()
    children, child_cpu = [], []
    try:
        for offset in range(1, workers):
            children.append(_fork(job, items[offset::workers]))
        caller_cpu = time.process_time()
        shares = [list(map(job, items[::workers]))]
        caller_cpu = time.process_time() - caller_cpu
        shares += [_receive(pipe) for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            usage = os.wait4(pid, 0)[2]
            child_cpu.append(usage.ru_utime + usage.ru_stime)
    last_split = SplitRecord(
        workers=workers, shares=tuple(len(share) for share in shares),
        wall_s=time.perf_counter() - began, caller_cpu_s=caller_cpu,
        child_cpu_s=tuple(child_cpu))
    results = [None] * len(items)
    for offset, share in enumerate(shares):
        results[offset::workers] = share
    return results
