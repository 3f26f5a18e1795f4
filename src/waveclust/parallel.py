"""One way to spread a loop of independent jobs over the usable CPUs.

Both of the package's long loops -- the subset search's k-means runs and
a dissimilarity matrix's rows -- map a pure function over a list whose
results depend only on the item. ``split_map`` runs such a map in the
calling process, or splits it over forked children: with ``w`` workers
the caller computes ``items[0::w]`` itself while ``w - 1`` daemonic
children compute ``items[i::w]`` for ``i = 1..w-1``, each sending its
list back over its own one-way pipe, and the shares are interleaved
back into item order. The result is the same list either way, so a
caller that reduces it in order gets the same bits for any worker count.

Each caller decides when a split pays (a break-even measured for its
own jobs) and how many workers it may use; ``split_map`` adds the
limits every split shares: one worker per usable CPU and per item, and
forking only when it is safe. :mod:`multiprocessing` is imported only
when a split runs.
"""

import os
import threading
from contextlib import ExitStack


def usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_share(job, share, sender):
    """A forked child's work: send ``(True, results)`` of its share of the
    items, or ``(False, (exception, traceback text))`` if a job raised,
    to the caller."""
    try:
        message = (True, list(map(job, share)))
    except Exception as exc:
        import traceback
        message = (False, (exc, traceback.format_exc()))
    sender.send(message)


def _receive(receiver):
    """A child's results, or the exception its share raised, re-raised
    here with its own type and caused by the child's traceback. A child
    that died before sending closes its end of the pipe, so the read
    raises instead of waiting."""
    try:
        ok, value = receiver.recv()
    except EOFError:
        raise RuntimeError("a worker process exited before sending its "
                           "results") from None
    if not ok:
        error, trace = value
        raise error from RuntimeError(f"in a worker process:\n{trace}")
    return value


def _stop(child):
    child.terminate()
    child.join()
    child.close()


def split_map(job, items, workers):
    """``job`` of every item of the sequence ``items``, as a list in item
    order, split over at most ``workers`` processes (the caller's
    included).

    The split also uses at most one worker per usable CPU and one per
    item, and is made only when forking is safe: the platform offers
    ``"fork"``, the caller is not a daemonic process (which cannot have
    children), and no other thread is alive to be copied mid-operation.
    Otherwise, or with one worker, the items are mapped here, one after
    another. A child's exception is re-raised here with its own type and
    the child's traceback as its cause, a child that dies makes the map
    raise ``RuntimeError``, and on every exit each child is terminated
    and joined. Children are forked, not spawned: a spawned child would
    import NumPy and this package again, which costs more than most
    loops, and a forked one reads the job and its data from the memory
    it shares with the caller, unpickled; only the results are pickled.
    """
    workers = min(workers, usable_cpus(), len(items))
    if workers < 2:
        return list(map(job, items))
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() != 1):
        return list(map(job, items))
    context = multiprocessing.get_context("fork")
    receivers = []
    with ExitStack() as stack:
        for offset in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            stack.callback(receiver.close)
            # The caller closes its copy of the sending end at once, so
            # the read sees end-of-file when the child dies, and no later
            # child inherits it.
            with sender:
                child = context.Process(
                    target=_run_share,
                    args=(job, items[offset::workers], sender), daemon=True)
                child.start()
            stack.callback(_stop, child)
            receivers.append(receiver)
        shares = [list(map(job, items[::workers]))]
        shares += [_receive(receiver) for receiver in receivers]
    results = [None] * len(items)
    for offset, share in enumerate(shares):
        results[offset::workers] = share
    return results
