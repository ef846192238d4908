"""An ordered map over a fixed set of forked worker processes.

ordered_map(fn, items) returns [fn(item) for item in items]. k = min(usable
CPUs, items) workers are forked (the platform's default start method where
fork does not exist) before the first call. Worker j computes items j,
j + k, j + 2k, ... in that order, so which items share a worker depends on k
alone, never on timing. Above 2 CPUs these fixed shares are less even than
handing out items as workers free up; README.md gives the cost for the
verify suite.
"""

from __future__ import annotations

import os
import pickle


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work(fn, share, conn, parent_ends) -> None:
    """Worker side of ordered_map: compute fn(item) for the items of this
    worker's fixed share in order, and send each result over conn as soon
    as it is known, or the exception the call raised (pickled) with its
    traceback as text.

    parent_ends are the parent's read ends of this worker's pipe and of those
    started before it, which a forked worker holds copies of. They are closed
    first, so that once the parent is gone nothing reads the pipe and the
    next send fails instead of filling it.
    """
    for end in parent_ends:
        end.close()
    for item in share:
        try:
            conn.send((fn(item), None))
        except Exception as exc:
            import traceback
            conn.send((pickle.dumps(exc), traceback.format_exc()))
    conn.close()


def _name(item) -> str:
    return getattr(item, "__name__", None) or repr(item)


def _answer(conn, item, proc):
    """The result the worker proc sent over conn for item; raise instead if
    the call raised or the worker died first."""
    try:
        payload, tb = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"item {_name(item)}: its worker exited with code "
            f"{proc.exitcode} before sending a result") from None
    if tb is None:
        return payload
    try:
        exc = pickle.loads(payload)
    except Exception as err:
        raise RuntimeError(
            f"item {_name(item)} raised an exception that cannot be "
            f"rebuilt here; in the worker:\n{tb}") from err
    raise exc from Exception(f"in the worker:\n{tb}")


def ordered_map(fn, items) -> list:
    """[fn(item) for item in the sequence items], by the workers above.

    A call that raises re-raises the same exception here, or RuntimeError
    with the worker's traceback where the exception cannot be rebuilt; a
    worker that exits before sending a result raises RuntimeError. Both
    RuntimeErrors name the item: its __name__, else its repr. Every worker
    has exited when this returns or raises.
    """
    # imported here, so that callers that never map do not pay for it
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    n = len(items)
    k = min(_usable_cpus(), n)
    results = [None] * n
    workers = {}  # the parent's end of each worker's pipe -> the worker
    try:
        for j in range(k):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(
                fn, items[j::k], child_conn, [*workers, conn]))
            proc.start()
            workers[conn] = proc
            child_conn.close()  # the worker's death now reads as EOF
        # a worker's results wait in its pipe until their turn here
        for j, (conn, proc) in enumerate(workers.items()):
            for i in range(j, n, k):
                results[i] = _answer(conn, items[i], proc)
    except BaseException:
        for proc in workers.values():
            proc.terminate()
        raise
    finally:
        for conn, proc in workers.items():
            proc.join()
            conn.close()
    return results
