"""Ordered map over forked worker processes.

``fork_map(fn, items)`` returns ``[fn(x) for x in items]``: the same values
in the same order, and on failure the exception that loop would raise
first. Work spreads over one forked worker per usable CPU. Only results
and exceptions cross back, pickled through one pipe per worker; ``fn`` and
the items reach the workers through the fork itself, so closures work and
nothing is pickled on the way in.

A worker always leaves by ``os._exit``: it never returns into the caller's
code and runs no atexit hook and no stdio flush. A worker never starts
workers of its own, so a nested map runs serially. ``fork`` copies only the
calling thread. The workers already use every usable CPU, so each runs
OpenBLAS on one thread: BLAS threads beyond the CPUs spin against each other
and made a forked cascade slower than the serial one.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import signal
import traceback
from typing import Callable, Iterable, TypeVar

__all__ = ["fork_map", "usable_cpus"]

T = TypeVar("T")
R = TypeVar("R")

_HEADER = 8  # little-endian byte length in front of each pickled message
_in_worker = False  # set only in a forked worker, never in the caller


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, computed by up to one forked worker per usable CPU.

    Worker ``w`` of ``W`` runs items ``w, w+W, ...``. The first failing
    item in item order re-raises its own exception; an item whose worker
    died raises a ``RuntimeError`` naming the item and the exit status.
    Runs serially with one usable CPU or one item, inside a worker, and
    where ``os.fork`` does not exist. Every child is reaped before return.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1 or _in_worker or not hasattr(os, "fork"):
        return [fn(x) for x in items]

    blas_thread_setters = _openblas_thread_setters()  # looked up once, before forking
    children = []  # (pid, read end of its pipe)
    finished = False
    try:
        for w in range(workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                code = 1
                try:
                    for set_threads in blas_thread_setters:
                        set_threads(1)
                    _work(fn, items, w, workers, wr)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((pid, r))
        streams = _read_to_eof([r for _, r in children])
        finished = True
    finally:
        for _, r in children:
            os.close(r)
        if not finished:
            for pid, _ in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]

    outcomes = {}
    for stream in streams:
        outcomes.update(_messages(stream))
    results = []
    for i in range(len(items)):
        if i not in outcomes:
            code = statuses[i % workers]
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"fork_map: the worker running item {i} {how} before returning it")
        ok, value, remote_tb = outcomes[i]
        if not ok:
            if remote_tb and hasattr(value, "add_note"):  # Python >= 3.11
                value.add_note(f"raised in a fork_map worker on item {i}:\n{remote_tb}")
            raise value
        results.append(value)
    return results


def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads`` of each OpenBLAS loaded into this process.

    Found through ``/proc/self/maps``, so only on Linux; elsewhere, and for
    other BLAS libraries, the tuple is empty and BLAS keeps its threads.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    setters = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [ctypes.c_int], None
                    setters.append(fn)
    return tuple(setters)


def _work(fn, items, first: int, step: int, fd: int) -> None:
    """Worker body: run items first, first+step, ... and send each outcome.

    Stops after the first exception, since no later item of this worker
    can come first in item order.
    """
    global _in_worker
    _in_worker = True
    with open(fd, "wb") as out:
        for i in range(first, len(items), step):
            try:
                message = (i, True, fn(items[i]), None)
            except Exception as exc:
                message = (i, False, exc, traceback.format_exc())
            try:
                data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                if not message[1]:
                    pickle.loads(data)  # the parent must be able to rebuild the exception
            except Exception as exc:
                what = "result" if message[1] else f"{type(message[2]).__name__} exception"
                err = RuntimeError(f"fork_map: the {what} of item {i} cannot be pickled ({exc!r})")
                message = (i, False, err, "")
                data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            out.write(len(data).to_bytes(_HEADER, "little") + data)
            if not message[1]:
                return


def _read_to_eof(fds: list[int]) -> list[bytes]:
    """Everything written to each pipe, read side by side so no worker stalls on a full pipe."""
    chunks = {fd: [] for fd in fds}
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    open_fds = len(fds)
    while open_fds:
        for fd, _ in poller.poll():
            data = os.read(fd, 1 << 16)
            if data:
                chunks[fd].append(data)
            else:
                poller.unregister(fd)
                open_fds -= 1
    return [b"".join(chunks[fd]) for fd in fds]


def _messages(stream: bytes) -> dict:
    """Item index -> (ok, value, remote traceback); a torn last message is dropped."""
    out = {}
    pos = 0
    while pos + _HEADER <= len(stream):
        end = pos + _HEADER + int.from_bytes(stream[pos : pos + _HEADER], "little")
        if end > len(stream):
            break
        i, ok, value, remote_tb = pickle.loads(stream[pos + _HEADER : end])
        out[i] = (ok, value, remote_tb)
        pos = end
    return out
