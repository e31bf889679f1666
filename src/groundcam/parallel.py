"""Work over a list of lines, cut into contiguous parts run on separate CPUs.

localize and evaluate import this module inside their handlers, so no other
command compiles it. Each part is pinned to its own CPU: unpinned, a forked
child often stays on its parent's CPU, and the two parts then take turns.
"""

from __future__ import annotations

import marshal
import os
import sys

from .files import INVALID_INPUT


def _cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order; none where it
    cannot fork or cannot tell (os.sched_getaffinity is Linux's)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _child(r: int, w: int, work, part: list[str], first: int, cpu: int) -> None:
    """In a forked child: pin to cpu, then send marshal.dumps of
    work(part, first) through w, or for an error main reports as invalid
    input its message, or for any other its traceback. Leaves through
    os._exit, with 0, 2 or 1 as main would, once the whole payload is
    written, and with 1 otherwise."""
    code = 1
    try:
        # With the parent's read end the only one left, a write fails instead
        # of blocking should the parent be gone.
        os.close(r)
        os.sched_setaffinity(0, {cpu})
        try:
            payload, status = marshal.dumps(work(part, first)), 0
        except INVALID_INPUT as exc:
            payload, status = marshal.dumps(str(exc)), 2
        except Exception:
            import traceback

            payload, status = marshal.dumps(traceback.format_exc()), 1
        with open(w, "wb") as f:
            f.write(payload)
        code = status
    finally:
        os._exit(code)


def _fork(work, part: list[str], first: int, cpu: int) -> tuple[int, int]:
    """Start _child on part; return its pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _child(r, w, work, part, first, cpu)
    os.close(w)
    return pid, r


def split(work, lines: list[str], first: int = 1) -> list:
    """work(part, number of its first line) over contiguous parts of lines,
    whose first is line number first, one per CPU this process may use, in
    line order.

    Part i runs pinned to the i-th of those CPUs: part 0 here, with this
    process's mask restored afterwards, and every other part in a forked
    child. The result does not depend on the count as long as work's does
    not depend on where lines are cut. A child's failure is raised here in
    line order: as a ValueError with the message of an error main reports
    as invalid input, as a RuntimeError with the child's traceback
    otherwise. Every child is reaped before this returns or raises.
    """
    cpus = _cpus()
    count = max(1, min(len(cpus), len(lines)))
    bounds = [len(lines) * i // count for i in range(count + 1)]
    # Nothing may sit in these buffers when a child copies them.
    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, int]] = []
    statuses = []
    try:
        for i in range(1, count):
            part = lines[bounds[i]:bounds[i + 1]]
            children.append(_fork(work, part, first + bounds[i], cpus[i]))
        if children:
            os.sched_setaffinity(0, {cpus[0]})
        try:
            results = [work(lines[:bounds[1]], first)]
        finally:
            if children:
                os.sched_setaffinity(0, cpus)
        payloads = []
        for _, r in children:
            with open(r, "rb", closefd=False) as f:
                payloads.append(f.read())
    finally:
        # Closing the read ends first frees a child blocked on a full pipe.
        for _, r in children:
            os.close(r)
        for pid, _ in children:
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for i, payload, code in zip(range(1, count), payloads, statuses):
        if code == 0:
            results.append(marshal.loads(payload))
        elif code == 2:
            raise ValueError(marshal.loads(payload))
        else:
            detail = marshal.loads(payload) if payload else ""
            raise RuntimeError(
                f"the worker on lines {first + bounds[i]}-{first + bounds[i + 1] - 1} "
                f"exited with {code}\n{detail}".rstrip()
            )
    return results
