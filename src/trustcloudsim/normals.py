"""The classifier's standard normals, drawn ahead on a spare CPU.

``ClassifierNormals`` serves ``standard_normal(shape)`` from its own
generator, ``SeedSequence([seed, 2])``, in stream order: the values of a
sequence of requests are the first values of one long draw, whatever the
request shapes.  Where the process has a CPU to spare it forks, at the first
non-empty request, a helper process that draws the same stream ahead into a
ring of ``SLOTS`` chunks of ``CHUNK`` doubles in an anonymous shared memory
file (``memfd_create``).  Two counters on the file's first page hand the
chunks over: the helper counts the chunks it has written, the run counts
those it has read, and whichever side finds the ring full or empty sleeps
``POLL_S`` and looks again.  Only the helper maps the ring; the run copies
each chunk out with ``preadv``, so the ring's 2 MiB count in the helper's
memory and not again in the run's.  Each side writes one counter only,
after it is done with the chunk the counter covers.  x86-64 keeps stores in
program order and lets no load pass a later store, so neither counter runs
ahead of the data it covers; on other machines the helper is not used.

The helper draws exactly what a local draw would, so its presence never
changes an output.  It is started where

- the process may fork (``os.fork``) and create the file, has two or more
  CPUs in its affinity mask and runs on x86-64 (see above);
- the process is not a ``multiprocessing`` child, such as a worker of
  ``engine.replicate``, whose workers already fill the CPUs.

Elsewhere the same object draws locally from the same generator.  The
affinity mask does not show a CPU quota or other busy processes: under a
quota of one CPU, or beside other runs that fill the CPUs, the helper
still starts and takes its share of the CPU time (see the README).  After
the fork the helper runs only its generator and ``os`` calls, so no lock
another thread of the run may hold is ever taken in it.  The helper exits
when the run closes the object, and by itself when its parent
dies; a run that finds the helper gone raises ``NormalsHelperError``
instead of waiting for chunks that will never come.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
import time

import numpy as np

from .errors import NormalsHelperError

#: doubles per chunk and chunks in the ring (2 MiB of doubles)
CHUNK = 65_536
SLOTS = 4
#: seconds either side sleeps while the ring is empty (run) or full (helper)
POLL_S = 100e-6
#: the two counters sit a cache line apart on the first page, the ring
#: after it
_LINE = 64
_PAGE = mmap.PAGESIZE


def helper_allowed() -> bool:
    """Whether this process may draw the normals ahead in a helper."""
    # Every multiprocessing child has the module loaded, so a process
    # without it is no child; looking it up spares the run its import.
    mp = sys.modules.get("multiprocessing")
    return (
        (mp is None or mp.parent_process() is None)
        and hasattr(os, "fork")
        and hasattr(os, "memfd_create")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and os.uname().machine == "x86_64"
    )


class ClassifierNormals:
    """``standard_normal(shape)`` from ``SeedSequence([seed, 2])``, in order.

    Close it (or use it as a context manager) to stop its helper, if it
    started one.
    """

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self._ahead = helper_allowed()
        #: the helper's process id while it runs
        self.pid: int | None = None
        # the shared memory file, its first page and the two counters on it,
        # from the moment a helper is started
        self._fd = self._page = self._counts = None
        self._taken = 0  # values read from the ring

    def standard_normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        if out.size == 0:
            return out
        if self._ahead:
            self._ahead = False  # one helper per object, never restarted
            self._start()
        if self._fd is None:
            self._gen.standard_normal(out=out)
        else:
            self._fill(out.reshape(-1))
        return out

    def _start(self) -> None:
        self._fd = os.memfd_create("classifier-normals")
        os.ftruncate(self._fd, _PAGE + SLOTS * CHUNK * 8)
        self._page = mmap.mmap(self._fd, _PAGE)
        # [chunks written by the helper, chunks read by the run]
        self._counts = np.frombuffer(self._page, np.int64)[:: _LINE // 8][:2]
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            self._release()  # no process to spare: draw locally
            return
        if pid == 0:
            try:
                ring = np.frombuffer(mmap.mmap(self._fd, 0), np.float64, offset=_PAGE)
                _produce(self._gen, ring.reshape(SLOTS, CHUNK), self._counts, parent)
            finally:
                os._exit(0)
        self.pid = pid

    def _fill(self, out: np.ndarray) -> None:
        done = 0
        while done < len(out):
            chunk, at = divmod(self._taken, CHUNK)
            while self._counts[0] <= chunk:
                self._wait()
            take = min(CHUNK - at, len(out) - done)
            where = _PAGE + ((chunk % SLOTS) * CHUNK + at) * 8
            os.preadv(self._fd, [out[done : done + take]], where)
            done += take
            self._taken += take
            if at + take == CHUNK:
                self._counts[1] = chunk + 1

    def _wait(self) -> None:
        """Sleep while the helper runs; raise once it has exited."""
        if self.pid is not None:
            try:
                exited = os.waitpid(self.pid, os.WNOHANG)[0] != 0
            except ChildProcessError:
                exited = True
            if not exited:
                time.sleep(POLL_S)
                return
            self.pid = None
        raise NormalsHelperError(
            "the process drawing the classifier's normals ahead exited"
        )

    def close(self) -> None:
        """Stop and reap the helper, if one runs; idempotent.

        A closed object serves no more draws.
        """
        self._gen = None
        pid, self.pid = self.pid, None
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        if self._fd is not None:
            self._release()

    def _release(self) -> None:
        self._counts = None
        self._page.close()
        os.close(self._fd)
        self._fd = self._page = None

    def __enter__(self) -> "ClassifierNormals":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _produce(gen, ring, counts, parent: int) -> None:
    """The helper's loop: fill each free slot in turn until the parent goes."""
    written = 0
    while True:
        while written - counts[1] >= SLOTS:
            if os.getppid() != parent:
                return
            time.sleep(POLL_S)
        gen.standard_normal(out=ring[written % SLOTS])
        written += 1
        counts[0] = written
