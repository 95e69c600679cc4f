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
each chunk out with ``preadv``, so the ring's 8 MiB count in the helper's
memory and not again in the run's.  Each side writes one counter only,
after it is done with the chunk the counter covers.  x86-64 keeps stores in
program order and lets no load pass a later store, so neither counter runs
ahead of the data it covers; on other machines the helper is not used.

The helper draws exactly what a local draw would, so its presence never
changes an output.  It is started where

- the process may fork (``os.fork``) and create the file, has two or more
  CPUs in its affinity mask and runs on x86-64 (see above);
- its cgroup sets no CPU quota, or one of at least two whole CPUs
  (``cpu_quota``: cgroup v2 ``cpu.max``, v1 ``cpu.cfs_quota_us`` over
  ``cpu.cfs_period_us``, the smallest along the cgroup's ancestors);
- the process is not a ``multiprocessing`` child, such as a worker of
  ``engine.replicate``, whose workers already fill the CPUs.

Elsewhere the same object draws locally from the same generator.  Other
busy processes do not show: beside other runs that fill the CPUs, the
helper still starts and takes its share of the CPU time (see the README).
After the fork the helper runs only its generator and ``os`` calls, so no lock
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
from pathlib import Path

import numpy as np

from .errors import NormalsHelperError

#: doubles per chunk and chunks in the ring (8 MiB of doubles)
CHUNK = 65_536
SLOTS = 16
#: seconds either side sleeps while the ring is empty (run) or full (helper)
POLL_S = 100e-6
#: the two counters sit a cache line apart on the first page, the ring
#: after it
_LINE = 64
_PAGE = mmap.PAGESIZE


def helper_allowed(proc: str = "/proc/self") -> bool:
    """Whether this process may draw the normals ahead in a helper.

    ``proc`` is where the process's ``cgroup`` and ``mountinfo`` files are
    read from (see ``cpu_quota``).
    """
    # Every multiprocessing child has the module loaded, so a process
    # without it is no child; looking it up spares the run its import.
    mp = sys.modules.get("multiprocessing")
    if not (
        (mp is None or mp.parent_process() is None)
        and hasattr(os, "fork")
        and hasattr(os, "memfd_create")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and os.uname().machine == "x86_64"
    ):
        return False
    quota = cpu_quota(proc)
    return quota is None or quota >= 2.0


def cpu_quota(proc: str = "/proc/self") -> float | None:
    """The CPUs a process's cgroups let it use, or None without a quota.

    The process's cgroups are read from ``proc``/cgroup and their
    directories found through the cgroup mounts in ``proc``/mountinfo: the
    v2 hierarchy, whose ``cpu.max`` holds "max" or a quota, then the
    period, and the v1 hierarchy of the ``cpu`` controller, whose
    ``cpu.cfs_quota_us`` (-1 for none) is divided by ``cpu.cfs_period_us``.
    A quota on an ancestor caps the cgroups below it, so the smallest one
    from the process's cgroup up to the mount counts.  Files that cannot be
    read or parsed count as no quota.
    """
    try:
        lines = Path(proc, "cgroup").read_text().splitlines()
        mounts = Path(proc, "mountinfo").read_text().splitlines()
    except OSError:
        return None
    # "hierarchy:controllers:path"; v2 is hierarchy 0
    groups = [g for g in (line.split(":", 2) for line in lines) if len(g) == 3]
    paths = {
        True: [path for hierarchy, _, path in groups if hierarchy == "0"],
        False: [path for _, ctl, path in groups if "cpu" in ctl.split(",")],
    }
    quotas = []
    for line in mounts:
        fields, _, fs = line.partition(" - ")
        fields, fs = fields.split(), fs.split()
        if len(fields) < 5 or len(fs) < 3:
            continue
        if fs[0] == "cgroup2":
            v2 = True
        elif fs[0] == "cgroup" and "cpu" in fs[2].split(","):
            v2 = False
        else:
            continue
        root, top = fields[3].rstrip("/"), Path(fields[4])
        for path in paths[v2]:
            # the cgroup's directory below the mount; one outside the
            # mounted subtree reads the mount's own files
            rel = path[len(root):] if path.startswith(root + "/") else ""
            where = top / rel.strip("/")
            for d in (where, *where.parents):
                quotas.append(_quota_in(d, v2))
                if d == top:
                    break
    quotas = [q for q in quotas if q is not None]
    return min(quotas) if quotas else None


def _quota_in(where: Path, v2: bool) -> float | None:
    """The CPU quota one cgroup directory sets, in CPUs, or None."""
    try:
        if v2:
            quota, period = (where / "cpu.max").read_text().split()
            return None if quota == "max" else int(quota) / int(period)
        quota = int((where / "cpu.cfs_quota_us").read_text())
        if quota < 0:
            return None
        return quota / int((where / "cpu.cfs_period_us").read_text())
    except (OSError, ValueError):
        return None


class ClassifierNormals:
    """``standard_normal(shape)`` from ``SeedSequence([seed, 2])``, in order.

    Close it (or use it as a context manager) to stop its helper, if it
    started one.
    """

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        #: whether the first non-empty draw still has to choose the path
        self._ahead = True
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
            if helper_allowed():
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
