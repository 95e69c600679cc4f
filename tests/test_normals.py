"""The classifier's normals: one stream on the helper and the local path.

``ClassifierNormals`` may draw ahead in a forked helper process or locally;
either way its values are the stream of ``SeedSequence([seed, 2])`` in
order, so a run's outputs do not depend on which path served them.  These
tests force each path, compare them value for value and output byte for
output byte, and check the helper's lifetime: it starts only at the first
non-empty draw, never inside ``replicate()`` or other process-pool workers
or under a cgroup CPU quota below two CPUs (read from a fake cgroup tree),
and never outlives the run that started it, even when it dies first.
"""

import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import GOLDEN, SEEDS, SIZES, output_hashes
from trustcloudsim import normals, protocol
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.engine import replicate, run_simulation
from trustcloudsim.errors import NormalsHelperError
from trustcloudsim.normals import ClassifierNormals

#: a small scenario whose classifier first draws in round 61
SHORT = dict(device_count=30, area_width=70.0, area_height=70.0,
             malicious_fraction=0.2, max_rounds=100, rounds_per_cycle=20)


def reference_stream(seed: int, total: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence([seed, 2])).standard_normal(total)


@contextmanager
def helper(allowed=None):
    """Count the helpers started; force the path on or off unless None."""
    started = []
    start = ClassifierNormals._start

    def counting(self):
        start(self)
        started.append(self.pid)

    with mock.patch.object(ClassifierNormals, "_start", counting):
        if allowed is None:
            yield started
        else:
            with mock.patch.object(normals, "helper_allowed", lambda: allowed):
                yield started


@contextmanager
def watchdog(seconds: int):
    """Fail the test instead of hanging it: raise after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def gone(pid: int) -> bool:
    """No process ``pid`` is left as a child of this one, live or unreaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return True
    state, ppid = stat[0], int(stat[1])
    return ppid != os.getpid() and state in ("Z", "X")


shapes = st.lists(
    st.lists(st.integers(0, 12), min_size=0, max_size=3).map(tuple),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), requests=shapes,
       chunk=st.sampled_from([4, 7, 16]), slots=st.sampled_from([2, 3, 4]))
def test_helper_serves_the_stream_in_order_across_chunks(seed, requests, chunk, slots):
    with mock.patch.object(normals, "CHUNK", chunk), \
            mock.patch.object(normals, "SLOTS", slots), helper(True) as started:
        with ClassifierNormals(seed) as source:
            drawn = [source.standard_normal(shape) for shape in requests]
            pid = source.pid
    assert [d.shape for d in drawn] == requests
    total = sum(d.size for d in drawn)
    assert len(started) == (total > 0)
    flat = np.concatenate([d.ravel() for d in drawn])
    assert flat.tolist() == reference_stream(seed, total).tolist()
    if pid is not None:
        assert gone(pid)


def test_helper_wraps_the_full_size_ring():
    sizes = [(3, 997, 50), (1,), (normals.CHUNK,), (2, normals.CHUNK + 5)]
    sizes *= normals.SLOTS
    with helper(True) as started, ClassifierNormals(7) as source:
        drawn = [source.standard_normal(shape) for shape in sizes]
    assert len(started) == 1
    total = sum(d.size for d in drawn)
    assert total > 2 * normals.SLOTS * normals.CHUNK
    flat = np.concatenate([d.ravel() for d in drawn])
    assert np.array_equal(flat, reference_stream(7, total))


@pytest.mark.parametrize("size", sorted(SIZES))
def test_golden_outputs_match_on_both_paths(size, tmp_path):
    for seed in SEEDS:
        with helper(True) as started:
            ahead = output_hashes(size, seed, tmp_path)
        assert len(started) == 1
        with helper(False) as started:
            local = output_hashes(size, seed, tmp_path)
        assert started == []
        assert ahead == local == GOLDEN[(size, seed)]


def test_killed_helper_fails_the_run_and_leaves_no_process():
    calls = []

    def killing(state, stds, observers, targets, source, **kwargs):
        if source.pid is not None or calls:
            calls.append(source.pid)
        if len(calls) == 3:
            os.kill(source.pid, signal.SIGKILL)
        return classify_pairs(state, stds, observers, targets, source, **kwargs)

    classify_pairs = protocol.classify_pairs
    cfg = ScenarioConfig(**{**SHORT, "max_rounds": 400}, seed=5)
    with watchdog(60), helper(True) as started, \
            mock.patch.object(protocol, "classify_pairs", killing), \
            pytest.raises(NormalsHelperError):
        run_simulation(cfg)
    assert len(started) == 1 and len(calls) > 3
    assert gone(started[0])


def test_helper_is_reaped_after_a_run():
    with helper(True) as started:
        run_simulation(ScenarioConfig(**SHORT, seed=3))
    assert len(started) == 1
    assert gone(started[0])


def test_helper_exits_when_its_parent_dies():
    read, write = os.pipe()
    middle = os.fork()
    if middle == 0:
        try:
            os.close(read)
            with mock.patch.object(normals, "helper_allowed", lambda: True):
                source = ClassifierNormals(1)
                source.standard_normal(3)
                os.write(write, str(source.pid).encode())
        finally:
            os._exit(0)
    os.close(write)
    pid = int(os.read(read, 64))
    os.close(read)
    os.waitpid(middle, 0)
    deadline = time.monotonic() + 10.0
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gone(pid)


def test_a_run_leaves_no_descriptor_or_mapping():
    """The shared ring's file and its mapping are released with the helper."""
    def ring_maps():
        return [line for line in Path("/proc/self/maps").read_text().splitlines()
                if "classifier-normals" in line]

    fds = set(os.listdir("/proc/self/fd"))
    with helper(True) as started:
        run_simulation(ScenarioConfig(**SHORT, seed=3))
    assert len(started) == 1
    assert set(os.listdir("/proc/self/fd")) <= fds
    assert ring_maps() == []


def test_runs_that_never_classify_fork_no_helper():
    with helper(True) as started:
        log = run_simulation(ScenarioConfig(**{**SHORT, "max_rounds": 1}, seed=3))
    assert log.rounds_completed == 1
    assert started == []


def test_replicate_workers_fork_no_helper():
    def forbidden(self):
        raise AssertionError("a replicate() worker forked a helper")

    cfg = ScenarioConfig(**SHORT, seed=3)
    with mock.patch.object(ClassifierNormals, "_start", forbidden):
        summary = replicate(cfg, 2, workers=2)
    assert summary.n_runs == 2


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_draw_locally(method):
    """Any multiprocessing worker draws in-process, not only replicate()'s."""
    with multiprocessing.get_context(method).Pool(1) as pool:
        assert pool.apply(normals.helper_allowed) is False


def test_forks_only_with_a_spare_cpu():
    """The default choice: a helper exactly where a second CPU is free."""
    with helper() as started:
        run_simulation(ScenarioConfig(**SHORT, seed=3))
    quota = normals.cpu_quota()
    spare = (len(os.sched_getaffinity(0)) >= 2 and os.uname().machine == "x86_64"
             and (quota is None or quota >= 2))
    assert len(started) == spare


def fake_cgroups(tmp_path, v1=None, v2=None, parent_v1=None, nested=True):
    """A process's cgroup files under ``tmp_path``, as ``cpu_quota`` reads them.

    ``v1`` is a (cfs_quota_us, cfs_period_us) pair for a cgroup v1 ``cpu``
    hierarchy, ``parent_v1`` the same for its parent cgroup, ``v2`` the text
    of a cgroup v2 ``cpu.max``; None leaves the files out.  Returns the
    directory to pass as ``proc``.
    """
    proc = tmp_path / "proc"
    proc.mkdir()
    group = "/box/run" if nested else "/"
    v1_mount = tmp_path / "sys" / "cpu,cpuacct"
    v2_mount = tmp_path / "sys" / "unified"
    v1_dir = v1_mount / group.strip("/")
    v2_dir = v2_mount / group.strip("/")
    for d in (v1_dir, v2_dir):
        d.mkdir(parents=True)
    if v1 is not None:
        (v1_dir / "cpu.cfs_quota_us").write_text(f"{v1[0]}\n")
        (v1_dir / "cpu.cfs_period_us").write_text(f"{v1[1]}\n")
    if parent_v1 is not None:
        (v1_dir.parent / "cpu.cfs_quota_us").write_text(f"{parent_v1[0]}\n")
        (v1_dir.parent / "cpu.cfs_period_us").write_text(f"{parent_v1[1]}\n")
    if v2 is not None:
        (v2_dir / "cpu.max").write_text(v2 + "\n")
    (proc / "cgroup").write_text(
        f"5:memory:/elsewhere\n3:cpu,cpuacct:{group}\n0::{group}\n"
    )
    (proc / "mountinfo").write_text(
        "24 1 8:1 / / rw,relatime - ext4 /dev/sda1 rw\n"
        f"33 32 0:29 / {v1_mount} rw,relatime - cgroup cgroup rw,cpu,cpuacct\n"
        f"36 32 0:32 / {tmp_path}/sys/memory rw - cgroup cgroup rw,memory\n"
        f"42 32 0:38 / {v2_mount} rw,relatime - cgroup2 cgroup2 rw\n"
    )
    return str(proc)


@pytest.mark.parametrize("files, cpus", [
    (dict(), None),
    (dict(v1=(-1, 100000)), None),
    (dict(v1=(150000, 100000)), 1.5),
    (dict(v1=(200000, 100000)), 2.0),
    (dict(v2="max 100000"), None),
    (dict(v2="150000 100000"), 1.5),
    (dict(v2="200000 100000"), 2.0),
    (dict(v1=(-1, 100000), parent_v1=(100000, 100000)), 1.0),
    (dict(v1=(400000, 100000), v2="150000 100000"), 1.5),
    (dict(v1=(150000, 100000), nested=False), 1.5),
])
def test_cpu_quota_reads_cgroup_v1_and_v2(tmp_path, files, cpus):
    assert normals.cpu_quota(fake_cgroups(tmp_path, **files)) == cpus


def test_cpu_quota_without_cgroup_files(tmp_path):
    assert normals.cpu_quota(str(tmp_path)) is None


@pytest.mark.parametrize("files", [
    dict(v1=(150000, 100000)),
    dict(v2="150000 100000"),
    dict(v1=(-1, 100000), parent_v1=(100000, 100000)),
])
def test_no_helper_under_a_quota_below_two_cpus(tmp_path, files):
    assert normals.helper_allowed(fake_cgroups(tmp_path, **files)) is False


@pytest.mark.parametrize("files", [
    dict(v1=(-1, 100000)),
    dict(v1=(200000, 100000)),
    dict(v2="max 100000"),
    dict(v2="200000 100000"),
])
def test_quota_of_two_cpus_or_none_keeps_the_helper(tmp_path, files):
    spare = len(os.sched_getaffinity(0)) >= 2 and os.uname().machine == "x86_64"
    assert normals.helper_allowed(fake_cgroups(tmp_path, **files)) is spare


def test_run_under_a_quota_draws_locally(monkeypatch):
    monkeypatch.setattr(normals, "cpu_quota", lambda proc: 1.5)
    with helper() as started:
        run_simulation(ScenarioConfig(**SHORT, seed=3))
    assert started == []
