"""The classifier's normals: one stream on the helper and the local path.

``ClassifierNormals`` may draw ahead in a forked helper process or locally;
either way its values are the stream of ``SeedSequence([seed, 2])`` in
order, so a run's outputs do not depend on which path served them.  These
tests force each path, compare them value for value and output byte for
output byte, and check the helper's lifetime: it starts only at the first
non-empty draw, never inside ``replicate()`` or other process-pool workers,
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
    spare = len(os.sched_getaffinity(0)) >= 2 and os.uname().machine == "x86_64"
    assert len(started) == spare
