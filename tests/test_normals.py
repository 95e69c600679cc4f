"""The classifier's normals: one in-process stream, whatever process runs.

A run draws its classifier normals from a plain Generator on
``SeedSequence([seed, 2])`` in the process that runs it.  These tests check
that the outputs do not depend on where a run happens (this process, a
forked or a spawned pool worker, a ``replicate()`` worker) and that drawing
them starts no process and leaves no file descriptor or mapping behind.
"""

import multiprocessing
import os
from pathlib import Path
from unittest import mock

import pytest

from test_golden import GOLDEN, SEEDS, SIZES, output_hashes
from trustcloudsim import engine
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.engine import replicate, run_metrics, run_simulation

#: a small scenario whose classifier first draws in round 61
SHORT = dict(device_count=30, area_width=70.0, area_height=70.0,
             malicious_fraction=0.2, max_rounds=100, rounds_per_cycle=20)


def forbidden_fork():
    raise AssertionError("a run forked a process")


def short_run_metrics(seed: int) -> dict[str, float]:
    return run_metrics(run_simulation(ScenarioConfig(**SHORT, seed=seed)))


@pytest.mark.parametrize("size", sorted(SIZES))
def test_golden_outputs_match_on_both_paths(size, tmp_path):
    """The goldens hold in this process and in a fresh spawned interpreter."""
    (tmp_path / "here").mkdir()
    (tmp_path / "there").mkdir()
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        for seed in SEEDS:
            here = output_hashes(size, seed, tmp_path / "here")
            there = pool.apply(output_hashes, (size, seed, tmp_path / "there"))
            assert here == there == GOLDEN[(size, seed)]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_draw_locally(method):
    """Any multiprocessing worker draws the same stream, not only replicate()'s."""
    with multiprocessing.get_context(method).Pool(1) as pool:
        assert pool.apply(short_run_metrics, (3,)) == short_run_metrics(3)


def test_a_run_leaves_no_descriptor_or_mapping():
    """A classifying run opens no file or mapping that outlives it."""
    def mapped_files():
        return {line.split(maxsplit=5)[5]
                for line in Path("/proc/self/maps").read_text().splitlines()
                if len(line.split(maxsplit=5)) == 6}

    short_run_metrics(3)  # imports and first-use caches settle here
    fds, maps = set(os.listdir("/proc/self/fd")), mapped_files()
    with mock.patch.object(os, "fork", forbidden_fork):
        log = run_simulation(ScenarioConfig(**SHORT, seed=4))
    assert log.rounds_completed == SHORT["max_rounds"]
    assert set(os.listdir("/proc/self/fd")) <= fds
    assert mapped_files() <= maps


def test_runs_that_never_classify_fork_no_helper():
    with mock.patch.object(os, "fork", forbidden_fork):
        log = run_simulation(ScenarioConfig(**{**SHORT, "max_rounds": 1}, seed=3))
    assert log.rounds_completed == 1


def test_replicate_workers_fork_no_helper(tmp_path):
    """Each replicate() worker runs its replica without forking again."""
    replica = engine._replica_metrics

    def no_fork(cfg, index):
        (tmp_path / f"replica-{index}").touch()
        with mock.patch.object(os, "fork", forbidden_fork):
            return replica(cfg, index)

    cfg = ScenarioConfig(**SHORT, seed=3)
    with mock.patch.object(engine, "_replica_metrics", no_fork):
        summary = replicate(cfg, 2, workers=2)
    assert summary.n_runs == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["replica-0", "replica-1"]
    assert summary == replicate(cfg, 2)
