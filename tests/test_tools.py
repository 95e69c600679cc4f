"""The measuring tools under ``tools/`` still run against the program.

A tool that wraps program functions from outside breaks silently when the
names it wraps move; these tests run it on a small scenario and check what
it reports.
"""

import importlib.util
from pathlib import Path

import pytest

from test_golden import SIZES
from trustcloudsim.config import load_config

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def phase_times():
    return load_tool("phase_times")


def test_phase_times_reports_every_section(phase_times, tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(SIZES["tiny"])
    spent = phase_times.time_sections(load_config(str(ini)))
    sections = {"data phase", "reception", "join classification",
                "post classification", "round loop", "run", "rest",
                *phase_times.SETUP, *phase_times.NESTED}
    phases = [label for label, _ in phase_times.PHASES]
    assert sections | set(phases) <= set(spent)
    # every phase runs in every round, and with the rest they make the loop
    assert all(spent[label] > 0.0 for label in phases)
    assert sum(spent[label] for label in phases) + spent["rest"] == pytest.approx(
        spent["round loop"]
    )
    assert all(v >= 0.0 for v in spent.values())
    for section, parents in phase_times.NESTED.items():
        assert spent[section] <= sum(spent[p] for p in parents)
    assert spent["training"] > 0.0
    # the labeling rounds and the standard clouds are disjoint parts of it
    assert spent["training rounds"] > 0.0 and spent["standard clouds"] > 0.0
    assert spent["training rounds"] + spent["standard clouds"] <= spent["training"]
    assert spent["training"] + spent["round loop"] <= spent["run"]
    timed = sum(v for k, v in spent.items()
                if k not in ("round loop", "run", "rest", *phase_times.SETUP,
                             *phase_times.NESTED))
    assert timed <= spent["round loop"]
