import json

import pytest

from trustcloudsim.cli import main
from trustcloudsim.config import config_from_dict, load_config
from trustcloudsim.engine import run_simulation

SMALL = """
[scenario]
devices = 30
width_m = 70
height_m = 70
malicious_fraction = 0.2
max_rounds = 80
seed = 42
replications = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SMALL)
    return path


def test_cmd_run_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("manifest.json", "rounds.csv", "cycles.csv", "summary.txt"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 42
    assert manifest["config"]["device_count"] == 30
    assert "rounds.csv" in manifest["outputs"]
    summary = (out / "summary.txt").read_text()
    for label in ("network lifetime", "timely transfer rate", "decision accuracy",
                  "total attacks", "malicious clusters/cycle"):
        assert label in summary
    header = (out / "rounds.csv").read_text().splitlines()[0]
    assert header.startswith("round,bad_prob,alive")


def test_cmd_run_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
    assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    assert (out1 / "cycles.csv").read_bytes() == (out2 / "cycles.csv").read_bytes()


def test_cmd_run_seed_override(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_path), "--out", str(out1)])
    main(["run", "--config", str(config_path), "--out", str(out2), "--seed", "7"])
    assert (out1 / "rounds.csv").read_bytes() != (out2 / "rounds.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["master_seed"] == 7


def test_missing_required_field(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nseed = 1\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "scenario.devices" in capsys.readouterr().err


def test_unknown_field_named(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\ndevices = 10\nwarp_speed = 9\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "scenario.warp_speed" in capsys.readouterr().err


def test_env_var_output_dir(config_path, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("TRUSTCLOUDSIM_OUTDIR", str(target))
    assert main(["run", "--config", str(config_path)]) == 0
    assert (target / "summary.txt").exists()


def test_cmd_sweep(config_path, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(config_path), "--out", str(out),
        "--values", "0.1,0.3", "--replications", "2", "--workers", "1",
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,metric,mean,ci_low,ci_high,runs"
    assert len(lines) == 1 + 2 * 4  # two values x four metrics


def test_cmd_sweep_rejects_empty_values(config_path, tmp_path, capsys):
    code = main([
        "sweep", "--config", str(config_path), "--out", str(tmp_path),
        "--values", ",", "--replications", "2",
    ])
    assert code == 2


@pytest.mark.parametrize(
    "parameter, values, field",
    [
        ("malicious_fraction", "abc", "--values"),
        ("device_count", "1.5", "--values"),
        ("area_side", "10,x", "--values"),
        ("malicious_fraction", "0.1,1.5", "scenario.malicious_fraction"),
        ("area_side", "nan", "area_width"),
        ("area_side", "70,inf", "area_width"),
        # valid values, too few replications to compute an interval
        ("malicious_fraction", "0.1", "--replications"),
    ],
)
def test_cmd_sweep_rejects_bad_values(config_path, tmp_path, capsys,
                                      parameter, values, field):
    replications = "1" if field == "--replications" else "2"
    code = main([
        "sweep", "--config", str(config_path), "--out", str(tmp_path),
        "--parameter", parameter, "--values", values,
        "--replications", replications,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "section, line, key",
    [
        ("protocol", "neighbor_radius_m = -3", "protocol.neighbor_radius_m"),
        ("energy", "initial_j = -1", "energy.initial_j"),
        ("protocol", "neighbor_radius_m = nan", "protocol.neighbor_radius_m"),
        ("scenario", "generic_share = nan", "scenario.generic_share"),
        ("scenario", "sink_y_m = inf", "scenario.sink_y_m"),
        ("trust", "alpha = 1.5\nbeta = -0.5", "trust.alpha"),
        ("trust", "alpha = -0.5\nbeta = 1.5", "trust.alpha"),
    ],
)
def test_cmd_run_config_error_names_the_file_key(tmp_path, capsys, section, line, key):
    path = tmp_path / "bad.ini"
    # SMALL ends inside its [scenario] section
    header = "" if section == "scenario" else f"\n[{section}]\n"
    path.write_text(SMALL + header + f"{line}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("key", ["width_m", "height_m"])
def test_cmd_run_config_error_names_each_area_side(tmp_path, capsys, key):
    path = tmp_path / "bad.ini"
    path.write_text(SMALL.replace(f"{key} = 70", f"{key} = -5"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: scenario.{key}: ")


@pytest.mark.parametrize(
    "command, text, argv, key",
    [
        ("run", SMALL, ["--seed", "-1"], "scenario.seed"),
        ("train-only", SMALL.replace("seed = 42", "seed = -5"), [], "scenario.seed"),
        ("run", SMALL + "\n[trust]\nkappa = -3\n", [], "trust.kappa"),
    ],
    ids=["run_seed", "train_only_seed", "run_kappa"],
)
def test_negative_seed_and_kappa_are_config_errors(tmp_path, capsys, command, text,
                                                   argv, key):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {key}: must be at least 0\n"
    assert not (out / "manifest.json").exists()


def test_manifest_config_round_trip(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rebuilt = config_from_dict(manifest["config"])
    loaded = load_config(str(config_path))
    assert rebuilt.as_dict() == loaded.as_dict()
    assert run_simulation(rebuilt).round_stats == run_simulation(loaded).round_stats


def test_cmd_sweep_device_count(config_path, tmp_path):
    out = tmp_path / "sweep2"
    code = main([
        "sweep", "--config", str(config_path), "--out", str(out),
        "--parameter", "device_count", "--values", "20,30",
        "--replications", "2", "--workers", "1",
    ])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[0] == "device_count" for r in rows)


def test_cmd_train_only(config_path, tmp_path):
    out = tmp_path / "train"
    assert main(["train-only", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "training.csv").read_text().splitlines()
    assert lines[0].startswith("device,rounds_used,boundary_ok,forced")
    assert len(lines) == 1 + 30
    ok = sum(int(line.split(",")[2]) for line in lines[1:])
    assert ok >= 0.95 * 30


def test_cmd_train_only_forced_when_no_rounds(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL + "\n[training]\nmax_tr = 0\n")
    out = tmp_path / "train0"
    assert main(["train-only", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "training.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[3] == "1" for line in lines)
