"""Golden outputs: `trustcloudsim run` and `train-only` must reproduce these
files byte for byte.

The determinism contract says (config, seed) fixes every output byte, so a
refactor that claims to keep behaviour keeps these hashes.  A change that
moves the RNG stream or the model on purpose regenerates them with::

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.  ``manifest.json`` is left out: it records the
tool version and config layout rather than simulated output.

The two sizes cover different paths.  ``small`` runs the default trust
parameters long enough for the standard-cloud pools to refresh.  ``tiny``
uses a short window, small pools, a narrow classification margin (so the
margin rules settle rows without sampling) and little energy, so devices die
and the network runs out before the round budget.
"""

import hashlib
import sys

import pytest

from trustcloudsim.cli import main

SIZES = {
    "small": """
[scenario]
devices = 50
width_m = 90
height_m = 90
malicious_fraction = 0.2
rounds_per_cycle = 25
max_rounds = 200
""",
    "tiny": """
[scenario]
devices = 24
width_m = 55
height_m = 55
malicious_fraction = 0.4
rounds_per_cycle = 20
max_rounds = 160

[trust]
thr_drp = 6
kappa = 0.5

[training]
max_drp = 30

[energy]
initial_j = 0.04
""",
}

SEEDS = (1, 2, 3)
FILES = ("rounds.csv", "cycles.csv", "summary.txt")

#: sha256 of `train-only`'s training.csv
TRAINING_GOLDEN = {
    ('small', 1): '831978567c78e717f563f53f6302ae1e535a6b09d62547da2dd0a2b48856a085',
    ('small', 2): '5cd5208004c1c36f749d1dba73586cda5ded396375cdb0226fcc7c890f2e09ce',
    ('small', 3): '7bde56b27c0d08920d6caf2b5188e8863a2e23cd40b278e2246bdfb80f67dbb5',
    ('tiny', 1): 'dc8f9d23fd224056b3a0ba47bda5bf2acfafedc84fb27b697b48a03df2c62ef8',
    ('tiny', 2): 'c2969ab5f4eab25c6586b864318181a1d658c789f4d411514e4dbdcf2e474319',
    ('tiny', 3): '5e430e8b3e92b3d9939197641dd4365ed420343e4e31548592865bbe6882084e',
}

GOLDEN = {
    ('small', 1): {
        'rounds.csv': '84002dfa7f7fac860d96cb03af9f903a6fea9643ca07c15e52cfffa2062e7a80',
        'cycles.csv': 'd2bac5b494c4987b887195bb518139472d4e24c004278596f6d2d5882f3a1f5f',
        'summary.txt': 'd74ac82968db8a5dab2a5b51aebdc0e1b11c0bf147d1909a9e1108d83775ed6c',
    },
    ('small', 2): {
        'rounds.csv': 'e41ebcd2f0d0c7eeb795acd900c3967c62718e58ce5dea08ef5ff350fdf673c5',
        'cycles.csv': 'af4384f03f0c5d9b9983409c8473b72ae4ebdeacc1355093507812471d8c8277',
        'summary.txt': 'd271fa0e3b95815781df8b4ef1ecd3fd58954c990fea7e5740a96614eadc54de',
    },
    ('small', 3): {
        'rounds.csv': '9e0179f4e4c4434cfbb9a11c38717639779382d7aea3e34f1dbc0955c762b716',
        'cycles.csv': '9bc4d1fb74b317d4ad0ac1bab7d08a660111c055e36ba2f3ba9c007e77d102bf',
        'summary.txt': '021318816165cecb5cdbc883e9e3af6caadade0284382e815ba499c035433170',
    },
    ('tiny', 1): {
        'rounds.csv': '1f4d6f8983cd179f8664ecbea764184358046b7c11906b1bc154260d3ff4b3f3',
        'cycles.csv': 'e68aa9c27dc10d7baf54cec74f4006ac6c243bc435f1c4e0af46ccd31b51dd30',
        'summary.txt': 'a3a738aff5a0920ca8630463002d360ca790c045dfa108e891e910899b92ac66',
    },
    ('tiny', 2): {
        'rounds.csv': '51818b59c025ea5bd91e206e9c9e6638f51ec555a73902b459fff359f180ff75',
        'cycles.csv': 'a1155b1eaada8d725fb6378aae51ddc433e3d6ce7b90a2ba88dd507709191914',
        'summary.txt': '4df9b4ce31f0d368df79269037bac824969541f7de29ee3632b4b5206ddc6c0a',
    },
    ('tiny', 3): {
        'rounds.csv': '4080bcccb48d24108ba67c863c3993bd31c62dec3da4f78e93637dbf3336c9e7',
        'cycles.csv': '39a87e9ae4842f7c544d945038c42b571f9c8c3bf6fcbae72a1cea3497bef7e4',
        'summary.txt': '7fe8b902ab932f593899dd4f6b0c974de6cbb1a9ee3b110c8a198ea32cd27167',
    },
}


def output_hashes(size: str, seed: int, workdir, command: str = "run",
                  files=FILES) -> dict[str, str]:
    cfg = workdir / f"{size}.ini"
    cfg.write_text(SIZES[size])
    out = workdir / f"{command}-{size}-{seed}"
    assert main([command, "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in files
    }


def training_hash(size: str, seed: int, workdir) -> str:
    hashes = output_hashes(size, seed, workdir, "train-only", ["training.csv"])
    return hashes["training.csv"]


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("seed", SEEDS)
def test_run_outputs_match_golden_hashes(size, seed, tmp_path, capsys):
    assert output_hashes(size, seed, tmp_path) == GOLDEN[(size, seed)]


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("seed", SEEDS)
def test_train_only_matches_golden_hashes(size, seed, tmp_path, capsys):
    assert training_hash(size, seed, tmp_path) == TRAINING_GOLDEN[(size, seed)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        training, lines = [], []
        for size in sorted(SIZES):
            for seed in SEEDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    hashes = output_hashes(size, seed, Path(tmp))
                    trained = training_hash(size, seed, Path(tmp))
                training.append(f"    ({size!r}, {seed}): {trained!r},")
                lines.append(f"    ({size!r}, {seed}): {{")
                lines += [f"        {n!r}: {h!r}," for n, h in hashes.items()]
                lines.append("    },")
    sys.stdout.write("TRAINING_GOLDEN = {\n" + "\n".join(training) + "\n}\n")
    sys.stdout.write("GOLDEN = {\n" + "\n".join(lines) + "\n}\n")
