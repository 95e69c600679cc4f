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
        'rounds.csv': '41ce607ec241ba07e3319829b58efd89296073c2ae929b6c45964d23167a447d',
        'cycles.csv': '3d224ba77a48b13aacf13e303e555b1850c7b7d63f4bdaf0602c971535e2c5a6',
        'summary.txt': 'ffa133f8f2c8e77084f9cfcbe29bcf0418125682726eee4ffdcb6c47bb5dbb3e',
    },
    ('small', 2): {
        'rounds.csv': '52cba695c15e4d1a608a7b6e4b7e3cf4dd6f2da01fbf46e0415b75ac599540e4',
        'cycles.csv': 'e08789fffaa3550234bb9bf3c2a540294f8b25f72af44656dbe1c529c1cf21fa',
        'summary.txt': '19103e8aa7cd3d476bbfea906ca9eff8a9ff8ad7090fb6a87c5be161ad8d3c7e',
    },
    ('small', 3): {
        'rounds.csv': 'fcfb4579e1ad8bd8c1d8a1edf82bd73db173c00480b8c3c7fcee5b63ff53f45f',
        'cycles.csv': '76e0f3f9316f73a15a864929693d985a84947e1e97b6af6d3102078111436e21',
        'summary.txt': '2a4c39553e7581d7b78babdcb328931ebdcef58f48bb0deb385399c803ce4276',
    },
    ('tiny', 1): {
        'rounds.csv': 'b65abb6492aa8454bb66c70a7eac29a9ecf7a955e54d731cff71d6fe9919a221',
        'cycles.csv': '0441d541e94a85b1529e65db8266e2e6a1a15f72c35fea8f962160a50ad89c6d',
        'summary.txt': '2f2b27d49c8f59c8503f2d5a8ca6cce6c0ff51820f074a5e0c95a5f3602756a0',
    },
    ('tiny', 2): {
        'rounds.csv': 'f1308900308a9a66c5c0c552f41efbf6afc2824a36bdb14aff6d1063511bf9dc',
        'cycles.csv': '5c392ed769772fe37f9a2eb2d08a5cce93985c708b24c2f82c00c0eccb7b0308',
        'summary.txt': '4df9b4ce31f0d368df79269037bac824969541f7de29ee3632b4b5206ddc6c0a',
    },
    ('tiny', 3): {
        'rounds.csv': 'bb35d1abfe98d6073484d4974b0c5e326246e2d4e473fc08e6f67315d1c0c1f1',
        'cycles.csv': '51a98694d374390082fcb2e80ddd5b5d28d922180077b768de54c56537730440',
        'summary.txt': '673742005e198b5c4d1e4de1b744980ef861d23629c568a0e2d9bcad046e0cb2',
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
