"""Golden outputs: `trustcloudsim run` must reproduce these files byte for byte.

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

GOLDEN = {
    ('small', 1): {
        'rounds.csv': 'd430d5c10a4761cfd192cad1ab0966d9a93e27c242ccbfdaf743318ab577d7f3',
        'cycles.csv': 'c3fc7e7fca610b4382133f4eafa67bdce190b51b81a6033a368fd0b869925523',
        'summary.txt': '7fdafe7c6ad8095c66034e13afe23498e5ad5fe0ad82e51c8d418b486cd1b08e',
    },
    ('small', 2): {
        'rounds.csv': 'a49f7756c4b9dd5635119baadb38078c69cc2a6e102b2109769f42a90a17f655',
        'cycles.csv': '5d7722e96aa10669a5798934b579986c87712936db51957e0fbcb40f1504064b',
        'summary.txt': 'a12148c3ff5903f048adac338371eaab0536f11b1736190c2efcf2ce5105f5ac',
    },
    ('small', 3): {
        'rounds.csv': '7eec221da31660c65eec06a349d68833e946cb42c807d70c7371fa4fb3cee3a1',
        'cycles.csv': 'fe81276232c967f4ab7b13ee7cb652325a4455682b460f92dfbacaaae202a343',
        'summary.txt': 'a69b0478a9fbaf687f5068358ebc77a702c2ec2a533e472391a6b51dd58f4cdc',
    },
    ('tiny', 1): {
        'rounds.csv': '131e3d25993f7ebf05a496a21bb1aa3815d13496f40d2c976a2aeb6dada7cc4e',
        'cycles.csv': '0cebd209a54632481a490c7e30d90c56605053505d336d8a55e6d01773a2ea34',
        'summary.txt': '80a604fea0c7441e867aa3d5a2abc5da9672d6a43986decd77420d516883f66b',
    },
    ('tiny', 2): {
        'rounds.csv': 'be37f398489abb65f968c4ec9d63370d9b0327dec31903303524ec5bbe233fe4',
        'cycles.csv': 'a1d83d307a254f18508bc8db593298d4aa5bbcb89b70f1bfa1f13b29d64738c9',
        'summary.txt': '046c44120a46100e9fa0fdd28efd39aaf4d17faddf26fac91348820d03fe98a7',
    },
    ('tiny', 3): {
        'rounds.csv': 'a0af8973facccfe9f3651ad87d1856c518574f6256861f41a2f9c3ee55575d02',
        'cycles.csv': 'e1669d1e7ceffda3fe7dd535705e71f8adb529f1948700f30d0f56f0d7de28fb',
        'summary.txt': 'a44532fbe2d8843be3cf30e7dad733965fb01c115dd56a3df450255e16f20dac',
    },
}


def output_hashes(size: str, seed: int, workdir) -> dict[str, str]:
    cfg = workdir / f"{size}.ini"
    cfg.write_text(SIZES[size])
    out = workdir / f"{size}-{seed}"
    assert main(["run", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in FILES
    }


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("seed", SEEDS)
def test_run_outputs_match_golden_hashes(size, seed, tmp_path, capsys):
    assert output_hashes(size, seed, tmp_path) == GOLDEN[(size, seed)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        lines = []
        for size in sorted(SIZES):
            for seed in SEEDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    hashes = output_hashes(size, seed, Path(tmp))
                lines.append(f"    ({size!r}, {seed}): {{")
                lines += [f"        {n!r}: {h!r}," for n, h in hashes.items()]
                lines.append("    },")
    sys.stdout.write("GOLDEN = {\n" + "\n".join(lines) + "\n}\n")
