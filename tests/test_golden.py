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
        'rounds.csv': 'dced00e0ce206b2d5ef40d0c3c7a14ef5c51aba5bbd54806b1ab1ca80174ec9d',
        'cycles.csv': 'e001fba13b88c943513c99a9c397255e01aa36d66a6f3224a9dac42e80b2f31a',
        'summary.txt': '0358c10e0f546c4d84a62597cfcfedcdcb7cb88c43972c3dc5ab92848338c0a2',
    },
    ('small', 2): {
        'rounds.csv': 'f4adc7022a99ef0d4d0af96a787a9fd68901cda7f5a6eeb781d30a0ae81f2527',
        'cycles.csv': '1fb5d0c6d6b24d6b6ceeed4d143890c3556cc4e8f36238241b8dfece4de150a2',
        'summary.txt': 'b42be87bc775e52fde044a8ac55121dc567dc7f656e67652821f774217d9ecf9',
    },
    ('small', 3): {
        'rounds.csv': 'f0b28335120d5873accaa923cfa92314dc230019150f5baa1bbbc427cd013d2e',
        'cycles.csv': '6333af6d298b717885762f9f9a90af31032f328591e75fed82ace2793c145bf0',
        'summary.txt': '82983387150a64699f8cce9b6db31f6f3f5b278d3373950d068ddcff917fcb25',
    },
    ('tiny', 1): {
        'rounds.csv': '5d7ba323e3a83c7ff471cb3db9d555b6c9eab8a806d4a46523e1891a72a7c72d',
        'cycles.csv': 'aeb6b71584f3a23b196d5fd8ce475d4740c430a79a97ba597851cd8e84366b7e',
        'summary.txt': '9c7be2040909e74e0cac37ead99896dec1e6582faddbf1c0cb007e5492df565a',
    },
    ('tiny', 2): {
        'rounds.csv': '42149f9fe84dbfdd988f561dcc59a8ea52dafbbdbd5931afcc892e60782fe2cf',
        'cycles.csv': '036a710272c1c01788e6803e1bbf283c0129c6fb2db1666fdf42ece456a665b6',
        'summary.txt': 'b5115a437c55d740a5295989f06ac74ab82c3044ceadae920105013fc1a2c5a0',
    },
    ('tiny', 3): {
        'rounds.csv': 'e0804754b16efb002507b23c89ec9ab916a614579f1239f72256937c0d92037d',
        'cycles.csv': '95f48ef7fd0800335e31999dd9241fc3751b8efa31009c0b0a2ac9e076cb1eb4',
        'summary.txt': 'f89f5d85901a7dfe9fe857cb0aa59b8218462cf5a07a9656e8e13f5ebe7cc8a0',
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
