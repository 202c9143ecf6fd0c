"""Every demo prints exactly its pinned output.

Each demo runs as its own process, importing the package from ``src/``, and
the sha256 of its standard output is compared with the pinned digest.  A
change that alters what a demo prints must update the digest here, so that
the change is seen.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_weighted_medians.py": "18cc6c889effe894467510b0ca18c90cfc700a694aeca0c92b7403baf58d0ca1",
    "02_network_structure.py": "c0e4c1f7065832969708d3bbaf82a51361d8f20324f5995c35e9c0cdba38d134",
    "03_simulation.py": "ba3dfbe1185f365c45880f3673e9dfcee98db6d1888c7002da3e6394fb6ecdb0",
    "04_consensus_or_dissensus.py": "3fc2662bd6ca195af11555c8a2e760dbdd3e8b8db70939bec38ac95089468869",
    "05_hardness_reduction.py": "2cdca50c07c59fcf66113748989096e912edda281c0d69f432c2c050475e15a8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
