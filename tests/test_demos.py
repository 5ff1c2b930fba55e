"""Each demo script prints exactly what it printed when its digest was pinned.

The demos run as a user runs them, `PYTHONPATH=src python3 demos/<name>.py`
from the root of the checkout, each in its own interpreter.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_kostka_tables.py": "683760160976ef1367aa0386356b826cf032c4b7319f11ae2db28ca7e395f521",
    "02_charge_and_statistics.py": "de736c9ea2f8f32ed3a587e1774f1b242618aa40158b161b13ccf723183dce36",
    "03_vertex_operators.py": "79da1db43b836b40a65081866024dcb2883d533a14f7ad3e73e83d973481aa32",
    "04_unimodal_profiles.py": "3ca9ebc3c12824baa30ea5dff07195efd983ae5717668953885f990c6f5279bf",
    "05_numeric_oracle.py": "6fd0308645e0ac0477729dfe3d2b5511dc04dd1e087af1bc387a0bb908646fda",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
