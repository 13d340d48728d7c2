"""The demo scripts run to completion and print the bytes recorded for them."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; a change that alters a demo's output on
# purpose records the new value here and says in CHANGES.md which line changed
DEMOS = {
    "airy_asymptotics": "5510a3e702156dee0b7ae564fe90a52b885815e3a8f8e4e7dd8fe9a630ca4110",
    "counting_and_tables": "d1d2e7397cd4b73440badbb3af86e853d2665515ac3b54aa4c7d90f20dc7e6d1",
    "limit_laws": "65224facaffb77e8f8af269ec013613832454960a2d71080697828a32f43337e",
    "network_oracles": "ed0ab6da7576033062e99d8dfbb34d91fc67dd66744e3557671b87425c34f102",
    "word_encoding": "ffe7268d4fb57399b23b5aa8664fc8ac7676cffccb11e10943c0e1bd059b00d2",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]
