"""The walkthrough scripts in demos/ run to completion without a warning."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
DEMO_SHA256 = {
    "01_spectra.py": "03d0e0096a069db4f9f5a0c51f7dcf13a085a61c16ba06183d03917bf6734e7f",
    "02_adjunction.py": "5945e6467d98fc93a57478163c3781bf68e736c3c1828ae4c3d40dd4a3245fca",
    "03_frames.py": "936187550851a0da5c0e5e998c6e78177ddd10be32ad97bd8fb1e5a507107119",
    "04_tensor.py": "5ed3733aa4bd919a9d75aa2e62a5877b832f5d6a1c6d3809bf340984c39fedd4",
}


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_pinned(demo):
    """The same bytes under two string-hash seeds, and the pinned bytes."""
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, "the output depends on the string-hash seed"
    assert hashlib.sha256(outputs.pop().encode()).hexdigest() == DEMO_SHA256[demo.name]
