"""Every statement of the package runs, or is a `raise`, or is excused
with a reason in `scripts/linetrace.py`'s keep table."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "linetrace.py"


def test_linetrace_zero():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
