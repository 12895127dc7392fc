"""networkx stays out of the runtime: ``no_networkx_smoke.py`` runs
every network algorithm in a fresh interpreter and checks that nothing
imported networkx."""

import os
import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).with_name("no_networkx_smoke.py")
SRC = Path(__file__).resolve().parents[2] / "src"


def test_algorithms_run_without_importing_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(SMOKE)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no networkx: ok"
