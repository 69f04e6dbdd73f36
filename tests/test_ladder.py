"""tools/ladder.py times the stages of the package on its path by name,
so its stage child must keep up with the package's API."""

import json
import subprocess
import sys
from pathlib import Path

from util import fresh_process_env

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_ladder_stages_run_on_the_package():
    proc = subprocess.run([sys.executable, str(LADDER), "--stages", "61", "1"],
                          env=fresh_process_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout)) == [
        "field", "s_orbits", "build_quotient", "lift_cycle", "run_pipeline",
        "certificate_chunks", "verify_text", "weil_report"]
