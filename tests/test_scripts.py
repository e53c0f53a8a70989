import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_tables_runs_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--max-n", "4", "--check-max-n", "5"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "== table 7 (unordered forests) ==" in done.stdout
    assert done.stdout.endswith(" checks passed\n")
    assert "FAIL" not in done.stdout and "MISMATCH" not in done.stdout
