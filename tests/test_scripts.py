import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_reproduce_tables_runs_clean():
    done = _run_script("reproduce_tables.py", "--max-n", "4", "--check-max-n", "5")
    assert done.returncode == 0, done.stderr
    assert "== table 7 (unordered forests) ==" in done.stdout
    assert done.stdout.endswith(" checks passed\n")
    assert "FAIL" not in done.stdout and "MISMATCH" not in done.stdout


def test_golden_file_of_missing_table_entries_is_up_to_date():
    golden = ROOT / "data" / "ordered_consecutive_n5.json"
    before = golden.read_bytes()
    done = _run_script("compute_missing_table_entries.py", "--check")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("golden file up to date")
    assert golden.read_bytes() == before
