"""The chaos CLI: one verdict, and a clean ``python -m`` start."""

import os
import subprocess
import sys
from pathlib import Path

from repro.harness.chaos import BATCH_CRASH_POINTS

SRC = Path(__file__).resolve().parents[2] / "src"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [
            sys.executable,
            "-W",
            "error::RuntimeWarning",
            "-m",
            "repro.harness.chaos",
            *args,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_runs_without_a_runpy_warning(tmp_path):
    # importing the package must not import the module that ``-m`` is
    # about to run, or runpy warns (an error under -W error)
    out = run_cli(
        "--trials", "2", "--batch-trials", "1", "--blackbox-dir", str(tmp_path)
    )
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert "3/3 trials ok" in out.stdout
    assert "batch trials: 1/1 crashed inside a batch" in out.stdout


def test_table_names_each_rows_kind_and_crash(tmp_path):
    out = run_cli(
        "--trials", "1", "--batch-trials", "1", "--blackbox-dir", str(tmp_path)
    )
    header, _, chaos_row, batch_row = out.stdout.splitlines()[1:5]
    assert header.split()[:3] == ["kind", "seed", "crash"]
    assert chaos_row.split()[:3] == ["chaos", "0", "split"]
    kind, seed, crash = batch_row.split()[:3]
    assert (kind, seed) == ("batch", "0")
    assert crash in BATCH_CRASH_POINTS
