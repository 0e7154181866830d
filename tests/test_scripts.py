"""Smoke tests: the experiment scripts run end to end at tiny sizes."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_noise_removal_script(tmp_path):
    out = tmp_path / "noise.csv"
    stdout = run_script("run_noise_removal.py", "--users", 200, "--epochs", 5, "--out", out, cwd=tmp_path)
    assert "epoch  5:" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("epoch,accuracy,precision,tpr,fpr")
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 3, 4, 5]


def test_cross_site_tracking_script(tmp_path):
    out = tmp_path / "tracking"
    run_script("run_cross_site_tracking.py", "--sizes", 200, "--epochs", 5, "--out-dir", out, cwd=tmp_path)
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "n_users,epoch,unique_rate,better_than_random_rate"
    assert [ln.split(",")[:2] for ln in summary[1:]] == [["200", "1"], ["200", "2"], ["200", "5"]]
    assert (out / "reid_200.csv").exists() and (out / "kcdf_200_epoch_05.csv").exists()
