"""The experiment scripts in scripts/ run end to end as subprocesses."""

import hashlib
import os
import pathlib
import subprocess
import sys

from test_cli import PRESET_SHA256, SURFACE_SHA256

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_reproduce_figures(tmp_path):
    proc = run_script("reproduce_figures.py", "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for preset, digest in PRESET_SHA256.items():
        data = (tmp_path / "out" / f"{preset.replace('-', '_')}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, preset


def test_longtime_geometry(tmp_path):
    out = tmp_path / "out"
    proc = run_script("longtime_geometry.py", "--samples", "50", "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    verdicts = (out / "longtime_verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "c1,c2,c3,verdict,u_b_initial,u_b_limit" and len(verdicts) == 51
    surface = (out / "spmc_surface.csv").read_bytes()
    assert hashlib.sha256(surface).hexdigest() == SURFACE_SHA256["1,3", 41]


# sha256 of longtime_verdicts.csv for --samples 2000 --seed 0: the sampled
# states, the verdicts and both U_b columns, to the byte
LONGTIME_VERDICTS_SHA256 = "6aab34bb2e15843ca324b37ce63aa78ceb679adefe2e8f07bbc210fa7981de14"


def test_longtime_geometry_bytes_unchanged(tmp_path):
    out = tmp_path / "out"
    args = ("--samples", "2000", "--seed", "0", "--out-dir", str(out))
    proc = run_script("longtime_geometry.py", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    data = (out / "longtime_verdicts.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == LONGTIME_VERDICTS_SHA256
