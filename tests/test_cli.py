import hashlib
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eurnoise import cli
from eurnoise.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "eurnoise.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_sweep_stdout(capsys):
    code = main(
        [
            "sweep",
            "--state",
            "bd:-0.5,0.4,0.8",
            "--channel",
            "pd",
            "--pair",
            "1,3",
            "--t-max",
            "10",
            "--points",
            "5",
            "--columns",
            "U,Ub",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,U,Ub"
    assert len(lines) == 6


def test_fig2_preset(tmp_path):
    dest = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(dest)]) == 0
    lines = dest.read_bytes().decode().splitlines()
    assert lines[0] == "t,U,Ub,D,E,M"
    assert len(lines) == 202
    assert lines[1].startswith("0.000000000000,1.280273718048")


def test_fig3_preset(tmp_path):
    dest = tmp_path / "fig3.csv"
    assert main(["fig3", "--out", str(dest)]) == 0
    rows = [r.split(",") for r in dest.read_text().splitlines()[1:]]
    u = [float(r[1]) for r in rows]
    assert u[-1] < u[0]


def test_smfig_b_preset(tmp_path):
    dest = tmp_path / "smb.csv"
    assert main(["smfig-b", "--out", str(dest)]) == 0
    rows = [r.split(",") for r in dest.read_text().splitlines()[1:]]
    ub = [float(r[2]) for r in rows]
    assert ub[0] == pytest.approx(0.0, abs=1e-9)
    assert ub[-1] > ub[0]  # Bell vertex: lower bound increases under damping


PRESET_SHA256 = {
    "fig2": "a036b58c506529b625fb9fe30f3039c8fe6fb8923b25c1149e71e32b2b7c9c6f",
    "fig3": "8e2c6490239fcf6389edb692759b83e889ac1e52ba5065e5ac71bb5c0f5f99b9",
    "smfig-b": "c50a2edfdedac537d46f56d6a401d233ab6a5234d183c2cd6b328be5527c6f23",
}


@pytest.mark.parametrize("preset", PRESET_SHA256)
def test_preset_bytes_unchanged(preset, tmp_path):
    """The preset CSVs are pinned byte for byte: a change that only claims to
    be faster must leave them as they are."""
    dest = tmp_path / f"{preset}.csv"
    assert main([preset, "--out", str(dest)]) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == PRESET_SHA256[preset]


def test_classify(capsys):
    assert main(["classify", "--state", "bd:-0.5,0.4,0.8"]) == 0
    assert capsys.readouterr().out.startswith("Decrease")
    assert main(["classify", "--state", "bd:-1,1,1"]) == 0
    assert capsys.readouterr().out.startswith("Increase")


def test_surface(capsys):
    assert main(["surface", "--pair", "1,3", "--resolution", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c1,c2,c3"
    for line in lines[1:]:
        c1, c2, c3 = (float(x) for x in line.split(","))
        assert c2 == pytest.approx(-c1 * c3, abs=1e-12)


def test_check_unital(capsys):
    assert main(["check-unital", "--trials", "20", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "violations=0" in out
    assert "counterexample" in out


def test_parse_error_exit_code():
    code, _, err = run_cli("classify", "--state", "bd:2,0,0")
    assert code == 1
    assert "error:" in err


def test_bad_channel_literal_exit_code():
    code, _, err = run_cli(
        "sweep", "--state", "bd:0,0,0", "--channel", "zz:1", "--pair", "1,3",
        "--t-max", "1", "--points", "2",
    )
    assert code == 1
    assert "error:" in err


def test_subprocess_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("fig3", "--out", str(a))
    run_cli("fig3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_infinite_t_max_is_one_error_line():
    code, out, err = run_cli(
        "sweep", "--state", "bd:-0.5,0.4,0.8", "--channel", "pd", "--pair", "1,3",
        "--t-max", "inf", "--points", "5",
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_flip_range_error_names_value():
    code, out, err = run_cli(
        "sweep", "--state", "bd:-0.5,0.4,0.8", "--channel", "flip:3", "--pair", "1,3",
        "--t-max", "1.5", "--points", "201",
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "1.5" in err and "[" not in err


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


SWEEP = ["sweep", "--state", "bd:-0.5,0.4,0.8", "--pair", "1,3", "--t-max", "1", "--points", "3"]


@pytest.mark.parametrize("literal", ["ad:0.7", "flip:3:0.25", "pd:0.5:3.0", "pd:1.5", "flip"])
def test_channel_literal_with_strength_rejected(literal, capsys):
    code = main(SWEEP + ["--channel", literal])
    assert_one_error_line(code, *capsys.readouterr())


@pytest.mark.parametrize("columns", ["", "U,U", "U,Ub,U", "U,"])
def test_bad_columns_rejected(columns, capsys):
    code = main(SWEEP + ["--channel", "pd", "--columns", columns])
    assert_one_error_line(code, *capsys.readouterr())


def test_negative_seed_is_one_error_line():
    assert_one_error_line(*run_cli("check-unital", "--trials", "1", "--seed", "-1"))


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def too_large(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "run_time_sweep", too_large)
    code = main(["fig2"])
    assert_one_error_line(code, *capsys.readouterr())


def readme_cli_commands() -> list[list[str]]:
    """The argv of every ``eurnoise ...`` line in the README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("eurnoise ")]


def test_readme_cli_block_covers_every_subcommand():
    subcommands = {"sweep", "fig2", "fig3", "smfig-b", "classify", "surface", "check-unital"}
    assert {argv[0] for argv in readme_cli_commands()} == subcommands


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
