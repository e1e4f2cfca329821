import hashlib
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eurnoise import cli
from eurnoise.cli import main
from eurnoise.scenarios import UnitalCheckReport

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


# each preset's sweep arguments besides --pair 1,3 --t-max 10 --points 201, written out
PRESET_SWEEPS = {
    "fig2": ["--state", "bd:-0.5,0.4,0.8", "--channel", "pd"],
    "fig3": ["--state", "bd:-0.5,0.4,0.8", "--channel", "ad"],
    "smfig-b": ["--state", "bd:-1,1,1", "--channel", "ad"],
}


@pytest.mark.parametrize("preset", PRESET_SWEEPS)
def test_preset_is_a_fixed_sweep(preset, tmp_path):
    argv = ["sweep", *PRESET_SWEEPS[preset], "--pair", "1,3", "--t-max", "10", "--points", "201"]
    assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 0
    assert main([preset, "--out", str(tmp_path / "preset.csv")]) == 0
    assert (tmp_path / "preset.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()


def test_sweep_help_lists_every_column(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--help"])
    assert info.value.code == 0
    assert "  --columns COLUMNS     comma subset of U,Ub,D,E,M\n" in capsys.readouterr().out


@pytest.mark.parametrize("preset", PRESET_SWEEPS)
def test_preset_takes_only_out(preset, capsys):
    with pytest.raises(SystemExit) as info:
        main([preset, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: eurnoise {preset} [-h] [--out OUT]\n\n")
    assert main([preset, "--points", "5"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --points 5\n"


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


# sha256 of `eurnoise surface --pair P --resolution R` on stdout, by (P, R)
SURFACE_SHA256 = {
    ("1,2", 41): "4a663dc5a2434d378964cf6068e6516a11e02c4e882e422743318d915ef443fc",
    ("1,2", 401): "6a39c8f7659c9aa492a76baad968c5ed19950d4584457748381f3a8427f97def",
    ("1,3", 41): "31ce42c9850a01eb063ab0915009c883f21ca5a35abf874bbc03b8dcf71a59b3",
    ("1,3", 401): "37a36515e0a933f0b0d772ecf364bbe8415a3441b3150cf15682df6a3885da29",
    ("2,3", 41): "966c1886434e26dd810ab414981fc0abdad9407f72723a4b6b7d55930317da8a",
    ("2,3", 401): "7ebbbe95296e39bc6f452726e87fab279f8e627459571a0ef6319bbbe5bae844",
}


@pytest.mark.parametrize("pair, resolution", SURFACE_SHA256)
def test_surface_bytes_unchanged(pair, resolution, tmp_path):
    dest = tmp_path / "surface.csv"
    argv = ["surface", "--pair", pair, "--resolution", str(resolution), "--out", str(dest)]
    assert main(argv) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == SURFACE_SHA256[pair, resolution]


@pytest.mark.parametrize("points", [3, 40])
def test_sweep_prints_wide_cells(points, capsys):
    # Gamma*t up to 1e300 is a valid sweep: its t cells print all 301 digits, on
    # the template (18 cells) and on the vectorized writer (240 cells)
    argv = ["sweep", "--state", "bd:-0.5,0.4,0.8", "--channel", "ad", "--pair", "1,3",
            "--t-max", "1e300", "--points", str(points)]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == [f"{t:.12f}" for t in np.linspace(0.0, 1e300, points)]
    assert len(rows[-1][0]) == 301 + 13


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


@pytest.mark.parametrize("columns", ["", "U,U", "U,Ub,U", "U,", "U,X", "UM"])
def test_bad_columns_rejected(columns, capsys, monkeypatch):
    def no_sweep(cfg):
        raise AssertionError("swept before the columns were checked")

    monkeypatch.setattr(cli, "run_time_sweep", no_sweep)
    code = main(SWEEP + ["--channel", "pd", "--columns", columns])
    out, err = capsys.readouterr()
    assert_one_error_line(code, out, err)
    assert err.startswith("error: output columns")


# argparse's own usage errors: a bad type, a bad choice, a missing option, no subcommand,
# an option a preset does not take; each is one error line and exit 1, not argparse's 2
USAGE_ERRORS = {  # id: (argv, the start of the error line)
    "points-abc": (SWEEP[:-1] + ["abc", "--channel", "pd"],
                   "error: argument --points: invalid int value: 'abc'"),
    "spacing-foo": (SWEEP + ["--channel", "pd", "--spacing", "foo"],
                    "error: argument --spacing: invalid choice: "),
    "no-state": (["sweep", "--channel", "pd", "--pair", "1,3", "--t-max", "1", "--points", "3"],
                 "error: the following arguments are required: --state"),
    "no-subcommand": ([], "error: the following arguments are required: command"),
    "preset-points": (["fig3", "--points", "5"], "error: unrecognized arguments: --points 5"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_a_usage_error_is_one_error_line(argv, message):
    code, out, err = run_cli(*argv)
    assert_one_error_line(code, out, err)
    assert err.startswith(message)


def test_check_unital_violations_exit_2(monkeypatch, capsys):
    # a violation is exit 2, and the report lists the first 10 of them
    report = UnitalCheckReport(20, 800, 12, tuple(f"v{i}" for i in range(12)), None, None, None)
    monkeypatch.setattr(cli, "property_check_unital", lambda n_trials, seed: report)
    assert main(["check-unital", "--trials", "20", "--seed", "5"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "trials=20 checks=800 violations=12"
    assert [line for line in out if line.startswith("VIOLATION:")] == [
        f"VIOLATION: v{i}" for i in range(10)]


def test_negative_seed_is_one_error_line():
    assert_one_error_line(*run_cli("check-unital", "--trials", "1", "--seed", "-1"))


# a count whose arrays numpy cannot address, per command; numpy itself raises ValueError or
# IndexError for such a count, which must not reach the user as a traceback
UNADDRESSABLE = {
    "sweep-1e20": (["sweep", "--state", "bd:0,0,0", "--channel", "pd", "--pair", "1,3",
                    "--t-max", "1", "--points", "99999999999999999999"], "n_points"),
    "sweep-2_63": (["sweep", "--state", "bd:0,0,0", "--channel", "pd", "--pair", "1,3",
                    "--t-max", "1", "--points", "9223372036854775808"], "n_points"),
    "surface": (["surface", "--pair", "1,3", "--resolution", "99999999999999999999"],
                "resolution"),
    "check-unital": (["check-unital", "--trials", "99999999999999999999", "--seed", "1"],
                     "n_trials"),
}


@pytest.mark.parametrize("argv, name", UNADDRESSABLE.values(), ids=UNADDRESSABLE.keys())
def test_a_count_numpy_cannot_address_is_one_error_line(argv, name):
    code, out, err = run_cli(*argv)
    assert "Traceback" not in err
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: {name} must be at most ")


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
