"""Rules on the source text of src/eurnoise."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eurnoise"
MAX_LINE = 99


def test_source_lines_fit_the_limit():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    long = [
        f"{path.name}:{n}"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, f"lines longer than {MAX_LINE} characters: {long}"
