"""Golden master for the CLI: every command's stdout, byte for byte.

Each command below has its expected stdout in tests/cli_golden/<slug>.out.
Re-record them (only when an output change is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from welltempered.cli import main

GOLDEN_DIR = Path(__file__).with_name("cli_golden")
FORMATS = ("text", "csv", "json")


def _with_formats(argv, exact=False):
    extra = ["--exact"] if exact else []
    return [argv + ["--format", fmt] + extra for fmt in FORMATS]


COMMANDS = []
for _mold in (["L"], ["F"], ["Q"], ["D"], ["perfect", "--granularity", "3"]):
    COMMANDS += _with_formats(["mold", "show", "--mold", *_mold, "--count", "40"])
    COMMANDS += _with_formats(["mold", "show", "--mold", *_mold, "--count", "40"],
                              exact=True)
COMMANDS += _with_formats(["table", "--m", "12", "--count", "30"])
COMMANDS += _with_formats(["table", "--m", "18", "--count", "51"])
COMMANDS += _with_formats(["table", "--m", "12", "--count", "5", "--precision", "0"])
COMMANDS += _with_formats(["mold", "show", "--mold", "L", "--count", "10",
                           "--precision", "7"])
for _args in (["--mold", "F", "--m", "12", "--alpha", "1"],
              ["--mold", "L", "--m", "12", "--alpha", "2/5"],
              ["--mold", "Q", "--m", "19", "--alpha", "1/2"],
              ["--mold", "D", "--m", "10", "--alpha", "1/3"],
              ["--mold", "perfect", "--granularity", "3", "--m", "5",
               "--alpha", "0.5"]):
    COMMANDS += _with_formats(["discretize", *_args])
for _m in ("12", "13", "18"):
    COMMANDS += _with_formats(["search", "--m", _m])
    COMMANDS += _with_formats(["search", "--m", _m], exact=True)
COMMANDS += _with_formats(["search", "--m", "12", "--precision", "6"])
COMMANDS += _with_formats(["fractal-division", "--p", "golden", "--depth", "3",
                           "--precision", "2"])
for _which in ("4", "5", "6"):
    COMMANDS += _with_formats(["theorem", "--which", _which])
for _p, _depth in (("golden", "0"), ("golden", "5"), ("1/2", "3"),
                   ("1/3", "4"), ("0.3", "2")):
    COMMANDS += _with_formats(["fractal-division", "--p", _p, "--depth", _depth])
    COMMANDS += _with_formats(["fractal-division", "--p", _p, "--depth", _depth],
                              exact=True)


def _slug(argv) -> str:
    return "_".join(a.lstrip("-").replace("/", "over") for a in argv)


def test_slugs_are_distinct():
    assert len({_slug(argv) for argv in COMMANDS}) == len(COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=_slug)
def test_stdout_matches_golden_file(argv, capsys):
    expected = (GOLDEN_DIR / f"{_slug(argv)}.out").read_bytes().decode("utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0, argv
        (GOLDEN_DIR / f"{_slug(argv)}.out").write_bytes(buffer.getvalue().encode("utf-8"))
    print(f"recorded {len(COMMANDS)} files in {GOLDEN_DIR}")
