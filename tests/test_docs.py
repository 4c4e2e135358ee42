"""README's examples stay in step with the code: every `cygshell` line of its
code blocks parses with the CLI's own parser (nothing is run), its JSON
spec block builds as both a gap width and a density spec, and every
backticked `module.name` in its prose names an attribute of the package."""

import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from cygshell import cli, gapwidth

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
CLI_LINES = [line for lang, body in BLOCKS if not lang
             for line in body.splitlines() if line.startswith("cygshell ")]
MODULES = ("arith", "cli", "counting", "gapwidth", "spectra", "stats", "voronoi")
PROSE = re.sub(r"^```\w*\n.*?^```", "", README, flags=re.M | re.S)
NAMES = sorted({m.group(1) for span in re.findall(r"`([^`]+)`", PROSE)
                if (m := re.match(rf"((?:{'|'.join(MODULES)})(?:\.\w+)+)", span))})


def test_readme_has_cli_examples():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_parses(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "cygshell"
    args = cli.build_parser().parse_args(argv[1:])  # a renamed flag exits 2 here
    assert args.command == argv[1]


def test_readme_json_spec_builds():
    specs = [json.loads(body) for lang, body in BLOCKS if lang == "json"]
    assert specs
    for spec in specs:
        gapwidth.gap_from_json(spec)
        gapwidth.density_spec_from_json(spec, quad_points=64)


def test_readme_names_some_package_attributes():
    assert "voronoi.diagonal_sum" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"cygshell.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"README names {name}, but {attr} is missing"
        obj = getattr(obj, attr)
