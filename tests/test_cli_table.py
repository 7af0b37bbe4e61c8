"""The command table: pinned ``--help`` texts, a parser shared across runs,
and the modules each command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symfano import cli
from symfano.cli import run
from symfano.schemas import fixture_path

FILE_LEAF_HELP = """\
usage: symfano {} [-h] [--json] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --json      machine-readable report
"""

HELP = {
    "": """\
usage: symfano [-h] {tvar,lct,valuable,git,chow,lattice,validate,selftest} ...

Exact existence certificates for complexity-one torus varieties.

positional arguments:
  {tvar,lct,valuable,git,chow,lattice,validate,selftest}
    tvar                complexity-one variety commands
    lct                 equivariant threshold of a marked pair file
    valuable            invariant log canonicity test for a pair file
    git                 torus orbit-closedness commands
    chow                refinement fan of the projected maximal cones
    lattice             character lattice commands
    validate            schema diagnostics, no computation
    selftest            seeded randomized property suites

options:
  -h, --help            show this help message and exit
""",
    "tvar": """\
usage: symfano tvar [-h] {check} ...

positional arguments:
  {check}
    check     full verdict pipeline for a variety file

options:
  -h, --help  show this help message and exit
""",
    "git": """\
usage: symfano git [-h] {polystable,locus} ...

positional arguments:
  {polystable,locus}
    polystable        verdict for one support
    locus             verdicts for every support subset

options:
  -h, --help          show this help message and exit
""",
    "git polystable": """\
usage: symfano git polystable [-h] --support SUPPORT [--json] file

positional arguments:
  file

options:
  -h, --help         show this help message and exit
  --support SUPPORT  comma-separated labels (empty for the origin)
  --json             machine-readable report
""",
    "lattice": """\
usage: symfano lattice [-h] {symmetric} ...

positional arguments:
  {symmetric}
    symmetric  fixed sublattice and symmetry test

options:
  -h, --help   show this help message and exit
""",
    "selftest": """\
usage: symfano selftest [-h] [--seed SEED] [--cases CASES] [--json]

options:
  -h, --help     show this help message and exit
  --seed SEED
  --cases CASES
  --json         machine-readable report
""",
    **{
        words: FILE_LEAF_HELP.format(words)
        for words in ("tvar check", "lct", "valuable", "git locus", "chow", "lattice symmetric", "validate")
    },
}


@pytest.mark.parametrize("words", sorted(HELP))
def test_help_text_is_pinned(words, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run([*words.split(), "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP[words]


@pytest.mark.parametrize("group", ["tvar", "git", "lattice"])
def test_group_without_command_is_a_usage_error(group, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run([group])
    assert exit_info.value.code == 2
    usage = HELP[group].splitlines()[0]
    assert capsys.readouterr().err == (
        f"{usage}\nsymfano {group}: error: the following arguments are required: {group}_command\n"
    )


SEQUENCE = (
    ("git", "polystable", "hyp12-deform.json", "--support", "alpha,beta"),
    ("git", "locus", "hyp12-deform.json"),
    ("lct", "pair-involution.json"),
    ("validate", "quadric.json"),
)


def _argv(command):
    return [str(fixture_path(a)) if a.endswith(".json") else a for a in command]


def _python(*argv):
    """A fresh interpreter that imports the package from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True)


def test_shared_parser_leaks_no_state_between_runs(capsys):
    alone = [_python("-m", "symfano.cli", *_argv(c)) for c in SEQUENCE]
    expected = [(p.returncode, p.stdout.decode("utf-8")) for p in alone]
    assert [code for code, _ in expected] == [0, 0, 0, 0]
    for order in (SEQUENCE, SEQUENCE[::-1]):
        together = {}
        for command in order:
            code = run(_argv(command))
            together[command] = (code, capsys.readouterr().out)
        assert [together[c] for c in SEQUENCE] == expected
    assert cli.build_parser() is cli.build_parser()


# a fresh interpreter runs one command, then names the modules the command
# loaded beyond those present before ``import symfano.cli``
LOADED_BY = """\
import contextlib, io, json, sys
before = set(sys.modules)
import symfano.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = symfano.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

BASE = {"symfano", "cli", "errors", "rationals", "schemas"}
LOCUS = BASE | {"exact", "polyhedral", "quotients"}
GROUPS = BASE | {"exact", "groups"}
PAIR = GROUPS | {"curvepair"}
LOADS = {
    "validate quadric.json": BASE,
    "git locus hyp12-deform.json": LOCUS,
    "chow p2-chow.json": LOCUS,
    "lattice symmetric lattice-rotation.json": GROUPS,
    "lct pair-involution.json": PAIR,
    "tvar check bidegree12.json": PAIR | {"tvariety"},
}


@pytest.mark.parametrize("command", LOADS)
def test_command_loads_only_the_modules_it_computes_with(command):
    code, loaded = json.loads(_python("-c", LOADED_BY, *_argv(command.split())).stdout)
    assert code == 0
    assert {m.removeprefix("symfano.") for m in loaded if m.split(".")[0] == "symfano"} == LOADS[command]
    if command.startswith("validate"):
        assert "dataclasses" not in loaded


def test_import_symfano_loads_a_submodule_when_one_of_its_names_is_first_used():
    code = (
        "import json, sys; loaded = lambda: sorted(m for m in sys.modules if m.startswith('symfano'));"
        " import symfano; first = loaded(); symfano.rat; print(json.dumps([first, loaded()]))"
    )
    assert json.loads(_python("-c", code).stdout) == [
        ["symfano"],
        ["symfano", "symfano.errors", "symfano.rationals"],
    ]
