"""The command table: pinned ``--help`` texts, a parser shared across runs,
the command lines the table reads without argparse, and the modules each
command loads."""

import json
import random
import subprocess
import sys
from collections import Counter

import make_corpus
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


def _python(env, *argv):
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True)


def test_shared_parser_leaks_no_state_between_runs(capsys, fresh_env):
    alone = [_python(fresh_env, "-m", "symfano.cli", *_argv(c)) for c in SEQUENCE]
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

# checking a document computes nothing, so ``validate`` loads no subject
# module; the stability commands load no polyhedral code, and a pair
# command none of a variety's
BASE = {"symfano", "cli", "errors", "rationals", "schemas"}
GIT = BASE | {"exact", "quotients"}
GROUPS = BASE | {"exact", "groups"}
PAIR = GROUPS | {"curvepair"}
LOADS = {
    "validate quadric.json": BASE,
    "validate pair-involution.json": BASE,
    "validate p2-chow.json": BASE,
    "validate hyp12-deform.json": BASE,
    "git polystable hyp12-deform.json --support alpha,beta": GIT,
    "git locus hyp12-deform.json": GIT,
    "chow p2-chow.json": GIT | {"polyhedral"},
    "lattice symmetric lattice-rotation.json": GROUPS,
    "lct pair-involution.json": PAIR,
    "lct pair-triangle.json": PAIR,
    "tvar check bidegree12.json": PAIR | {"tvariety"},
}
# the commands that compute in integers alone, and the modules that loading
# ``fractions`` brings; the schema check keeps every rational as an int pair
INTEGER_COMMANDS = {
    "validate quadric.json",
    "validate pair-involution.json",
    "validate p2-chow.json",
    "validate hyp12-deform.json",
    "git polystable hyp12-deform.json --support alpha,beta",
    "git locus hyp12-deform.json",
    "chow p2-chow.json",
    "lattice symmetric lattice-rotation.json",
}
FRACTIONS = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("command", LOADS)
def test_command_loads_only_the_modules_it_computes_with(command, fresh_env):
    code, loaded = json.loads(_python(fresh_env, "-c", LOADED_BY, *_argv(command.split())).stdout)
    assert code == 0
    assert {m.removeprefix("symfano.") for m in loaded if m.split(".")[0] == "symfano"} == LOADS[command]
    assert {"dataclasses", "inspect", "argparse", "gettext", "locale"}.isdisjoint(loaded)
    if command in INTEGER_COMMANDS:
        assert FRACTIONS.isdisjoint(loaded)


def test_import_symfano_loads_a_submodule_when_one_of_its_names_is_first_used(fresh_env):
    code = (
        "import json, sys; loaded = lambda: sorted(m for m in sys.modules if m.startswith('symfano'));"
        " import symfano; first = loaded(); symfano.rat; print(json.dumps([first, loaded()]))"
    )
    assert json.loads(_python(fresh_env, "-c", code).stdout) == [
        ["symfano"],
        ["symfano", "symfano.errors", "symfano.rationals"],
    ]


def test_the_table_reads_every_documented_command_line():
    argvs = [argv for _, argv, *_ in make_corpus.recorded_cases()]
    assert len(argvs) >= 52 + 282
    assert [argv for argv in argvs if cli._read_argv(argv) is None] == []


ARGUMENT_FIELDS = ("handler", "file", "json", "support", "seed", "cases")
WORDS = sorted({word for words, *_ in cli.COMMANDS for word in words})
TOKENS = [
    *WORDS, "a.json", "b.json", "x0,x1", "3", "12", "--json", "--support", "--support=a",
    "--seed", "--cases", "-1", "", "--js", "-h", "--", "-",
]
#: the values an option of each type is given
VALUES = {int: ["3", "12"], str: ["x0,x1", ""]}


def _generated_argvs(rng: random.Random, count: int):
    """Command lines near the documented forms: a command's words (or all but
    the last), some of its arguments (its FILE, the options of its
    ``COMMANDS`` entry and ``--json``) in a random order, and then up to
    three tokens of ``TOKENS`` put in or tokens dropped."""
    for _ in range(count):
        words, _, handler, options = rng.choice(cli.COMMANDS)
        groups = [] if handler is None else [[rng.choice(["a.json", "b.json"])]]
        groups += [[f"--{name}", rng.choice(VALUES[kind])] for name, (kind, _, _) in options.items()]
        groups.append(["--json"])
        argv = [t for group in rng.sample(groups, rng.randrange(len(groups) + 1)) for t in group]
        for _ in range(rng.randrange(4)):
            if argv and rng.random() < 0.3:
                del argv[rng.randrange(len(argv))]
            else:
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(TOKENS))
        yield list(words if rng.random() < 0.9 else words[:-1]) + argv


def test_the_table_reads_a_command_line_as_argparse_does(capsys):
    read, left = Counter(), 0
    for argv in _generated_argvs(random.Random(23), 4000):
        args = cli._read_argv(argv)
        if args is None:
            left += 1
            continue
        read[args.handler] += 1
        parsed = cli.build_parser().parse_args(argv)
        assert [getattr(args, f, None) for f in ARGUMENT_FIELDS] == [
            getattr(parsed, f, None) for f in ARGUMENT_FIELDS
        ], argv
    # the table reads each command many times and leaves many lines to argparse
    assert len(read) == len(cli.COMMANDS) and min(read.values()) >= 40 and left >= 1000
    assert capsys.readouterr().err == ""


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(tmp_path, fresh_env):
    # 2^11 verdicts: a report far larger than the pipe's buffer
    n = 11
    document = tmp_path / "wide.json"
    document.write_text(json.dumps({
        "name": "wide",
        "labels": [f"x{i}" for i in range(n)],
        "weights": [[i % 5 - 2 for i in range(n)], [(3 * i + 1) % 5 - 2 for i in range(n)]],
    }))
    command = [sys.executable, "-m", "symfano.cli", "git", "locus", str(document), "--json"]
    with subprocess.Popen(command, env=fresh_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert [proc.stdout.readline() for _ in range(2)] == [b"{\n", b'  "report_version": 1,\n']
        proc.stdout.close()  # as ``| head -2`` does
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")
