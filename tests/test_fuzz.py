"""Bad input ends as an input error, never as a traceback.

Documents of the generated corpus (``make_corpus.corpus()``) are mutated
with a fixed seed and run through ``cli.run`` in process, with the command
each case records.  A mutation deletes a key or a list item, duplicates a
list item, prepends a value to a list, or puts a value in place of any node;
the values are the bad leaves and shapes that a hand-written document gets
wrong.  Whatever the document, a run returns an exit code, an exit 4
(internal error) never comes from input, a run that exits 1 for bad input
prints no report, except ``validate``, whose report lists the problems, and
the lines of a text report that exits 0 hold (``make_corpus.text_lines_hold``)
whatever strings the document holds.
"""

import contextlib
import copy
import io
import json
import random
import traceback

import make_corpus

from symfano.cli import EXIT_INPUT, EXIT_INTERNAL, run

SEED = 0
DOCUMENTS = 600

VALUES = (
    "x", "", 1.5, 0, -1, 10**30, 2**63, None, True, [], {}, "1/0", "-inf", " 3 ", "٣", "x\ny: z",
    [[]], [0, 0], ["1", "0"], {"name": "a"}, [[1, 0], [0, 1]],
)


def _places(document) -> list:
    """Every (container, key) of the document, the top level's keys included."""
    places, stack = [], [document]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            continue
        for key, value in items:
            places.append((node, key))
            stack.append(value)
    return places


def _mutate(rng: random.Random, document) -> None:
    places = _places(document)
    if not places:
        return
    node, key = rng.choice(places)
    kind = rng.randrange(4)
    if kind == 0:
        del node[key]
    elif kind == 1 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif kind == 2 and isinstance(node, list):
        node.insert(0, copy.deepcopy(rng.choice(VALUES)))
    else:
        node[key] = copy.deepcopy(rng.choice(VALUES))


def _problem(argv: list[str]) -> str | None:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception:
        return traceback.format_exc()
    if code == EXIT_INTERNAL:
        return f"exit 4: {err.getvalue()}"
    if code == EXIT_INPUT and argv[0] != "validate" and out.getvalue():
        return f"exit 1 with a report on stdout:\n{out.getvalue()}"
    if code == 0 and "--json" not in argv and not make_corpus.text_lines_hold(out.getvalue()):
        return f"a text report with a line that is neither its subject nor indented:\n{out.getvalue()}"
    return None


def test_mutated_corpus_documents_end_in_an_exit_code(tmp_path):
    rng = random.Random(SEED)
    cases = [case for cases in make_corpus.corpus().values() for case in cases if case["document"] is not None]
    failures = []
    for k in range(DOCUMENTS):
        case = rng.choice(cases)
        document = copy.deepcopy(case["document"])
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, document)
        text = json.dumps(document)
        path = tmp_path / f"document-{k}.json"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "{file}" else a for a in case["argv"]]
        problem = _problem(argv)
        if problem is not None:
            failures.append(f"argv {case['argv']}\ndocument {text}\n{problem}")
    assert not failures, f"{len(failures)} of {DOCUMENTS} mutated documents:\n\n" + "\n\n".join(failures)
