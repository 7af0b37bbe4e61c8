"""Record the generated-input goldens: ``python tests/goldens/make_corpus.py``.

The fixture goldens never print a quadratic point, a declared action, a
-inf boundary, big entries, exit codes 2 and 3, torus ranks 2-3 or fans in
rank 3-4.  This script builds seeded documents that do, runs each command on
them in process, and writes ``tests/goldens/corpus/<command>.jsonl``: one
case a line, ``{"argv", "document", "exit", "stdout"}``, with ``{file}`` in
``argv`` standing for the document's path.  ``tests/test_goldens.py`` replays
every case.  Re-record only for a change that is meant to alter reports, and
review the diff of the corpus as the diff of those reports.

Groups come from the ``selftest`` pool (plus the dihedral groups of order 8
and 12), conjugated by random matrices of SL2(Z) and GL2(Q); invariant
marked sets are unions of orbits of rational points.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from symfano.cli import run  # noqa: E402
from symfano.exact import ProjPoint  # noqa: E402
from symfano.groups import (  # noqa: E402
    MoebiusElement,
    closure,
    exceptional_orbits,
    has_global_fixed_point,
    orbit_of,
)
from symfano.rationals import Q, rat_str  # noqa: E402
from symfano.selftest import _GROUP_GENERATORS  # noqa: E402

CORPUS = HERE / "corpus"

IDENTITY = [[1, 0], [0, 1]]
# the selftest pool, the trivial group written as the identity since a
# document needs a generator, then D4 and D6
GROUPS = [list(gens) or [IDENTITY] for gens in _GROUP_GENERATORS] + [
    [[[1, -1], [1, 1]], [[-1, 0], [0, 1]]],
    [[[2, -1], [1, 1]], [[0, 1], [1, 0]]],
]
# the groups whose exceptional orbits are quadratic points: C2 with
# irrational fixed points, C3, C4, C6, D4 and D6
QUADRATIC = [3, 4, 5, 6, 9, 10]

BIG_INVOLUTIONS = [
    [["1000000000007", "1000000000039"], ["1000000000061", "-1000000000007"]],
    [["10000000000000000051", "10000000000000000039"], ["10000000000000000061", "-10000000000000000051"]],
]
BIG_ENTRIES = [[10**19 + 51, 10**19 + 39], [10**19 + 61, 10**19 + 7]]
# C4 and a reflection conjugated by x -> 65537 x + 1: a dihedral group of
# order 8 with fixed points over d = BIG_PRIME and d = 65537^2 * BIG_PRIME
BIG_A = 16777238
D4_BIG = ([[1, -1], [1, 1]], [[BIG_A, 65537], [65537, -BIG_A]])
D4_BIG_CONJUGATOR = [[65537, 1], [0, 1]]


# ---------------------------------------------------------------------------
# groups, points and matrices as document values
# ---------------------------------------------------------------------------


def element(m) -> MoebiusElement:
    return m if isinstance(m, MoebiusElement) else MoebiusElement(m)


def matrix_json(g: MoebiusElement, rng: random.Random) -> list:
    """The entries of g as strings, scaled by a random rational."""
    scale = Q(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    return [[rat_str(x * scale) for x in row] for row in element(g).matrix]


def point_json(p: ProjPoint, rng: random.Random) -> list:
    """A rational point as a homogeneous pair, scaled by a random integer."""
    k = rng.choice((1, 1, 1, 2, -3))
    if str(p) == "inf":
        return [str(k), "0"]
    return [rat_str(Q(str(p)) * k), str(k)]


def sl2z(rng: random.Random) -> MoebiusElement:
    m = IDENTITY
    for _ in range(3):
        k = rng.randint(-3, 3)
        e = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        m = [[sum(m[i][t] * e[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    return MoebiusElement(m)


def gl2q(rng: random.Random) -> MoebiusElement:
    while True:
        m = [[Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            return MoebiusElement(m)


def conjugated(gens, h: MoebiusElement | None) -> list[MoebiusElement]:
    gens = [element(g) for g in gens]
    if h is None:
        return gens
    hinv = h.inverse()
    return [h * g * hinv for g in gens]


def random_conjugator(rng: random.Random) -> MoebiusElement | None:
    return rng.choice((None, sl2z(rng), gl2q(rng)))


def rational_point(rng: random.Random) -> ProjPoint:
    if rng.random() < 0.1:
        return ProjPoint.infinity()
    return ProjPoint.from_affine(Q(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))


def marked_orbits(rng: random.Random, group, count: int) -> list[tuple]:
    """Up to ``count`` disjoint orbits of rational points: random points, and
    exceptional orbits whose points are rational."""
    special = [o.points for o in exceptional_orbits(group) if "sqrt" not in str(o)]
    out, used = [], set()
    for _ in range(4 * count):
        if len(out) == count:
            break
        if special and rng.random() < 0.4:
            points = rng.choice(special)
        else:
            points = orbit_of(group, rational_point(rng)).points
        if used.isdisjoint(points):
            used.update(points)
            out.append(points)
    return out


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def pair_document(rng: random.Random, name: str, gens, orbits: int, relaxed: bool = False) -> dict:
    group = closure(gens)
    points = []
    for orbit in marked_orbits(rng, group, orbits):
        coeff = "-inf" if relaxed and rng.random() < 0.4 else rat_str(Q(rng.randint(-1 if relaxed else 0, 4), 4))
        points.extend({"pt": point_json(p, rng), "coeff": coeff} for p in orbit)
    rng.shuffle(points)
    return {"name": name, "points": points, "moebius_generators": [matrix_json(g, rng) for g in gens]}


def variety_document(rng: random.Random, name: str, gens, orbits: int, declared: bool, gaps: float = 0) -> dict:
    """A variety over the line with ``orbits`` marked fiber orbits; each orbit
    is a declared gap (no divisors, a -inf boundary) with probability ``gaps``."""
    group = closure(gens)
    dim = rng.choice((2, 3))
    rank = dim - 1
    fibers, index, names = [], {}, 0
    for orbit in marked_orbits(rng, group, orbits):
        if rng.random() < gaps:
            orders = []
        else:
            orders = sorted(rng.choices((1, 1, 2, 2, 3, 4), k=rng.randint(1, 3)))
        for p in orbit:
            index[p] = len(fibers)
            divisors = [{"name": f"d{names + i}", "order": o} for i, o in enumerate(orders)]
            names += len(orders)
            fibers.append({"point": point_json(p, rng), "divisors": divisors})
    minus = [[-1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    first = minus if rng.random() < 0.85 else ident
    symmetry = {"lattice_generators": [first] + [ident] * (len(gens) - 1)}
    if declared:
        symmetry["marked_permutations"] = [[index[g.apply(p)] for p in index] for g in gens]
        symmetry["induced_cyclic"] = has_global_fixed_point(group)
    else:
        symmetry["moebius_generators"] = [matrix_json(g, rng) for g in gens]
    return {
        "name": name,
        "dim": dim,
        "fano": rng.random() < 0.95,
        "log_terminal": True,
        "fibers": fibers,
        "horizontal": [f"h{i}" for i in range(rng.randint(0, 2))],
        "symmetry": symmetry,
    }


def weights_document(rng: random.Random, name: str, n: int, rank: int) -> dict:
    labels = [f"x{i}" for i in range(n)]
    doc = {"name": name, "labels": labels, "weights": [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]}
    if rng.random() < 0.4:
        doc["claimed_polystable_supports_any_of"] = [
            sorted(rng.sample(labels, rng.randint(2, n)), key=labels.index) for _ in range(rng.randint(1, 2))
        ]
    return doc


def unimodular(rng: random.Random, rank: int) -> list[list[int]]:
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if i != j and rng.random() < 0.7:
            u[i] = [a + rng.choice((1, -1)) * b for a, b in zip(u[i], u[j])]
        else:
            u[i] = [-a for a in u[i]]
    return u


def apply(m, v) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def projective_space_fan(rank: int) -> list[list[list[int]]]:
    """The fan of P^rank: the cones on all but one of e_1..e_rank, -(e_1+..+e_rank)."""
    rays = [[int(i == j) for j in range(rank)] for i in range(rank)] + [[-1] * rank]
    return [[r for k, r in enumerate(rays) if k != skip] for skip in range(rank + 1)]


def chow_document(rng: random.Random, name: str, rank: int, target: int) -> dict:
    """A fan in ``rank`` and a projection onto rank ``target``: the fan of
    P^rank or of (P^1)^rank in random coordinates, or random simplicial cones,
    which need not form a fan."""
    kind = rng.choice(("projective", "product", "random"))
    if kind == "projective":
        cones = projective_space_fan(rank)
    elif kind == "product":
        cones = [[[s[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
                 for s in ([rng.choice((1, -1)) for _ in range(rank)] for _ in range(rank + 1))]
    else:
        cones = [[[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)] for _ in range(rng.randint(1, 3))]
    basis = unimodular(rng, rank)
    cones = [[apply(basis, v) for v in cone] for cone in cones]
    projection = [[int(i == j) for j in range(target)] + [rng.randint(-1, 1) for _ in range(rank - target)]
                  for i in range(target)]
    if rng.random() < 0.1:
        projection[0] = [2 * x for x in projection[0]]  # not onto the target lattice
    return {"name": name, "fan": {"rank": rank, "cones": [{"generators": c} for c in cones]}, "projection": projection}


def lattice_document(rng: random.Random, name: str) -> dict:
    rank = rng.randint(1, 3)
    gens = [unimodular(rng, rank) for _ in range(rng.randint(1, 2))]
    return {"name": name, "rank": rank, "generators": gens}


def malformed(rng: random.Random, doc: dict) -> dict:
    """A copy of ``doc`` with one structural fault."""
    doc = json.loads(json.dumps(doc))
    faults = [lambda d: d.pop(rng.choice([k for k in d if k != "name"]))]
    if "points" in doc and doc["points"]:
        faults.append(lambda d: d["points"].append(dict(d["points"][0])))
        faults.append(lambda d: d["points"][0].update(pt=["1/0", "1"]))
        faults.append(lambda d: d["points"][0].update(coeff="inf"))
    if "fibers" in doc:
        faults.append(lambda d: d.update(dim=True))
        faults.append(lambda d: d["symmetry"].update(induced_cyclic=1))
        if doc["fibers"]:
            faults.append(lambda d: d["fibers"][0].update(point=[0, 0]))
    if "moebius_generators" in doc:
        faults.append(lambda d: d["moebius_generators"][0].append(["1", "1"]))
    if "weights" in doc:
        faults.append(lambda d: d["weights"][0].append(1))
        faults.append(lambda d: d.update(labels=d["labels"][:1] * 2))
    if "fan" in doc:
        faults.append(lambda d: d["fan"]["cones"][0]["generators"].append([1]))
    rng.choice(faults)(doc)
    return doc


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def threshold_cases(rng: random.Random, command: str) -> list[tuple]:
    """(argv, document) pairs for ``lct`` or ``valuable``."""
    cases = []
    relaxed = command == "valuable"
    for k, gens in enumerate(GROUPS):
        for j in range(4):
            h = random_conjugator(rng) if j else None
            orbits = 0 if (k in QUADRATIC and j < 2) else rng.randint(1, 3)
            doc = pair_document(rng, f"{command}-g{k}-{j}", conjugated(gens, h), orbits, relaxed)
            cases.append(([command, "{file}"] + (["--json"] if j == 3 else []), doc))
    for i, gens in enumerate(BIG_INVOLUTIONS):
        cases.append(([command, "{file}"], {"name": f"big-involution-{i}", "points": [], "moebius_generators": [gens]}))
    big = [conjugated(D4_BIG, element(D4_BIG_CONJUGATOR)), conjugated(GROUPS[5], element(BIG_ENTRIES)),
           conjugated(GROUPS[10], element(BIG_ENTRIES))]
    for i, gens in enumerate(big):
        doc = pair_document(rng, f"big-fields-{i}", gens, 1)
        cases.append(([command, "{file}"], doc))
        cases.append(([command, "{file}", "--json"], dict(doc, points=[])))
    # -inf coefficients, an infinite group, a marked set that is not a union of orbits
    cases.append(([command, "{file}"], pair_document(rng, "relaxed", conjugated(GROUPS[1], sl2z(rng)), 2, True)))
    cases.append(([command, "{file}"], {"name": "translation", "points": [],
                                        "moebius_generators": [[["1", "1"], ["0", "1"]]]}))
    cases.append(([command, "{file}"], {"name": "not-orbit-closed", "points": [{"pt": ["2", "1"], "coeff": "1/2"}],
                                        "moebius_generators": [[["0", "1"], ["1", "0"]]]}))
    return cases


def tvar_cases(rng: random.Random) -> list[tuple]:
    cases = []
    for k, gens in enumerate(GROUPS):
        for j in range(4):
            h = random_conjugator(rng) if j else None
            declared = j == 2
            doc = variety_document(rng, f"tvar-g{k}-{j}", conjugated(gens, h), rng.randint(0, 3) if declared else
                                   rng.randint(0, 2), declared, gaps=0.3 if j == 1 else 0)
            cases.append((["tvar", "check", "{file}"] + (["--json"] if j == 3 else []), doc))
    for k in QUADRATIC + [7, 8]:
        # a declared action with at least 3 fibers
        doc = variety_document(rng, f"tvar-declared-{k}", conjugated(GROUPS[k], sl2z(rng)), 3, True)
        cases.append((["tvar", "check", "{file}"], doc))
    for k in (1, 2, 4, 7, 8):
        doc = variety_document(rng, f"tvar-gaps-{k}", conjugated(GROUPS[k], gl2q(rng)), 2, k == 8, gaps=0.7)
        cases.append((["tvar", "check", "{file}"], doc))
    big = conjugated(D4_BIG, element(D4_BIG_CONJUGATOR))
    cases.append((["tvar", "check", "{file}"], variety_document(rng, "tvar-big-fields", big, 1, False)))
    translation = variety_document(rng, "tvar-translation", [element(IDENTITY)], 0, False)
    rank = translation["dim"] - 1
    translation["symmetry"] = {
        "lattice_generators": [[[-int(i == j) for j in range(rank)] for i in range(rank)]],
        "moebius_generators": [[["1", "1"], ["0", "1"]]],
    }
    translation["fano"] = True
    cases.append((["tvar", "check", "{file}"], translation))
    return cases


def git_cases(rng: random.Random, command: str) -> list[tuple]:
    cases = []
    for rank in (1, 2, 3):
        # n = 7 in rank 3 only keeps the 2^n reports of the corpus small
        for n in range(2, 8 if rank == 3 else 7):
            doc = weights_document(rng, f"{command}-{n}x{rank}", n, rank)
            if command == "locus":
                argv = ["git", "locus", "{file}"] + (["--json"] if n <= 3 else [])
            else:
                support = sorted(rng.sample(doc["labels"], rng.randint(0, n)), key=doc["labels"].index)
                argv = ["git", "polystable", "{file}", "--support", ",".join(support)]
                if n % 3 == 0:
                    argv.append("--json")
            cases.append((argv, doc))
    if command == "polystable":
        doc = weights_document(rng, "unknown-label", 3, 1)
        cases.append((["git", "polystable", "{file}", "--support", "x0,nope"], doc))
    else:
        cases.append((["git", "locus", "{file}"], weights_document(rng, "too-many", 21, 1)))
    return cases


def chow_cases(rng: random.Random) -> list[tuple]:
    cases = []
    for rank, target in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
        for j in range(4):
            doc = chow_document(rng, f"chow-{rank}-{target}-{j}", rank, target)
            cases.append((["chow", "{file}"] + (["--json"] if j == 3 else []), doc))
    return cases


def build() -> dict[str, list[tuple]]:
    lct = threshold_cases(random.Random(1601), "lct")
    valuable = threshold_cases(random.Random(1602), "valuable")
    tvar = tvar_cases(random.Random(1603))
    polystable = git_cases(random.Random(1604), "polystable")
    locus = git_cases(random.Random(1605), "locus")
    chow = chow_cases(random.Random(1606))
    rng = random.Random(1607)
    lattice = [(["lattice", "symmetric", "{file}"] + (["--json"] if k % 4 == 3 else []),
                lattice_document(rng, f"lattice-{k}")) for k in range(12)]
    validate = []
    for source in (lct, tvar, locus, chow, lattice):
        for _, doc in rng.sample(source, 4):
            validate.append((["validate", "{file}"], doc))
            validate.append((["validate", "{file}"] + (["--json"] if len(validate) % 3 == 0 else []),
                             malformed(rng, doc)))
    validate.append((["validate", "{file}"], {"name": "unknown-kind", "rows": []}))
    # a malformed document fails every command that loads it
    loaders = [(["lct", "{file}"], lct), (["tvar", "check", "{file}"], tvar), (["chow", "{file}"], chow)]
    for argv, source in loaders:
        validate.append((argv, malformed(rng, rng.choice(source)[1])))
    selftest = [(["selftest", "--seed", "3", "--cases", "12"], None)]
    return {
        "lct": lct,
        "valuable": valuable,
        "tvar-check": tvar,
        "git-polystable": polystable,
        "git-locus": locus,
        "chow": chow,
        "lattice-symmetric": lattice,
        "validate": validate,
        "selftest": selftest,
    }


def run_case(argv: list[str], document, directory: Path) -> tuple[int, str]:
    """Exit code and stdout of one case, with the document written to ``directory``."""
    path = directory / "document.json"
    if document is not None:
        path.write_text(json.dumps(document), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run([str(path) if a == "{file}" else a for a in argv])
    return code, out.getvalue()


def main() -> None:
    CORPUS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, cases in build().items():
            lines = []
            for argv, document in cases:
                code, stdout = run_case(argv, document, Path(tmp))
                case = {"argv": argv, "document": document, "exit": code, "stdout": stdout}
                lines.append(json.dumps(case, sort_keys=True, ensure_ascii=False))
            (CORPUS / f"{command}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            codes = sorted({json.loads(line)["exit"] for line in lines})
            print(f"{command}: {len(lines)} cases, exit codes {codes}")


if __name__ == "__main__":
    main()
