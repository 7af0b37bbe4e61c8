import itertools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from symfano import exact
from symfano.cli import run
from symfano.errors import InputError
from symfano.exact import (
    IntMatrix,
    PositiveCombination,
    ProjPoint,
    SemipositiveWitness,
    integer_kernel,
    smith_normal_form,
)
from symfano.quotients import WeightMatrix, polystable_locus
from symfano.rationals import parse_rat, parse_ratio, rat, rat_str, ratio_str, squarefree_decompose
from symfano.schemas import fixture_path


def snf_invariants(a):
    u, d, v = smith_normal_form(a)
    assert u * a * v == d
    for m in (u, d, v, u * a, u * a * v, u - u):  # the shapes the public constructor gives
        rebuilt = IntMatrix(m.entries)
        assert (m.rows, m.cols) == (rebuilt.rows, rebuilt.cols)
    assert u.is_unimodular() and v.is_unimodular()
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    return diag


def test_snf_examples():
    assert snf_invariants(IntMatrix([[2, 0], [0, 3]])) == [1, 6]
    assert snf_invariants(IntMatrix.identity(3)) == [1, 1, 1]
    assert snf_invariants(IntMatrix([[0, 0], [0, 0]])) == [0, 0]


def test_snf_random(rng, property_cases):
    for _ in range(property_cases):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        snf_invariants(IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]))


def test_tvar_check_builds_only_input_matrices_through_the_checking_constructor(monkeypatch, capsys):
    # the one lattice generator of quadric.json; the identity, difference,
    # stacked matrix and Smith normal form of the symmetry test are the
    # package's own ints and are built unchecked
    calls = []
    init = IntMatrix.__init__

    def counting_init(self, entries):
        calls.append(entries)
        init(self, entries)

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    assert run(["tvar", "check", str(fixture_path("quadric.json"))]) == 0
    assert "ke_certified: false" in capsys.readouterr().out
    assert len(calls) == 1


def test_intmatrix_accepts_only_ints():
    big = 10**40
    assert IntMatrix([(1, -2), [3, big]]).entries == ((1, -2), (3, big))
    for bad in (1.5, 2.0, Fraction(7, 2), Fraction(4, 1), True, False, "3", None):
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [bad, 3]])
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IntMatrix([[1, 2]]) * IntMatrix([[1, 2]]), "dimension mismatch in product"),
        (lambda: IntMatrix([[1, 2]]) - IntMatrix([[1], [2]]), "dimension mismatch in difference"),
        (lambda: IntMatrix([[1, 2]]).apply((1, 2, 3)), "dimension mismatch in matrix-vector product"),
        (lambda: IntMatrix([[1, 2]]).det(), "determinant of a non-square matrix"),
    ],
    ids=["product", "difference", "apply", "det"],
)
def test_exact_input_checks(call, message):
    with pytest.raises(InputError, match=message):
        call()


def vector_gcd(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


def test_integer_kernel_examples():
    assert integer_kernel(IntMatrix([[1, -1]])) in ([(1, 1)], [(-1, -1)])
    assert integer_kernel(IntMatrix([[1, 0], [0, 1]])) == []
    (v,) = integer_kernel(IntMatrix([[2, 4]]))
    assert v in ((2, -1), (-2, 1))  # saturated, not twice a primitive vector
    assert vector_gcd(v) == 1


def test_integer_kernel_random(rng, property_cases):
    for _ in range(property_cases):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        kernel = integer_kernel(a)
        for v in kernel:
            assert all(x == 0 for x in a.apply(v))
            assert vector_gcd(v) == 1
        _, d, _ = smith_normal_form(a)
        rank = sum(1 for i in range(min(rows, cols)) if d[i, i] != 0)
        assert len(kernel) + rank == cols


# primes above the trial-division bound 2^16 of squarefree_decompose
BIG_PRIMES = (65537, 65539, 65543, 1000003, 2**31 - 1)


def test_big_primes_are_prime():
    for q in BIG_PRIMES:
        assert q > 2**16 and all(q % p for p in range(2, math.isqrt(q) + 1))


def test_squarefree_decompose_past_the_trial_bound(rng):
    """n = k^2 * m * c with k and m over small primes and c made of primes
    above 2^16: s^2 * d == n always, d == 1 exactly when n is a square, and d
    is the squarefree m * c whenever the cofactor c is below 2^48."""
    for _ in range(60):
        k = rng.randint(1, 500)
        m = rng.choice((1, -1, 2, -3, 6, -10, 30, 2 * 3 * 5 * 7 * 11 * 13))
        q1, q2 = rng.sample(BIG_PRIMES, 2)
        for c, square_part in ((q1, 1), (q1 * q2, 1), (q1 * q1, q1), (q1 * q1 * q2 * q2, q1 * q2)):
            n = k * k * m * c
            s, d = squarefree_decompose(n)
            assert s >= 1 and s * s * d == n
            assert (d == 1) == (n > 0 and math.isqrt(n) ** 2 == n)
            if c < 2**48:
                assert (s, d) == (k * square_part, m * c // (square_part * square_part))
    # a cofactor above 2^48 may keep the square of a large prime in d
    q, r = 2**31 - 1, 1000003
    s, d = squarefree_decompose(q * q * r)
    assert s * s * d == q * q * r and d != 1
    assert squarefree_decompose(4 * q * q * r * r) == (2 * q * r, 1)
    assert squarefree_decompose(-9 * q * q * r * r) == (3 * q * r, -1)


def test_projpoint_eq_hash_contract():
    # a ProjPoint equals only ProjPoints, so equal points hash equal
    assert (ProjPoint.from_affine(3) == (3, 1)) is False
    assert len({ProjPoint.from_affine(3), (3, 1)}) == 2
    assert ProjPoint.from_affine(1) != "abc"
    assert len({ProjPoint.from_affine(3), ProjPoint(Fraction(6, 2), 1), ProjPoint("-9", "-3")}) == 1
    root = ProjPoint.from_affine(0, 1, 8)
    assert root == ProjPoint.from_affine(0, 2, 2) and hash(root) == hash(ProjPoint.from_affine(0, 2, 2))
    assert (root.coords, root.d, str(root)) == ((1, 0, -8, 1), 2, "2*sqrt(2)")
    # b == 0 is a rational point; a square d or a missing d is an input error
    assert ProjPoint.from_affine(5, 0, 2) == ProjPoint.from_affine(5) and ProjPoint.from_affine(5).d is None
    for bad in ((0, 1, 4), (0, 1, 0), (1, 1, None)):
        with pytest.raises(InputError):
            ProjPoint.from_affine(*bad)


def test_projpoint_equality_without_squarefree_d(rng):
    """d = s^2 * f with a prime above 2^16 in s and in f keeps s^2 inside d,
    yet both ways of writing the point compare and hash equal; each prints
    over the d it was given."""
    big = (65537, 65539, 1000003, 2**31 - 1)
    for _ in range(40):
        f = rng.choice(big) * rng.choice((1, -1, 2, -3, 6, -10))
        s = rng.choice(big) * rng.randint(1, 30)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        hidden, plain = ProjPoint.from_affine(a, b, s * s * f), ProjPoint.from_affine(a, b * s, f)
        assert hidden.d != plain.d and hidden.d % f == 0
        assert hidden == plain and plain == hidden and hash(hidden) == hash(plain)
        conjugate, shifted = ProjPoint.from_affine(a, -b * s, f), ProjPoint.from_affine(a + 1, b * s, f)
        assert len({hidden, plain, conjugate, shifted}) == 3
        assert str(plain) != str(hidden) and f"sqrt({hidden.d})" in str(hidden)
        # the key reads a and b over the point's own d, here b times the
        # square root k of the small square factors taken out of s^2 * f
        k = math.isqrt(s * s * f // hidden.d)
        assert hidden.sort_key() == (0, (hidden.d, (a.numerator, a.denominator), ((b * k).numerator, (b * k).denominator)))


def test_projpoint_canonical_form(rng, property_cases):
    for _ in range(property_cases):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        y = rng.choice((Fraction(0), Fraction(1), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
        if not x and not y:
            continue
        p = ProjPoint(x, y)
        u, v = p.coords
        assert v > 0 and math.gcd(u, v) == 1 if v else (u, v) == (1, 0)
        assert (p == ProjPoint.infinity()) == (not y) and p.d is None
        assert p == ProjPoint(*p.coords) and hash(p) == hash(ProjPoint(*p.coords))
        if y:
            assert p == ProjPoint.from_affine(x / y) and Fraction(str(p)) == x / y
            assert p.sort_key() == (0, (0, (u, v), (0, 1)))
        else:
            assert str(p) == "inf" and p.sort_key() == (1, (0, (1, 1), (0, 1)))


def test_projpoint_equality_is_equivalence(rng):
    pts = [ProjPoint(rat(a), rat(b)) for a, b in ((2, 4), (1, 2), (-3, -6), (1, 0), (5, 0), (0, 1))]
    for p in pts:
        assert p == p
    for p in pts:
        for q in pts:
            assert (p == q) == (q == p)
            if p == q:
                assert hash(p) == hash(q)
    for p in pts:
        for q in pts:
            for r in pts:
                if p == q and q == r:
                    assert p == r
    # canonicalization is idempotent
    p = ProjPoint(rat(2), rat(4))
    assert ProjPoint(*p.coords) == p
    with pytest.raises(InputError):
        ProjPoint(rat(0), rat(0))


def test_projpoint_across_extensions():
    irrational = ProjPoint.from_affine(0, 1, 2)
    assert irrational != ProjPoint.from_affine(rat(1))
    assert irrational.d == 2 and str(irrational) == "sqrt(2)"
    assert irrational != ProjPoint.from_affine(0, 1, -2) != ProjPoint.from_affine(0, 1, 3)


def test_positive_combination_keeps_integers(rng):
    """lambda is held as numerators over one denominator: the public
    constructor on the rationals lambda_i gives it back, and the report
    renders each coefficient as ``rat_str`` does."""
    seen = 0
    for _ in range(200):
        w = IntMatrix([[rng.randint(-5, 5) for _ in range(5)] for _ in range(2)])
        out = exact._decide(w.entries, {})[1]
        if isinstance(out, PositiveCombination):
            seen += 1
            coefficients = [Fraction(n, out.denominator) for n in out.numerators]
            again = PositiveCombination(coefficients)
            assert again == out and hash(again) == hash(out)
            assert (again.numerators, again.denominator) == (out.numerators, out.denominator)
            assert out.denominator > 0 and math.gcd(out.denominator, *out.numerators) == 1
            rendered = [ratio_str(n, out.denominator) for n in out.numerators]
            assert rendered == [rat_str(c) for c in coefficients]
    assert seen
    lam = PositiveCombination(("1/2", 3, Fraction(-2, 3)))
    assert (lam.numerators, lam.denominator) == ((3, 18, -4), 6)
    assert repr(lam) == "PositiveCombination(numerators=(3, 18, -4), denominator=6)"


def test_rational_serialization():
    assert rat_str(rat(-3, 6)) == "-1/2"
    assert rat_str(rat(7)) == "7"
    assert parse_rat("-3/4") == rat(-3, 4)
    assert parse_rat("1/-2") == rat(-1, 2)
    assert parse_rat(5) == rat(5)
    with pytest.raises(InputError):
        parse_rat("1/0")
    with pytest.raises(InputError):
        parse_rat("x")


def test_parse_ratio_keeps_the_written_integers():
    assert parse_ratio("-3/4") == (-3, 4)
    assert parse_ratio("2/-6") == (2, -6)
    assert parse_ratio("+3") == (3, 1)
    assert parse_ratio("7") == parse_ratio(7) == (7, 1)
    for text, message in (("1/0", "zero denominator in '1/0'"), ("x", "not a rational: 'x'"),
                          ("1/2/3", "not a rational: '1/2/3'"), (True, "not a rational: True"),
                          (0.5, "not a rational: 0.5")):
        for parse in (parse_ratio, parse_rat):
            with pytest.raises(InputError) as info:
                parse(text)
            assert str(info.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.5,), "not a rational: 0.5"),
        ((True,), "not a rational: True"),
        ((1, 0.5), "not a rational: 0.5"),
        ((1, 0), "zero denominator in rat(1, 0)"),
        ((1, "0/3"), "zero denominator in rat(1, '0/3')"),
    ],
    ids=["float", "bool", "float-denominator", "zero-denominator", "zero-rational-denominator"],
)
def test_rat_refuses_what_is_not_an_exact_rational(args, message):
    with pytest.raises(InputError) as info:
        rat(*args)
    assert str(info.value) == message


def test_rat_takes_ints_strings_and_rationals():
    assert rat(Fraction(1, 2)) == rat("1/2") == rat(1, 2) == rat(3, "6")
    assert rat(Fraction(1, 2), Fraction(-1, 3)) == rat(-3, 2)
    assert type(rat(5)) is type(rat(Fraction(5))) is Fraction


def check_witness(w, result):
    pairings = [sum(a * b for a, b in zip(result.vector, w.col(j))) for j in range(w.cols)]
    assert all(p >= 0 for p in pairings)
    assert any(p > 0 for p in pairings)


def test_decide_examples():
    out = exact._decide(((-1, 1), (1, -1)), {})[1]
    assert isinstance(out, PositiveCombination) and (out.numerators, out.denominator) == ((1, 1), 1)

    w = IntMatrix([[-2, 1], [1, -2]])
    out = exact._decide(w.entries, {})[1]
    assert isinstance(out, SemipositiveWitness)
    check_witness(w, out)

    out = exact._decide(((-2, 1, 1), (1, -2, 1)), {})[1]
    assert isinstance(out, PositiveCombination)
    assert (out.numerators, out.denominator) == ((1, 1, 1), 1)


def test_decide_random(rng, property_cases):
    for _ in range(property_cases):
        d, n = rng.randint(1, 3), rng.randint(1, 6)
        w = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        out = exact._decide(w.entries, {})[1]
        if isinstance(out, PositiveCombination):
            lam = out.numerators  # lambda_i = lam[i] / out.denominator
            assert all(c >= out.denominator for c in lam)
            for i in range(d):
                assert sum(x * c for x, c in zip(w.entries[i], lam)) == 0
        else:
            check_witness(w, out)


def reference_certificate(w):
    """Phase-one simplex with Bland's rule on a Fraction tableau, the textbook way."""
    rows, n, m = [list(r) for r in w.entries], w.cols, w.rows
    signs = [-1 if sum(r) > 0 else 1 for r in rows]  # orient the rhs -w 1 to be >= 0
    tab = [
        [Fraction(s * x) for x in r] + [Fraction(int(j == i)) for j in range(m)] + [Fraction(-s * sum(r))]
        for i, (r, s) in enumerate(zip(rows, signs))
    ]
    basis = list(range(n, n + m))
    z = [int(n <= j < n + m) - sum(col) for j, col in enumerate(zip(*tab))]
    while (enter := next((j for j in range(n + m) if z[j] < 0), None)) is not None:
        leave = min(
            (i for i in range(m) if tab[i][enter] > 0),
            key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]),
        )
        p = tab[leave] = [x / tab[leave][enter] for x in tab[leave]]
        tab = [r if i == leave else [x - r[enter] * y for x, y in zip(r, p)] for i, r in enumerate(tab)]
        z = [x - z[enter] * y for x, y in zip(z, p)]
        basis[leave] = enter
    if z[-1] == 0:
        lam = [Fraction(1)] * n
        for r, b in zip(tab, basis):
            if b < n:
                lam[b] += r[-1]
        return PositiveCombination(tuple(lam))
    y = [s * (1 - zj) for s, zj in zip(signs, z[n : n + m])]
    scale = math.lcm(*(v.denominator for v in y))
    ints = [int(v * scale) for v in y]
    return SemipositiveWitness(tuple(-v // math.gcd(*ints) for v in ints))


def random_columns(rng, d: int, n: int, bound: int) -> list[list[int]]:
    """n columns of length d with entries in [-bound, bound], some of them
    zero and some repeating an earlier one: both make degenerate ties."""
    cols = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            cols.append([0] * d)
        elif roll < 0.3 and cols:
            cols.append(list(rng.choice(cols)))
        else:
            cols.append([rng.randint(-bound, bound) for _ in range(d)])
    return cols


def test_phase_one_matches_fraction_reference(rng):
    # a third of the cases have entries in [-2, 2], where ratio ties are
    # common, so Bland's tie-break of both kernels meets the reference too
    for case in range(600):
        d, n = rng.randint(1, 4), rng.randint(1, 9)
        cols = random_columns(rng, d, n, 2 if case % 3 == 0 else 7)
        w = IntMatrix([[col[i] for col in cols] for i in range(d)])
        assert exact._decide(w.entries, {})[1] == reference_certificate(w), w


def test_two_row_phase_one_makes_the_general_pivots(monkeypatch, rng):
    # ``_decide`` reaches the two-row kernel with two rows and the general
    # one with any other number; the LPs of the rank-2 loci are recorded
    calls = []

    def recorded(kind, kernel):
        def run(rows, rhs):
            calls.append((kind, rows, rhs))
            return kernel(rows, rhs)

        return run

    two_row, general = exact._two_row_phase_one, exact._general_phase_one
    monkeypatch.setattr(exact, "_two_row_phase_one", recorded(2, two_row))
    monkeypatch.setattr(exact, "_general_phase_one", recorded("*", general))
    for d in (1, 2, 3, 2, 2, 2) * 4:
        n = rng.randint(3, 7)
        cols = random_columns(rng, d, n, 2)
        polystable_locus(WeightMatrix([f"x{i}" for i in range(n)], IntMatrix([[c[i] for c in cols] for i in range(d)])))
    assert {(kind, len(rows)) for kind, rows, _ in calls} == {("*", 1), (2, 2), ("*", 3)}
    lps = [(rows, rhs) for kind, rows, rhs in calls if kind == 2]
    # and two rows with any right-hand side, zeros included
    for _ in range(400):
        cols = random_columns(rng, 2, rng.randint(1, 6), 2)
        lps.append((tuple(zip(*cols)), [rng.randint(-3, 3) for _ in range(2)]))
    # and the workload's sizes, up to 11 columns with entries in [-7, 7], with
    # a locus's right-hand side -w 1 and with any other
    for case in range(300):
        rows = tuple(zip(*random_columns(rng, 2, rng.randint(8, 11), 7)))
        rhs = [-sum(row) for row in rows] if case % 2 else [rng.randint(-7, 7) for _ in range(2)]
        lps.append((rows, rhs))
    assert len(lps) > 1300
    for rows, rhs in lps:
        assert two_row(rows, rhs) == general(rows, rhs), (rows, rhs)


def test_every_small_two_row_phase_one_makes_the_general_pivots():
    # every two-row LP with entries in [-1, 1], one to three columns and a
    # right-hand side in [-2, 2]^2; the general kernel still lets a departed
    # artificial column enter, so a re-entry there would show as a mismatch
    columns = list(itertools.product((-1, 0, 1), repeat=2))
    rhss = list(itertools.product(range(-2, 3), repeat=2))
    lps = 0
    for n in (1, 2, 3):
        for cols in itertools.product(columns, repeat=n):
            rows = tuple(zip(*cols))
            for rhs in rhss:
                assert exact._two_row_phase_one(rows, rhs) == exact._general_phase_one(rows, rhs), (rows, rhs)
                lps += 1
    assert lps == 819 * 25


def test_two_row_phase_one_makes_the_general_pivots_on_huge_entries(rng):
    # the schema takes any int, so the minors must be as exact as the
    # general kernel's row updates on entries of 10^18 to 10^30; exact
    # powers of ten, zero and repeated columns make ties among them
    def entry():
        magnitude = 10 ** rng.randint(18, 30)
        return rng.choice((-1, 1)) * (magnitude if rng.random() < 0.3 else rng.randint(10**18, magnitude))

    for case in range(1000):
        cols = []
        for _ in range(rng.randint(1, 9)):
            roll = rng.random()
            if roll < 0.1:
                cols.append((0, 0))
            elif roll < 0.25 and cols:
                cols.append(rng.choice(cols))
            else:
                cols.append((entry(), entry()))
        rows = tuple(zip(*cols))
        if case % 2:
            rhs = (-sum(rows[0]), -sum(rows[1]))
            exact._decide(rows, {})  # its certificate passes the check
        else:
            rhs = (entry(), rng.choice((0, entry())))
        assert exact._two_row_phase_one(rows, rhs) == exact._general_phase_one(rows, rhs), (rows, rhs)


def test_two_row_certificate_check_agrees_with_certifies(rng):
    """``_certifies_two_rows`` gives ``_certifies``'s answer on right
    certificates of both kinds, on certificates that break one clause
    alone, and on random integers of any length."""
    cases = []
    for _ in range(300):
        n = rng.randint(1, 6)
        r0, r1 = rows = tuple(zip(*random_columns(rng, 2, n, 4)))
        polystable, cert = exact._decide(rows, {})
        if polystable:
            *nums, den = ints = (*cert.numerators, cert.denominator)
            cases += [
                (rows, True, ints, True),
                # one numerator too many: ``map`` pairs the rows with the first n
                (rows, True, (*nums, 1, den), False),
                # one too few, balancing once a zero column is appended
                ((r0 + (0,), r1 + (0,)), True, ints, False),
                (rows, True, (*nums, 0), False),
                (rows, True, (*nums, -den), False),
                (rows, True, (*(-x for x in nums), den), False),
                # one row changed by one: only that row fails to balance
                (((r0[0] + 1, *r0[1:]), r1), True, ints, False),
                ((r0, (r1[0] + 1, *r1[1:])), True, ints, False),
            ]
        else:
            v0, v1 = vector = cert.vector
            cases += [
                (rows, False, vector, True),
                # a column that pairs to 0 leaves it right
                ((r0 + (-v1,), r1 + (v0,)), False, vector, True),
                (rows, False, (v0,), False),
                (rows, False, (*vector, 5), False),
                # every pairing 0, or one negative beside the positive ones
                (rows, False, (0, 0), False),
                ((r0 + (-v0,), r1 + (-v1,)), False, vector, False),
            ]
        for _ in range(3):
            polystable = rng.random() < 0.5
            length = rng.choice((n + 1, rng.randint(0, n + 2))) if polystable else rng.choice((2, 2, 1, 3))
            cases.append((rows, polystable, tuple(rng.randint(-3, 3) for _ in range(length)), None))
    for rows, polystable, ints, expected in cases:
        answer = exact._certifies(rows, polystable, ints)
        assert exact._certifies_two_rows(*rows, polystable, ints) is answer, (rows, polystable, ints)
        if expected is not None:
            assert answer is expected, (rows, polystable, ints)
    kinds = {(polystable, expected) for _, polystable, _, expected in cases}
    assert kinds == {(True, True), (True, False), (False, True), (False, False), (True, None), (False, None)}


def test_internal_check_survives_python_O(fresh_env):
    script = textwrap.dedent(
        """
        import sys
        from symfano import exact
        from symfano.errors import InternalError

        wrong = {
            "point": ([[-2, 1], [1, -2]], (True, [0, 0], 1)),
            "witness": ([[-1, 1], [1, -1]], (False, [1, 1], 1)),
            # x = (-1, -1) solves w x = -w 1, so only its sign is wrong
            "negative": ([[1, -1]], (True, [-1, -1], 1)),
            # the witness (1, 0) pairs as (-2, 1): positive with one column only
            "mixed": ([[-2, 1], [1, -2]], (False, [-1, 0], 1)),
        }
        # the same columns under a zero row, which ``_certifies`` checks in
        # place of ``_certifies_two_rows``
        for name in ("point", "witness", "mixed"):
            matrix, (feasible, nums, den) = wrong[name]
            wrong[name + ", three rows"] = ([*matrix, [0, 0]], (feasible, nums if feasible else [*nums, 0], den))
        for name, (matrix, answer) in wrong.items():
            exact._phase_one = lambda rows, rhs: answer
            try:
                exact._decide(exact.IntMatrix(matrix).entries, {})
            except InternalError as exc:
                print(name, sys.flags.optimize, exc, sep=": ")
        """
    )
    command = [sys.executable, "-O", "-c", script]
    out = subprocess.run(command, env=fresh_env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "point: 1: phase one returned [0, 0]/1, not a point of w x = -w 1, x >= 0",
        "witness: 1: phase one returned (-1, -1), which pairs with the columns as [0, 0]",
        "negative: 1: phase one returned [-1, -1]/1, not a point of w x = -w 1, x >= 0",
        "mixed: 1: phase one returned (1, 0), which pairs with the columns as [-2, 1]",
        "point, three rows: 1: phase one returned [0, 0]/1, not a point of w x = -w 1, x >= 0",
        "witness, three rows: 1: phase one returned (-1, -1, 0), which pairs with the columns as [0, 0]",
        "mixed, three rows: 1: phase one returned (1, 0, 0), which pairs with the columns as [-2, 1]",
    ]


def test_decide_answers_no_columns_and_shares_both_kinds_in_one_dict(monkeypatch):
    # the witness (1, 1) and lambda = (1,) over 1 have the same integers
    interned = {}
    combination = exact._decide(((0,),), interned)
    witness = exact._decide(((2, -1), (-1, 2)), interned)
    assert combination == (True, PositiveCombination((1,)))
    assert witness == (False, SemipositiveWitness((1, 1)))
    assert exact._decide(((0,),), interned) is combination
    assert exact._decide(((2, -1), (-1, 2)), interned) is witness
    assert len(interned) == 2
    # no rows, which is how ``zip`` hands over no columns: the empty
    # combination, without the simplex
    monkeypatch.setattr(exact, "_phase_one", None)
    assert exact._decide((), {}) == (True, PositiveCombination(()))
