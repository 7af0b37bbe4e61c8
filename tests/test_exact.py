import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from symfano import exact
from symfano.errors import InputError, NoRoot
from symfano.exact import (
    IntMatrix,
    PositiveCombination,
    ProjPoint,
    QE_ONE,
    QE_ZERO,
    QuadExtScalar,
    SemipositiveWitness,
    integer_kernel,
    quadratic_roots,
    smith_normal_form,
    solve_positive_combination,
)
from symfano.rationals import parse_rat, rat, rat_str, squarefree_decompose


def snf_invariants(a):
    u, d, v = smith_normal_form(a)
    assert u * a * v == d
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


def test_intmatrix_accepts_only_ints():
    big = 10**40
    assert IntMatrix([(1, -2), [3, big]]).entries == ((1, -2), (3, big))
    for bad in (1.5, 2.0, Fraction(7, 2), Fraction(4, 1), True, False, "3", None):
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [bad, 3]])
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])


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


def eval_quadratic(a, b, c, root):
    return QuadExtScalar(rat(a)) * root * root + QuadExtScalar(rat(b)) * root + QuadExtScalar(rat(c))


def test_quadratic_roots_examples():
    r1, r2 = quadratic_roots(1, 0, -2)
    assert (r1.d, r1.a, r1.b) == (2, 0, 1) and (r2.a, r2.b) == (0, -1)
    r1, r2 = quadratic_roots(1, 0, -1)
    assert (r1.a, r2.a) == (1, -1) and r1.d is None
    r1, r2 = quadratic_roots(1, 1, 1)
    assert r1.d == -3 and r1.a == rat(-1, 2) and r1.b == rat(1, 2)
    assert eval_quadratic(1, 1, 1, r1).is_zero() and eval_quadratic(1, 1, 1, r2).is_zero()


def test_quadratic_roots_degenerate():
    (root,) = quadratic_roots(0, 2, 5)
    assert root.a == rat(-5, 2) and root.d is None
    (double,) = quadratic_roots(1, -4, 4)
    assert double.a == 2
    with pytest.raises(NoRoot):
        quadratic_roots(0, 0, 5)
    with pytest.raises(InputError):
        quadratic_roots(0, 0, 0)


def test_quadratic_roots_random(rng, property_cases):
    for _ in range(property_cases):
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        if (a, b, c) == (0, 0, 0) or (a == 0 and b == 0):
            continue
        for root in quadratic_roots(a, b, c):
            assert eval_quadratic(a, b, c, root).is_zero()


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


def test_quadratic_roots_rational_past_the_trial_bound():
    """(t - q)(t + 3q) has the square discriminant 16 q^2, whose cofactor q^2
    exceeds 2^32: both roots come out rational."""
    for q in BIG_PRIMES:
        r1, r2 = quadratic_roots(1, 2 * q, -3 * q * q)
        assert r1.d is None and r2.d is None
        assert (r1.a, r2.a) == (q, -3 * q)
        r1, r2 = quadratic_roots(Fraction(1, 7), Fraction(2 * q, 7), Fraction(-3 * q * q, 7))
        assert (r1, r2) == (QuadExtScalar(q), QuadExtScalar(-3 * q))


def test_quadext_arithmetic():
    s2 = QuadExtScalar(0, 1, 2)
    assert (s2 * s2).a == 2 and (s2 * s2).d is None
    x = QuadExtScalar(rat(1, 2), rat(3), 2)
    assert (x - x).is_zero()
    assert (x / x) == QuadExtScalar(1)
    # b = 0 collapses to the rational marker
    collapsed = s2 - s2 + QuadExtScalar(5)
    assert collapsed.d is None and collapsed == QuadExtScalar(rat(5))
    # non-squarefree d is normalized
    assert QuadExtScalar(0, 1, 8) == QuadExtScalar(0, 2, 2)
    # documents never mix two fields; a library call that does is an input error
    with pytest.raises(InputError):
        s2 + QuadExtScalar(0, 1, 3)
    with pytest.raises(InputError):
        ProjPoint(s2, QuadExtScalar(0, 1, 3))
    with pytest.raises(InputError):
        QuadExtScalar(0, 1, 4)


def test_quadext_eq_hash_contract():
    # a QuadExtScalar equals only QuadExtScalars, so equal values hash equal
    assert (QuadExtScalar(3) == 3) is False
    assert len({QuadExtScalar(3), 3}) == 2
    assert (QuadExtScalar(1) == "abc") is False
    assert QuadExtScalar(1) != "abc"
    assert len({QuadExtScalar(3), QuadExtScalar(Fraction(6, 2)), QuadExtScalar(1) + 2}) == 1
    root = QuadExtScalar(0, 1, 8)
    assert root == QuadExtScalar(0, 2, 2) and hash(root) == hash(QuadExtScalar(0, 2, 2))


def test_quadext_equality_without_squarefree_d(rng):
    """d = s^2 * f with a prime above 2^16 in s and in f keeps s^2 inside d,
    yet both ways of writing the value compare and hash equal."""
    big = (65537, 65539, 1000003, 2**31 - 1)
    for _ in range(40):
        f = rng.choice(big) * rng.choice((1, -1, 2, -3, 6, -10))
        s = rng.choice(big) * rng.randint(1, 30)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        hidden, plain = QuadExtScalar(a, b, s * s * f), QuadExtScalar(a, b * s, f)
        assert hidden.d != plain.d and hidden.d % f == 0
        assert hidden == plain and plain == hidden and hash(hidden) == hash(plain)
        assert len({hidden, plain, QuadExtScalar(a, -b * s, f), QuadExtScalar(a + 1, b * s, f)}) == 3
        assert ProjPoint.from_affine(hidden) == ProjPoint.from_affine(plain)
        assert hash(ProjPoint.from_affine(hidden)) == hash(ProjPoint.from_affine(plain))
        # values over the two d combine like values over one
        other = QuadExtScalar(b, a, f)
        assert hidden + other == other + hidden == plain + other
        assert hidden - other == plain - other and other - hidden == other - plain
        assert hidden * other == other * hidden == plain * other
        assert (hidden - plain).is_zero() and hidden / plain == QuadExtScalar(1)
        assert hidden * plain == QuadExtScalar(b * b * s * s * f + a * a, 2 * a * b * s, f)
    # two equal values over the d 65537^2 * p and p add and multiply
    p = 65537 * 65539
    x, y = QuadExtScalar(0, 1, 65537**2 * p), QuadExtScalar(0, 65537, p)
    assert x.d == 65537**2 * p and y.d == p and x == y
    assert x + y == QuadExtScalar(0, 2 * 65537, p) and (x - y).is_zero()
    assert x * y == QuadExtScalar(65537**2 * p)
    imaginary = QuadExtScalar(1, 1, -(65537**2) * p)
    assert imaginary == QuadExtScalar(1, 65537, -p)
    assert imaginary * QuadExtScalar(1, -65537, -p) == QuadExtScalar(1 + 65537**2 * p)
    with pytest.raises(InputError):
        x + QuadExtScalar(0, 1, -p)
    with pytest.raises(InputError):
        x * QuadExtScalar(0, 1, 65537 * p)


def _random_scalar(rng, d):
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if d is not None else 0
    return QuadExtScalar(a, b, d)


def test_quadext_arithmetic_agrees_with_public_constructor(rng, property_cases):
    """Results built without re-validation equal their rebuild through the
    public constructor, componentwise and by hash, and satisfy the field laws."""
    for _ in range(property_cases):
        d = rng.choice((None, -3, -1, 2, 5, 6))
        x = _random_scalar(rng, d)
        y = _random_scalar(rng, rng.choice((None, d)))
        r = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        results = [x + y, x - y, x * y, -x, x + r, r + x, x - r, r - x, x * r, r * x]
        if not y.is_zero():
            results += [x / y, y.inverse()]
            assert (x / y) * y == x
        if r:
            results.append(x / r)
            assert (x / r) * r == x
        if not x.is_zero():
            results.append(r / x)
            assert (r / x) * x == QuadExtScalar(r)
        assert (x - y) + y == x and x + (-x) == QE_ZERO
        for res in results:
            rebuilt = QuadExtScalar(res.a, res.b, res.d)
            assert (res.a, res.b, res.d) == (rebuilt.a, rebuilt.b, rebuilt.d)
            assert type(res.a) is Fraction and type(res.b) is Fraction
            assert res == rebuilt and hash(res) == hash(rebuilt)


def test_projpoint_canonical_form(rng, property_cases):
    for _ in range(property_cases):
        d = rng.choice((None, -1, 2, 3))
        x = _random_scalar(rng, d)
        y = rng.choice((QE_ZERO, QE_ONE, _random_scalar(rng, None), _random_scalar(rng, d)))
        if x.is_zero() and y.is_zero():
            continue
        p = ProjPoint(x, y)
        assert p.y in (QE_ZERO, QE_ONE)
        assert p.is_infinity == (p.y == QE_ZERO)
        assert p == ProjPoint(p.x, p.y) and hash(p) == hash(ProjPoint(p.x, p.y))
        if not y.is_zero():
            assert p.x == x / y


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
    assert ProjPoint(p.x, p.y) == p
    with pytest.raises(InputError):
        ProjPoint(rat(0), rat(0))


def test_projpoint_across_extensions():
    s2 = quadratic_roots(1, 0, -2)[0]
    irrational = ProjPoint.from_affine(s2)
    assert irrational != ProjPoint.from_affine(rat(1))
    assert irrational.x.d == 2


def test_rational_serialization():
    assert rat_str(rat(-3, 6)) == "-1/2"
    assert rat_str(rat(7)) == "7"
    assert parse_rat("-3/4") == rat(-3, 4)
    assert parse_rat(5) == rat(5)
    with pytest.raises(InputError):
        parse_rat("1/0")
    with pytest.raises(InputError):
        parse_rat("x")


def check_witness(w, result):
    pairings = [sum(a * b for a, b in zip(result.vector, w.col(j))) for j in range(w.cols)]
    assert all(p >= 0 for p in pairings)
    assert any(p > 0 for p in pairings)


def test_solve_positive_combination_examples():
    out = solve_positive_combination(IntMatrix([[-1, 1], [1, -1]]))
    assert isinstance(out, PositiveCombination) and list(out) == [1, 1]

    w = IntMatrix([[-2, 1], [1, -2]])
    out = solve_positive_combination(w)
    assert isinstance(out, SemipositiveWitness)
    check_witness(w, out)

    out = solve_positive_combination(IntMatrix([[-2, 1, 1], [1, -2, 1]]))
    assert isinstance(out, PositiveCombination)
    assert list(out) == [1, 1, 1]


def test_solve_positive_combination_random(rng, property_cases):
    for _ in range(property_cases):
        d, n = rng.randint(1, 3), rng.randint(1, 6)
        w = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        out = solve_positive_combination(w)
        if isinstance(out, PositiveCombination):
            lam = list(out)
            assert all(c >= 1 for c in lam)
            for i in range(d):
                assert sum(rat(x) * c for x, c in zip(w.entries[i], lam)) == 0
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


def test_phase_one_matches_fraction_reference(rng):
    for _ in range(600):
        d, n = rng.randint(1, 4), rng.randint(1, 9)
        cols = []
        for _ in range(n):
            roll = rng.random()
            if roll < 0.1:
                cols.append([0] * d)
            elif roll < 0.3 and cols:
                cols.append(list(rng.choice(cols)))  # duplicates make degenerate ties
            else:
                cols.append([rng.randint(-7, 7) for _ in range(d)])
        w = IntMatrix([[col[i] for col in cols] for i in range(d)])
        assert solve_positive_combination(w) == reference_certificate(w), w


def test_internal_check_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from symfano import exact
        from symfano.errors import InternalError

        wrong = {
            "point": lambda rows, rhs: (True, [0] * len(rows[0]), 1),
            "witness": lambda rows, rhs: (False, [1] * len(rows), 1),
        }
        for name, matrix in (("point", [[-2, 1], [1, -2]]), ("witness", [[-1, 1], [1, -1]])):
            exact._phase_one = wrong[name]
            try:
                exact.solve_positive_combination(exact.IntMatrix(matrix))
            except InternalError:
                print(name, "InternalError", sys.flags.optimize)
        """
    )
    src = str(Path(exact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["point InternalError 1", "witness InternalError 1"]
