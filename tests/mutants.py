"""Mutants of the package's run-time checks, and of kernels whose output the
goldens pin, each with the tests that kill it.  A kernel is listed where a
mutant can slip past the goldens: the flipped tie-break of the two-row phase
one changes pivots on ties but leaves every golden and corpus case as it is.

A ``Mutant`` names a file relative to the repository root, the exact ``old``
text, which occurs once in that file, the ``new`` text that replaces it, the
ids of the tests that must each fail once it is applied, and one line on why
they must.  ``python tests/run_mutants.py`` applies each mutant to a scratch
copy of the working tree and prints those that survive; a mutant whose tests
do not finish is stopped at the runner's timeout and counts as killed, though
none of those listed here needs it.  Two tier-1 rules in ``test_source.py``
hold the list: one makes that run and fails on a survivor, and one checks
that every ``raise InternalError`` in ``src/`` has a mutant in its function
and that every ``old`` text occurs once.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


EXACT = "src/symfano/exact.py"
PYTHON_O = "tests/test_exact.py::test_internal_check_survives_python_O"
BAD_CERTIFICATES = "tests/test_quotients.py::test_verify_stability_cert_rejects_bad_certificates"
EACH_CLAUSE = "tests/test_quotients.py::test_verify_stability_cert_rejects_what_each_clause_alone_rejects"
DIAGONAL_SECTION = "tests/test_polyhedral.py::test_a_diagonal_section_is_no_face_and_no_meet"
TWO_ROWS = "tests/test_exact.py::test_two_row_phase_one_makes_the_general_pivots"
FRACTION_REFERENCE = "tests/test_exact.py::test_phase_one_matches_fraction_reference"
SMALL_TWO_ROWS = "tests/test_exact.py::test_every_small_two_row_phase_one_makes_the_general_pivots"

MUTANTS = (
    # ``exact._decide``: every outcome of the simplex is checked before it is returned
    Mutant(
        EXACT,
        "    if not _certifies(rows, feasible, ints):\n",
        "    if False:\n",
        (PYTHON_O, "tests/test_cli.py::test_exit_code_internal_error"),
        "a patched simplex's false outcome must raise, in process and as exit code 4",
    ),
    Mutant(
        EXACT,
        "        if feasible:\n            raise InternalError(",
        "        if not feasible:\n            raise InternalError(",
        (PYTHON_O,),
        "the test pins each failure's message, which names the outcome that failed",
    ),
    # ``exact._certifies``, one mutant per clause
    Mutant(
        EXACT,
        "len(ints) == 1 + (len(rows[0]) if rows else 0)",
        "True",
        (EACH_CLAUSE,),
        "three coefficients for two columns balance them once map cuts off the third",
    ),
    Mutant(
        EXACT,
        "min(ints) > 0\n",
        "True\n",
        (BAD_CERTIFICATES, PYTHON_O),
        "zero coefficients balance every matrix",
    ),
    Mutant(
        EXACT,
        "min(ints) > 0",
        "min(ints[:-1], default=1) > 0",
        (EACH_CLAUSE,),
        "positive numerators over a negative denominator are negative coefficients",
    ),
    Mutant(
        EXACT,
        "not any(sum(map(mul, row, ints)) for row in rows)",
        "True",
        (BAD_CERTIFICATES, PYTHON_O, "tests/test_cli.py::test_exit_code_internal_error"),
        "coefficients that do not balance the columns certify nothing",
    ),
    Mutant(
        EXACT,
        "len(ints) == len(rows)",
        "True",
        (EACH_CLAUSE,),
        "a destabilizer with one entry too few or too many pairs as a right one once zip cuts it",
    ),
    Mutant(
        EXACT,
        "min(pairings) >= 0",
        "True",
        (EACH_CLAUSE, PYTHON_O),
        "a subgroup pairing negatively with one active weight does not destabilize",
    ),
    Mutant(
        EXACT,
        "max(pairings, default=0) > 0",
        "True",
        (BAD_CERTIFICATES, PYTHON_O),
        "a subgroup pairing to zero with every active weight fixes the point",
    ),
    # ``exact._two_row_phase_one`` makes the general kernel's pivots
    Mutant(
        EXACT,
        "(a == b and b1 < b0)",
        "(a == b and b1 > b0)",
        (TWO_ROWS,),
        "on a ratio tie Bland's rule takes the smaller basis index, and zero or repeated columns make ties",
    ),
    Mutant(
        EXACT,
        "s0 = -1 if c0 < 0 else 1",
        "s0 = -1 if c0 <= 0 else 1",
        (TWO_ROWS, FRACTION_REFERENCE),
        "a row with a zero right-hand side is not negated, and negating it changes the pivots",
    ),
    # ... and reads the reduced costs, the objective and the Farkas entries off
    # its artificial rows
    Mutant(
        EXACT,
        "art1 * t1[n + 1]",
        "art0 * t1[n + 1]",
        (TWO_ROWS, FRACTION_REFERENCE),
        "row 1's entry of y is read from row 1 when row 1's basic variable is artificial, not row 0's",
    ),
    Mutant(
        EXACT,
        "art1 * t1[-1] == 0",
        "t1[-1] == 0",
        (TWO_ROWS, FRACTION_REFERENCE),
        "an x column basic at a positive value is no infeasibility",
    ),
    Mutant(
        EXACT,
        "for enter in range(n):\n            if art[enter] > 0:",
        "for enter in range(n - 1):\n            if art[enter] > 0:",
        (TWO_ROWS, SMALL_TWO_ROWS),
        "after each pivot Bland's rule reads every x column of the artificial row left, the last one too",
    ),
    # the group, refinement and verdict checks
    Mutant(
        "src/symfano/groups.py",
        "        if any(orb.stabilizer_order == 1 for orb in orbits):\n",
        "        if False:\n",
        ("tests/test_groups.py::test_a_fixed_point_with_a_trivial_stabilizer_is_an_internal_error",),
        "a patched fixed point whose orbit has a trivial stabilizer must raise, in process and through lct",
    ),
    Mutant(
        "src/symfano/groups.py",
        "    if group.order % len(pts) != 0:\n",
        "    if False:\n",
        ("tests/test_groups.py::test_orbit_of",),
        "three elements that are no group give an orbit whose size does not divide 3",
    ),
    Mutant(
        "src/symfano/groups.py",
        "    _close(group.generators, ident, MAX_LATTICE_GROUP_ORDER[rank], f\"GL{rank}(Z)\")\n",
        "",
        ("tests/test_cli.py::test_exit_code_cap_error",),
        "an infinite lattice group fixes no vector, so without the closure the swapped-pair route certifies KE",
    ),
    Mutant(
        "src/symfano/polyhedral.py",
        "        fan.validate()\n    except InputError as exc:\n",
        "        pass\n    except InputError as exc:\n",
        (
            "tests/test_polyhedral.py::test_refinement_validate_rejects_the_merge_it_did_not_check",
            "tests/test_polyhedral.py::test_refinement_that_fails_validation_is_an_internal_error",
        ),
        "a merge that accepts every union leaves a T-junction that only validate finds",
    ),
    # the two verdicts that the zero masks give without a double description
    Mutant(
        "src/symfano/polyhedral.py",
        "            return _spans_a_face(c2, face1)\n",
        "            return True\n",
        (DIAGONAL_SECTION,),
        "a diagonal section of a cone holds some of its rays but meets it in no face of it",
    ),
    Mutant(
        "src/symfano/polyhedral.py",
        "            and all(any(is_face(c, m) for m in maximal) for c in self.cones)\n",
        "            and True\n",
        (DIAGONAL_SECTION,),
        "a fan of a cone and a diagonal section of it has one maximal cone, so only the face check sees the section",
    ),
    Mutant(
        "src/symfano/tvariety.py",
        "    if bound != res.capped_at_one():\n",
        "    if False:\n",
        ("tests/test_tvariety.py::test_dropping_the_tight_fiber_is_an_internal_error",),
        "a lift without the tight fiber bounds the threshold by 1, not by 1/3",
    ),
    Mutant(
        "src/symfano/tvariety.py",
        "        if not info.is_lower_bound and not (info.value == ONE if route else 2 * info.value <= ONE):\n",
        "        if False:\n",
        ("tests/test_cli.py::test_route_that_disagrees_with_the_exact_threshold_exits_4",),
        "a route claimed on an exact glct of 1/2 must exit 4",
    ),
)
