"""Exception hierarchy shared by every module.

Four families matter to callers (the CLI maps them to exit codes):
input/schema problems, blown computation caps (including a group closure
proven infinite), violated mathematical preconditions, and internal errors:
a result of this package that failed its own run-time check, a bug rather
than a property of the input.
"""


class SymfanoError(Exception):
    pass


class InputError(SymfanoError):
    """Malformed input: bad schema or matrix shape, non-unimodular generator."""


class ComputationCapError(SymfanoError):
    """A computation outgrew a resource cap, or a bound proving its input infinite."""


class NotFiniteWithinCap(ComputationCapError):
    """Group closure passed the largest order of a finite subgroup, so the
    group is infinite: 12 in PGL2(Q), and 2, 12, 48, 1152 and 3840 in GL_n(Z)
    for n = 1 to 5."""


class TooManyCoordinates(ComputationCapError):
    """Support enumeration over 2^n subsets refused for large n."""


class InternalError(SymfanoError):
    """A computed result failed its run-time check: a certificate that does
    not verify, or a refinement that is not a fan."""


class PreconditionError(SymfanoError):
    """A documented mathematical precondition does not hold for the input."""


class NotSymmetric(PreconditionError):
    pass


class NotFano(PreconditionError):
    pass


class NotLogTerminal(PreconditionError):
    pass


class MorphismHypothesisViolated(PreconditionError):
    """The boundary carries a -infinity coefficient (an empty fiber record)."""


class NotInvariant(PreconditionError):
    """A divisor or boundary is not invariant under the acting group."""


class CoefficientOutOfRange(PreconditionError):
    pass


class DegreeError(PreconditionError):
    pass


class NotSurjective(PreconditionError):
    """The lattice projection is not onto the target lattice."""
