"""Exception hierarchy for the whole library.

Every failure that a caller can meaningfully catch has its own class;
all of them derive from CatprobError so `except CatprobError` is a
catch-all for domain errors (as opposed to programming errors).
"""


class CatprobError(Exception):
    """Base class for all library errors."""


class BackendMismatch(CatprobError):
    """Exact and float values were mixed in one operation."""


# -- finite probability spaces ------------------------------------------------

class InvalidAtoms(CatprobError):
    """The atoms are not an iterable of hashable labels."""


class DuplicateAtom(CatprobError):
    """An atom label occurs more than once."""


class NegativeWeight(CatprobError):
    """A probability weight is negative."""


class WeightSumMismatch(CatprobError):
    """Weights are not a list, are not one per atom, or do not sum to one
    (within tol on the float backend)."""


class NotMeasurePreserving(CatprobError):
    """The pushforward of the source weights disagrees with the target weights."""


class DomainMismatch(CatprobError):
    """Maps do not share the required (co)domains, or an argument is not of the type taken."""


class CodomainTooLarge(CatprobError):
    """Subset enumeration refused: the codomain exceeds the hard cap."""


# -- measures and random variables --------------------------------------------

class SpaceMismatch(CatprobError):
    """Operands live on different finite probability spaces."""


class NotAbsolutelyContinuous(CatprobError):
    """A measure puts mass on a weight-zero atom."""


class NegativeValue(CatprobError):
    """A random variable value or measure mass is negative."""


# -- filtration diagrams -------------------------------------------------------

class InvalidDiagram(CatprobError):
    """Diagram construction failed validation; carries every problem found.

    The message joins the first six problems; `problems` holds them all.
    """

    def __init__(self, message, problems=()):
        super().__init__(message)
        self.problems = tuple(problems)


class NoTopElement(CatprobError):
    """The operation needs a designated top (master) space."""


class Inconsistent(CatprobError):
    """A candidate family fails the consistency (martingale/measure) check;
    carries the failing `level` or `pair` and its `residual` (None where unset)."""

    def __init__(self, message, *, level=None, pair=None, residual=None):
        super().__init__(message)
        self.level, self.pair, self.residual = level, pair, residual


class IndexMismatch(CatprobError):
    """A family is not indexed by the diagram's poset elements."""


class NotAChain(CatprobError):
    """The operation requires a totally ordered index poset."""


class NoCertificate(CatprobError):
    """No chain index certifies the requested tolerance; carries the tail gap."""

    def __init__(self, message, tail_gap=None):
        super().__init__(message)
        self.tail_gap = tail_gap


class DiagramMismatch(CatprobError):
    """Martingales/families over different diagrams were combined."""


class DepthTooLarge(CatprobError):
    """Dyadic depth beyond the atom-count guard."""


class BadSegments(CatprobError):
    """Piecewise-affine segment data does not cover [0,1] properly."""


class InvariantViolation(CatprobError):
    """An internal cross-check that must always hold failed."""


# -- finite pseudometric spaces ------------------------------------------------

class InvalidMetric(CatprobError):
    """A distance table violates the pseudometric axioms."""


class NotParallel(CatprobError):
    """The two maps do not form a parallel pair."""


class ProductTooLarge(CatprobError):
    """Product/tensor point count exceeds the guard."""


class NotLipschitz(CatprobError):
    """A point assignment expands some distance."""


class EmptyFamily(CatprobError, ValueError):
    """A product, coproduct or hom of no factor (a ValueError too, as it was)."""


# -- serialization ---------------------------------------------------------------

class ParseError(CatprobError):
    """A JSON document does not match the expected schema."""
