"""Exception types shared across the toolkit."""


class InvquotError(Exception):
    """Base class for all toolkit errors."""


class PolynomialSyntaxError(InvquotError, ValueError):
    """The polynomial string does not match the grammar or has a non-unit coefficient."""


class NotSquareError(InvquotError, ValueError):
    """Monomial count differs from variable count, so the exponent matrix is not square."""


class SingularMatrixError(InvquotError, ValueError):
    """The exponent matrix has determinant zero over the rationals."""


class NoPositiveWeightsError(InvquotError, ValueError):
    """The quasihomogeneity system A q = d (1,...,1) has no positive solution."""


class GcdNotOneError(InvquotError, ValueError):
    """The weight vector is not primitive (gcd of the entries exceeds one)."""


class NotAtomicSumError(InvquotError, ValueError):
    """The polynomial is not a direct sum of power, cycle, and chain pieces."""


class DegenerateLoopError(InvquotError, ValueError):
    """Cycle exponents make the loop symmetry denominator vanish."""


class UnsupportedGeometryError(InvquotError, ValueError):
    """The input lies outside the geometric regime the computation is proved for."""


class FixedLocusNotImplementedError(UnsupportedGeometryError):
    """A twisted sector has a fixed locus of positive dimension, which is not handled."""


class LatticeInvariantError(InvquotError):
    """An exact identity of the integer lattice kernel failed; its result cannot be trusted."""


class SymmetryInvariantError(InvquotError):
    """A diagonal symmetry or group is not canonical, or fails an identity it is built to meet."""


class SearchInvariantError(InvquotError):
    """An internal invariant of the exhaustive search failed; the result cannot be trusted."""


class CohomologyInvariantError(InvquotError):
    """An exactness condition of the long-exact-sequence route failed; its dimensions cannot be trusted."""


class SearchTimeoutError(InvquotError):
    """The exhaustive search exceeded its time budget; carries the best bound found so far."""

    def __init__(self, message: str, best_size: int = 0, best_witness=None, proof_log=None):
        super().__init__(message)
        self.best_size = best_size
        self.best_witness = best_witness
        self.proof_log = proof_log
