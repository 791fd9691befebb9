"""Exception types shared across the library, and the one size cap."""

DP_NODE_CAP = 4_000_000  # largest DP lattice; about 220 bytes a node at 18 steps


class LipforgeError(Exception):
    """Base class for all library errors."""


class DescriptorError(LipforgeError):
    """Unsupported or malformed norm descriptor."""


class InputError(LipforgeError):
    """Non-finite or otherwise invalid numeric input."""


class FamilyError(LipforgeError):
    """Invalid operator family (e.g. empty basis)."""


class GeometryError(LipforgeError):
    """Separation / boundary-distance precondition violated."""


class NormError(LipforgeError):
    """Operator norm hypothesis violated (e.g. ||L|| > 1 - r)."""


class DomainError(LipforgeError):
    """Point or set outside the permitted domain."""


class RefereeError(LipforgeError):
    """Invalid adversary move rejected twice by the game referee."""


class ResolutionError(LipforgeError):
    """Grid too coarse for the requested gap."""


class BudgetError(LipforgeError):
    """Iteration / schedule budget exhausted or infeasible."""


class CoverError(LipforgeError):
    """Candidate partition-of-unity cover does not cover the target set."""


class PremiseError(LipforgeError):
    """A sampled premise of an assembly lemma failed."""


class ConstructionError(LipforgeError):
    """A composite construction could not meet its internal targets."""


class HypothesisError(LipforgeError):
    """Lipschitz / norm hypothesis of a lemma-shaped operation violated."""


class ExactEvalUnsupported(LipforgeError):
    """Requested exact (rational) evaluation on a node or norm without it."""


def check_size(count, what):
    """BudgetError unless count (an int, or a float that may be inf or nan) is at
    most DP_NODE_CAP, the one cap on what a construction allocates; what names it."""
    if not count <= DP_NODE_CAP:
        raise BudgetError("%s exceeds the cap of %d" % (what, DP_NODE_CAP))
