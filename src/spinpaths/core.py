"""The ring geometry and the typed errors the CLI maps to exit codes.

Numpy-free, so the integer verbs can use them; `chain`, `correlators`
and `schur` import these names back.
"""

from dataclasses import dataclass
from math import comb


class SectorCapError(RuntimeError):
    """Sector dimension exceeds the configured cap."""


class EnumerationCapError(RuntimeError):
    """Raised when a combinatorial enumeration would exceed the configured cap."""


class CoincidentArgumentsError(ValueError):
    """Raised when the alternant route is asked for nearly coincident points."""


class RouteMismatchError(RuntimeError):
    """Two independent computation routes disagree beyond tolerance."""


class IntegerRoundingError(RuntimeError):
    """A trigonometric sum failed to land on an integer within tolerance."""


class FloatOverflowError(RuntimeError):
    """A result would leave the float range."""


@dataclass(frozen=True)
class ChainGeometry:
    """Ring of m+1 sites holding n down spins."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least a 2-site ring (m >= 1)")
        if not 0 <= self.n <= self.m + 1:
            raise ValueError(f"down-spin count {self.n} outside 0..{self.m + 1}")

    @property
    def sites(self) -> int:
        return self.m + 1

    @property
    def k_cap(self) -> int:
        """Width bound for shapes in this sector: M - N + 1."""
        return self.m - self.n + 1

    @property
    def sector_dim(self) -> int:
        return comb(self.sites, self.n)
