"""The ring geometry, the size caps and `admit`, their one gate, the typed
errors the CLI maps to exit codes, and the pass rule of every check.

Numpy-free, so the integer verbs can use them; `chain`, `correlators`,
`paths` and `schur` import these names back.
"""

from math import comb, inf

DEFAULT_ENUM_CAP = 10_000_000  # terms of one enumeration or walker route
DEFAULT_SECTOR_CAP = 50_000  # states of one sector, or its momentum subsets
DENSE_BYTES_CAP = 2 ** 30  # bytes of one dense sector matrix
Q_CHAIN_CAP = 10 ** 9  # coefficient products of one `verify q-chain` or `macmahon`
FLOAT_GRID_CAP = 10 ** 6  # points of one a..b or start:step:stop grid, or verify trials
MACMAHON_WORD_CAP = 2 * 10 ** 9  # about 3 s of `sweep macmahon` products


class SectorCapError(RuntimeError):
    """Sector dimension exceeds the configured cap."""


class EnumerationCapError(RuntimeError):
    """Raised when a combinatorial enumeration would exceed the configured cap."""


def admit(cost, cap, unit: str, error: type[Exception] = EnumerationCapError) -> None:
    """Raise `error` (exit 3) when `cost`, in `unit`, is over `cap`, a cap of
    this module read here at call time; a float cost prints to 3 digits."""
    if cost > cap:
        shown = f"{cost:.3g}" if isinstance(cost, float) else cost
        raise error(f"{shown} {unit} exceed cap {cap}")


class CoincidentArgumentsError(ValueError):
    """Raised when the alternant route is asked for nearly coincident points."""


class RouteMismatchError(RuntimeError):
    """Two independent computation routes disagree beyond tolerance."""


class FloatOverflowError(RuntimeError):
    """A result would leave the float range."""


def relative_residual(value, reference) -> float:
    """|value - reference| / max(1, |reference|): the residual of every route check."""
    try:
        return abs(value - reference) / max(1.0, abs(reference))
    except OverflowError:  # the modulus of a finite complex past the float range
        return inf


def within_bound(residual: float, bound: float) -> bool:
    """The pass rule of every check: residual <= bound, so a NaN never passes."""
    return bool(residual <= bound)


def route_check(value, reference, bound: float, error: type[Exception]) -> float:
    """The residual of `value` against `reference`; raises `error` past `bound`."""
    resid = relative_residual(value, reference)
    if not within_bound(resid, bound):
        raise error(f"{value} against {reference}: residual {resid:.3e} > {bound:g}")
    return resid


def complex_json(z: complex) -> dict:
    """+ 0.0 turns -0.0, a sign the BLAS kernel can flip, into 0.0."""
    return {"re": float(z.real) + 0.0, "im": float(z.imag) + 0.0}


class FrozenRecord:
    """An immutable value: `__init__` sets each `__slots__` field once, by
    default from the positional arguments in slot order, and equality, hash
    and repr go by the fields.  A dataclass would do the same, at a
    start-up cost on every import."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ChainGeometry(FrozenRecord):
    """Ring of m+1 sites holding n down spins."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 1:
            raise ValueError("need at least a 2-site ring (m >= 1)")
        if not 0 <= n <= m + 1:
            raise ValueError(f"down-spin count {n} outside 0..{m + 1}")
        self.m, self.n = m, n

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
