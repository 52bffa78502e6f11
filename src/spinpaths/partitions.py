"""Integer partitions, strict partitions and the spin-coordinate dictionary,
and the minors of an integer matrix pair on every set of columns.

Partitions are plain tuples of non-negative ints, weakly decreasing.
Strict partitions are strictly decreasing.  Trailing zeros matter: the
coordinate dictionary below is length-sensitive, so partitions are kept
padded to their explicit length.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterator

Partition = tuple[int, ...]
StrictPartition = tuple[int, ...]


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(p >= 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def is_strict_partition(parts: tuple[int, ...]) -> bool:
    return all(p >= 0 for p in parts) and all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts: tuple[int, ...]) -> Partition:
    parts = tuple(int(p) for p in parts)
    if not is_partition(parts):
        raise ValueError(f"not weakly decreasing non-negative: {parts}")
    return parts


def check_strict_partition(parts: tuple[int, ...]) -> StrictPartition:
    parts = tuple(int(p) for p in parts)
    if not is_strict_partition(parts):
        raise ValueError(f"not strictly decreasing non-negative: {parts}")
    return parts


def staircase(n: int) -> StrictPartition:
    """The strict partition (n-1, n-2, ..., 1, 0)."""
    if n < 1:
        raise ValueError("staircase needs n >= 1")
    return tuple(range(n - 1, -1, -1))


def mu_to_lambda(mu: StrictPartition) -> Partition:
    """Spin-down coordinates mu -> shape lambda, via lambda_j = mu_j - N + j."""
    mu = check_strict_partition(mu)
    n = len(mu)
    lam = tuple(mu[j] - n + j + 1 for j in range(n))
    return check_partition(lam)


def lambda_to_mu(lam: Partition, n: int) -> StrictPartition:
    """Shape lambda -> spin-down coordinates mu = lambda + staircase, padded to n."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError(f"lambda has {len(lam)} parts, more than n={n}")
    lam = pad(lam, n)
    return tuple(lam[j] + n - j - 1 for j in range(n))


def pad(lam: Partition, n: int) -> Partition:
    """Pad with trailing zeros to length n."""
    if len(lam) > n:
        raise ValueError(f"cannot pad {lam} down to length {n}")
    return tuple(lam) + (0,) * (n - len(lam))


def weight(lam: Partition) -> int:
    return sum(lam)


def boxed_partitions(n: int, w: int) -> Iterator[Partition]:
    """All partitions with at most n parts, each <= w, padded to length n.

    Yields in descending lexicographic order; count is C(n+w, n).
    """
    if n < 1 or w < 0:
        raise ValueError("need n >= 1, w >= 0")
    return combinations_with_replacement(range(w, -1, -1), n)


def shifted_boxed_partitions(n: int, w: int, shift: int) -> Iterator[Partition]:
    """Partitions lambda with shift <= lambda_n and lambda_1 <= shift + w."""
    for lam in boxed_partitions(n, w):
        yield tuple(p + shift for p in lam)


def descending_subsets(top: int, n: int) -> Iterator[StrictPartition]:
    """All n-element subsets of {0..top} as descending tuples, lexicographic."""
    return combinations(range(top, -1, -1), n)


def column_minors(left: list[list[int]], right: list[list[int]],
                  modulus: int | None = None) -> dict[tuple[int, ...], tuple[int, int]]:
    """The minors of the two (N, W) integer matrices on every set of N
    columns, keyed by the ascending column tuple, mod `modulus` if given:
    those on the first k rows are expanded along row k into those on the
    first k-1, with no division, and each sub-minor is looked up once for
    both matrices."""
    minors = {(): (1, 1)}
    for k, (lrow, rrow) in enumerate(zip(left, right)):
        prev, minors = minors, {}
        for cols in combinations(range(len(lrow)), k + 1):
            a = b = 0
            # the signs alternate from + on the last column
            for i, c in enumerate(cols):
                pa, pb = prev[cols[:i] + cols[i + 1:]]
                a = lrow[c] * pa - a
                b = rrow[c] * pb - b
            minors[cols] = (a % modulus, b % modulus) if modulus else (a, b)
    return minors
