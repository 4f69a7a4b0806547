"""Counting lower bounds for Boolean dimension.

The machinery: per-element signatures counting the members of a set D
strictly below each element in every order, and the counting inequality
(|D|+1)**d >= |P| that any realizer must satisfy when D distinguishes P,
specialised to grids and Boolean lattices, where D is the singletons.  All
threshold decisions are made with exact integer power comparisons;
floating-point values are reported for display only.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import BadParameter, IndexOutOfRange, SizeMismatch
from .poset import LinearOrder


@dataclass(frozen=True)
class BoundReport:
    """A raw log-ratio bound plus the exact smallest integer satisfying it."""

    raw: float          # natural-log ratio; base-invariant
    integer_bound: int  # smallest d consistent with the bound, decided exactly
    formula: str        # provenance tag


def singletons_of_grid(n: int, m: int) -> list[int]:
    """Indices of grid elements with exactly one nonzero coordinate,
    ascending; there are n*(m-1) of them."""
    if n < 1 or m < 1:
        raise BadParameter(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    return sorted(v * m**i for i in range(n) for v in range(1, m))


def signature_map(orders: list[LinearOrder], d_set: list[int]) -> np.ndarray:
    """(n, d) matrix of signatures: entry (a, i) counts the members of the
    set ranked strictly below element a in order i."""
    if not orders:
        raise BadParameter("need at least one order")
    n = orders[0].n
    if any(o.n != n for o in orders):
        raise SizeMismatch("orders cover different ground sets")
    members = sorted(set(d_set))
    for z in members:
        if not 0 <= z < n:
            raise IndexOutOfRange(f"index {z} not in 0..{n - 1}")
    sig = np.empty((n, len(orders)), dtype=np.int64)
    for i, o in enumerate(orders):
        d_ranks = np.sort(o.rank[members]) if members else np.empty(0, np.int64)
        sig[:, i] = np.searchsorted(d_ranks, o.rank, side="left")
    return sig


def signature_collision(sig: np.ndarray) -> tuple[int, int] | None:
    """First pair of elements sharing a signature, or None if all distinct:
    the least x whose signature (row of ``sig``) repeats, and the next
    element with that signature.  One pass keeps the first element of each
    signature; a repeat replaces the pair found so far only if its first
    element is smaller, so a signature's third member never does."""
    rows = np.ascontiguousarray(sig)
    first: dict[bytes, int] = {}
    best: tuple[int, int] | None = None
    for y in range(rows.shape[0]):
        x = first.setdefault(rows[y].tobytes(), y)
        if x < y and (best is None or x < best[0]):
            best = (x, y)
    return best


def _smallest_power_bound(base: int, size: int) -> int:
    """Smallest d >= 0 with base**d >= size (base >= 2 unless size <= 1)."""
    d, power = 0, 1
    while power < size:
        power *= base
        d += 1
    return d


def mn_lower_bound(n: int, m: int) -> BoundReport:
    """Realizer-size lower bound for the (n, m) grid from signature counting.

    raw = n*ln(m)/ln(n*(m-1)+1); the integer bound is the smallest d with
    (n*(m-1)+1)**d >= m**n, decided in exact integer arithmetic.  m = 1 is
    the one-element grid and yields bound 0.
    """
    if n < 1 or m < 1:
        raise BadParameter(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    tag = f"mn({n},{m})"
    if m == 1:
        return BoundReport(raw=0.0, integer_bound=0, formula=tag)
    base = n * (m - 1) + 1
    raw = n * math.log(m) / math.log(base)
    return BoundReport(
        raw=raw, integer_bound=_smallest_power_bound(base, m**n), formula=tag
    )


def lat_lower_bound(n: int) -> BoundReport:
    """Boolean-lattice specialization: raw = n/log2(n+1)."""
    report = mn_lower_bound(n, 2)
    return BoundReport(raw=report.raw, integer_bound=report.integer_bound,
                       formula=f"lat({n})")


def _threshold_estimate(n: int, target: int) -> int:
    """An integer at or next to the smallest m >= 2 with
    m**n > (n*(m-1)+1)**(target-1), from a decimal solve in u = ln m.

    G(u) = n*u - (target-1)*ln(n*(e**u - 1) + 1) is 0 at u = 0, convex, and
    has one positive root u*, below (target-1)*ln(n)/(n-target+1) since
    ln(n*(e**u - 1) + 1) < ln(n) + u.  Newton's steps from that bound fall
    monotonically to u*; they are carried to 20 more digits than e**u* has.
    """
    k = target - 1
    digits = int(k * math.log(n) / (n - k) / math.log(10)) + 1  # of e**u*, at most
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 20
        u = k * Decimal(n).ln() / (n - k)
        tolerance = Decimal(10) ** -(digits + 5)
        for _ in range(200):
            nm = n * u.exp()
            step = (n * u - k * (nm - n + 1).ln()) / (n - k * nm / (nm - n + 1))
            u -= step
            if abs(step) < tolerance:
                break
        return max(2, int(u.exp()) + 1)


def min_multiplicity_for_target(n: int, target: int) -> int:
    """Smallest multiplicity cap m >= 2 whose grid bound exceeds target - 1,
    decided exactly: m**n > (n*(m-1)+1)**(target-1).

    The raw bound is nondecreasing in m and approaches n, so the predicate is
    a threshold; for target = n the answer is at most n**(n-1).  The answer
    is settled by exact tests around _threshold_estimate: normally m and
    m - 1 alone, else galloping from it to a bracket and bisecting that.
    """
    if not 2 <= target <= n:
        raise BadParameter(f"need 2 <= target <= n, got target={target}, n={n}")

    def exceeds(m: int) -> bool:
        return m**n > (n * (m - 1) + 1) ** (target - 1)

    # gallop from the estimate until exceeds(hi) and, unless lo is 2,
    # not exceeds(lo - 1); a good estimate leaves lo == hi after two tests
    lo = hi = _threshold_estimate(n, target)
    step = 1
    while not exceeds(hi):
        lo, hi, step = hi + 1, hi + step, 2 * step
    while lo > 2 and exceeds(lo - 1):
        lo, hi, step = max(2, lo - step), lo - 1, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi
