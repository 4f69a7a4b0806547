"""``exact_dim`` and ``exact_bdim`` as they were before they asked the SAT
engine, kept verbatim as the brute-force oracle of acceptance test 7 and of
the differential tests in test_search.py: on every poset within its guards,
posetdim.search must give the same least d.

The key reduction: for a fixed tuple of linear orders, a suitable phi exists
iff every query-tuple class of ordered pairs needs a uniform answer, so phi
is never enumerated.  Ordered pairs are packed into per-order "x before y"
bitmasks, which makes the class checks a handful of big-integer operations.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from posetdim.errors import GuardExceeded
from posetdim.poset import LinearOrder, Poset, linear_extensions
from posetdim.realizer import (
    REFLEXIVE_INCLUSIVE,
    BooleanRealizer,
    TruthTable,
    _check_mode,
    verify,
)

MAX_DIM_ELEMENTS = 10
MAX_DIM_EXTENSIONS = 2000
MAX_DIM_SUBSETS = 10**7  # subsets of one size: a few seconds of work
MAX_BDIM_ELEMENTS = 5
MAX_BDIM_D = 3


def _before_mask(rank: np.ndarray, n: int) -> int:
    """Bitmask over ordered pairs: bit x*n + y set iff rank[x] < rank[y]."""
    bits = (rank[:, None] < rank[None, :]).ravel()
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _leq_masks(p: Poset) -> tuple[int, int]:
    """(comparable-pair answers, all off-diagonal pairs) as bitmasks."""
    n = p.n
    off_diag = ~np.eye(n, dtype=bool)
    ones = (p.leq & off_diag).ravel()
    univ = off_diag.ravel()
    return (
        int.from_bytes(np.packbits(ones, bitorder="little").tobytes(), "little"),
        int.from_bytes(np.packbits(univ, bitorder="little").tobytes(), "little"),
    )


def _consistent_phi(
    masks: tuple[int, ...], answers: int, universe: int, d: int, reflexive: bool
) -> list[int] | None:
    """Truth-table bits if the tuple classes are answer-uniform, else None.

    masks[i] holds the before-bits of order i over all ordered pairs;
    answers/universe come from _leq_masks.  Unconstrained tuples default to 0.
    """
    bits = [0] * (1 << d)
    for t in range(1 << d):
        cls = universe
        for i in range(d):
            cls &= masks[i] if (t >> i) & 1 else ~masks[i]
        req1 = cls & answers
        if req1 and req1 != cls:
            return None
        if t == (1 << d) - 1 and reflexive:
            if cls and not req1:
                return None
            bits[t] = 1
        elif req1:
            bits[t] = 1
    return bits


def exact_dim(
    p: Poset, d_max: int | None = None, force: bool = False
) -> tuple[int, list[LinearOrder]] | None:
    """Smallest d such that d linear extensions intersect to exactly p,
    together with a witness family; None if d_max cuts the search short.

    Enumerates all linear extensions, then subsets of increasing size.  The
    guards (MAX_DIM_ELEMENTS elements, MAX_DIM_EXTENSIONS extensions, and
    MAX_DIM_SUBSETS subsets of the size about to be tried) fail loudly on
    posets too big for that plan; ``force=True`` lifts all three.
    """
    if not force and p.n > MAX_DIM_ELEMENTS:
        raise GuardExceeded(
            f"|P| = {p.n} exceeds the {MAX_DIM_ELEMENTS}-element guard"
        )
    limit = None if force else MAX_DIM_EXTENSIONS
    extensions, truncated = linear_extensions(p, limit=limit)
    if truncated:
        raise GuardExceeded(f"more than {MAX_DIM_EXTENSIONS} linear extensions")

    n = p.n
    answers, universe = _leq_masks(p)
    ext_masks = [_before_mask(o.rank, n) for o in extensions]
    top = len(extensions) if d_max is None else min(d_max, len(extensions))
    for d in range(1, top + 1):
        subsets = math.comb(len(extensions), d)
        if not force and subsets > MAX_DIM_SUBSETS:
            raise GuardExceeded(
                f"{subsets} subsets of size {d} exceed the {MAX_DIM_SUBSETS}-subset guard"
            )
        for combo in combinations(range(len(extensions)), d):
            meet = universe
            for i in combo:
                meet &= ext_masks[i]
            if meet == answers:
                return d, [extensions[i] for i in combo]
    return None


def exact_bdim(
    p: Poset,
    d_max: int = MAX_BDIM_D,
    mode: str = REFLEXIVE_INCLUSIVE,
    force: bool = False,
) -> tuple[int, BooleanRealizer] | None:
    """Smallest d <= d_max admitting d linear orders and a phi that realize p,
    with a verified witness; None if not found.

    Orders range over all permutations of the ground set, not only linear
    extensions.  Since phi is free, order tuples are enumerated non-decreasing
    without loss of generality.  The guards (MAX_BDIM_ELEMENTS elements,
    d_max <= MAX_BDIM_D) fail loudly; ``force=True`` lifts both.
    """
    _check_mode(mode)
    if not force and p.n > MAX_BDIM_ELEMENTS:
        raise GuardExceeded(
            f"|P| = {p.n} exceeds the {MAX_BDIM_ELEMENTS}-element guard"
        )
    if not force and d_max > MAX_BDIM_D:
        raise GuardExceeded(f"d_max = {d_max} exceeds the guard of {MAX_BDIM_D}")

    n = p.n
    reflexive = mode == REFLEXIVE_INCLUSIVE
    answers, universe = _leq_masks(p)
    all_ranks = [np.array(perm, dtype=np.int64) for perm in permutations(range(n))]
    all_masks = [_before_mask(r, n) for r in all_ranks]

    for d in range(1, d_max + 1):
        for combo in combinations_with_replacement(range(len(all_ranks)), d):
            masks = tuple(all_masks[i] for i in combo)
            bits = _consistent_phi(masks, answers, universe, d, reflexive)
            if bits is None:
                continue
            witness = BooleanRealizer(
                n=n,
                orders=tuple(LinearOrder(rank=all_ranks[i]) for i in combo),
                phi=TruthTable(arity=d, bits=np.array(bits, dtype=np.uint8)),
            )
            outcome = verify(p, witness, mode)
            if not outcome.ok:
                raise AssertionError("exact_bdim witness failed verification")
            return d, witness
    return None
