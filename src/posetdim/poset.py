"""Finite posets, plus the constructions used throughout the toolkit:
Boolean lattices, multiset grids, standard examples, products, induced
subposets and linear extensions.  A poset holds its relation as packed bit
rows, one bit per pair, except a Boolean lattice, which holds none: its
relation is read by arithmetic on the subset encoding (``x <= y`` iff
``x & y == x``).  The dense bool matrix is built only on demand.  A
lattice's covers add one element to a subset; other posets' covers (and
the axiom check) come from one greedy walk over packed up-sets, with no
matrix product.  The block decomposition of a Boolean lattice is an index
bit permutation.

Conventions pinned here and relied on by file formats and realizer transport:

* elements are ``0..n-1``; ``leq[x, y]`` is True iff ``x <= y`` in the poset;
* Boolean lattice: subset ``S`` of ``{1..n}`` has index ``sum(2**(i-1) for i in S)``;
* multiset grid: vector ``v`` in ``{0..m-1}**n`` has index ``sum(v[i]*m**i)``
  (coordinate 1 is the least significant digit);
* product: pair ``(p, q)`` has index ``p * |Q| + q``.

Index order is a linear extension of every Boolean lattice, every grid and
every index-encoded product of such posets: there ``x <= y`` in the poset
implies ``x <= y`` as integers.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    BadPartition,
    CycleDetected,
    IndexOutOfRange,
    SizeCap,
    SizeMismatch,
)

#: Hard cap on ground-set size; keeps every leq matrix byte-addressable and
#: the exhaustive pair scans tractable.
MAX_ELEMENTS = 8192


def _capped_size(base: int, exp: int = 1) -> int:
    """``base**exp`` as a ground-set size, or SizeCap once it passes
    MAX_ELEMENTS.  The power is built by repeated multiplication and stops
    at the first product over the cap, so an oversized size is never
    computed in full or formatted."""
    size = 1
    for _ in range(exp):
        size *= base
        if size > MAX_ELEMENTS:
            raise SizeCap(f"size exceeds the cap of {MAX_ELEMENTS} elements")
    return size


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


#: Element indices; element x of a Boolean lattice is the subset with bits x.
_INDICES = _freeze(np.arange(MAX_ELEMENTS, dtype=np.uint16))

_BLOCK_CELLS = 1 << 18  # cells per row block when a matrix is built or walked

#: Shifts that move bit j of a packed byte to bit 0, one plane per j.
_BIT_SHIFTS = _freeze(np.arange(8, dtype=np.uint8)[:, None])


def _row_blocks(n: int) -> list[slice]:
    """Slices of 0..n-1 into row blocks of about _BLOCK_CELLS cells of n
    columns each, in order."""
    step = max(1, _BLOCK_CELLS // n)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


class Poset:
    """Immutable finite poset on ``0..n-1``.

    Its one relation store is ``_packed``: (n, ceil(n/8)) uint8 rows in
    which bit ``y % 8`` of byte ``y // 8`` of row x, least significant
    first, is ``leq[x, y]``; or None on a Boolean lattice, which reads its
    relation from the subset encoding and builds its ``labels`` on their
    first read.  ``Poset(n, leq, labels)`` packs ``leq`` and keeps no
    matrix: ``leq`` is built from the store on its first read, cached and
    read-only.
    """

    n: int
    _packed: np.ndarray | None

    def __init__(self, n: int, leq: np.ndarray, labels: Iterable[str]) -> None:
        if n < 1:
            raise BadParameter(f"poset needs at least one element, got n={n}")
        _capped_size(n)
        if leq.shape != (n, n) or leq.dtype != np.bool_:
            raise BadParameter("leq must be an (n, n) bool matrix")
        labels = tuple(labels)
        if len(labels) != n:
            raise BadParameter("labels must have one entry per element")
        packed = _freeze(np.packbits(leq, axis=1, bitorder="little"))
        vars(self).update(n=n, labels=labels, _packed=packed)

    @classmethod
    def _of(
        cls, n: int, packed: np.ndarray | None, labels: Iterable[str] | None = None
    ) -> Poset:
        # Read-only rows this module built, unchecked; or a Boolean lattice
        # (None), whose labels are left to their first read.
        p = cls.__new__(cls)
        vars(p).update(n=n, _packed=packed)
        if packed is not None:
            vars(p)["labels"] = tuple(labels)
        return p

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Poset is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:  # reached only on a Boolean lattice
        return _subset_labels(self.n)

    @functools.cached_property
    def leq(self) -> np.ndarray:
        """The (n, n) bool relation matrix, read-only, unpacked a row block
        at a time."""
        n = self.n
        leq = np.empty((n, n), dtype=bool)
        for rows in _row_blocks(n):
            leq[rows] = self._relation(rows, slice(0, n), leq[rows])
        return _freeze(leq)

    def _relation(
        self,
        rows: slice,
        cols: slice,
        out: np.ndarray | None = None,
        spare: np.ndarray | None = None,
    ) -> np.ndarray:
        """The block ``leq[rows, cols]`` of slices with explicit bounds: of
        packed rows, only the block's bytes unpacked; of a Boolean lattice,
        ``x & y == x`` written into ``out`` (bool, the block's shape), with
        ``spare`` (uint16, same shape) holding x & y."""
        if self._packed is not None:
            skip = cols.start & 7  # bits of the first byte left of the block
            block = self._packed[rows, cols.start >> 3 : (cols.stop + 7) >> 3]
            bits = np.unpackbits(
                block, axis=1, count=cols.stop - cols.start + skip, bitorder="little"
            )
            return bits[:, skip:].view(bool)
        x = _INDICES[rows, None]
        spare = np.bitwise_and(x, _INDICES[cols], out=spare)
        return np.equal(spare, x, out=out)

    def _converse(self, rows: slice, cols: slice) -> np.ndarray:
        """The block ``leq[cols, rows].T`` of packed rows: ``leq[y, x]`` at
        (x, y), for x in rows and y in cols, contiguous.  No strided pass
        reads the relation's columns, which costs several times more: only
        the few bytes of the rows' columns are transposed, then each bit
        plane is shifted out into its own row."""
        skip = rows.start & 7
        block = self._packed[cols, rows.start >> 3 : (rows.stop + 7) >> 3]
        planes = np.right_shift(np.ascontiguousarray(block.T)[:, None], _BIT_SHIFTS)
        bits = np.bitwise_and(planes, 1, out=planes).reshape(-1, block.shape[0])
        return bits[skip : skip + rows.stop - rows.start].view(bool)

    def check_axioms(self) -> None:
        """Raise unless leq is a partial order: the closure of its own covers.

        Constructors in this module produce valid matrices by construction;
        this is a debugging aid used by the test suite.
        """
        try:
            closure = from_relation_pairs(self.n, None, strict_cover_pairs(self))
        except CycleDetected:
            closure = None
        if closure is None or not np.array_equal(closure.leq, self.leq):
            raise BadParameter("relation is not a partial order")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and np.array_equal(self.leq, other.leq)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Poset(n={self.n})"


def _default_labels(n: int) -> list[str]:
    return [str(i) for i in range(n)]


# ---------------------------------------------------------------------------
# constructors


def from_relation_pairs(
    n: int,
    labels: list[str] | None,
    pairs: Iterable[tuple[int, int]] | np.ndarray,
) -> Poset:
    """Build a poset from relation pairs ``i <= j`` by reflexive-transitive
    closure.

    Cover pairs and full relation pairs give the same poset.  A directed
    cycle through two or more distinct elements is rejected rather than
    quotiented.  ``pairs`` is an (m, 2) integer array, or an iterable of
    pairs read once, so it may be an iterator.

    Each closure row, the bitset of an element's up-set, is written straight
    into one (n, ceil(n/8)) uint8 array, which the poset holds as its
    relation (2 MB at 4096 elements, 8 MB at 8192).  No (n, n) bool matrix
    is built until ``leq`` is read.
    """
    if n < 1:
        raise BadParameter(f"n must be positive, got {n}")
    _capped_size(n)
    if labels is None:
        labels = _default_labels(n)
    if len(labels) != n:
        raise BadParameter("labels must have one entry per element")

    ends = _pair_array(pairs)
    outside = ((ends < 0) | (ends >= n)).any(axis=1)
    if outside.any():
        i, j = ends[outside.argmax()].tolist()
        raise IndexOutOfRange(f"pair ({i}, {j}) out of range for n={n}")
    heads, tails = ends.astype(np.intp).T
    keep = heads != tails  # repeats are harmless; loops are dropped
    heads, tails = heads[keep], tails[keep]
    by_head = np.argsort(heads, kind="stable")
    targets = tails[by_head].tolist()
    bounds = np.searchsorted(heads[by_head], np.arange(n + 1)).tolist()
    adj = [targets[bounds[v] : bounds[v + 1]] for v in range(n)]

    # Kahn's algorithm: a leftover node means a directed cycle.
    indeg = np.bincount(tails, minlength=n).tolist()
    stack = [v for v in range(n) if indeg[v] == 0]
    topo: list[int] = []
    while stack:
        v = stack.pop()
        topo.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(topo) != n:
        raise CycleDetected("relation pairs contain a directed cycle")

    # Descendant bitsets, computed in reverse topological order, each
    # written into its packed row as soon as it is known.
    nbytes = (n + 7) // 8
    packed = np.empty((n, nbytes), dtype=np.uint8)
    rows = packed.reshape(-1).data
    reach = [0] * n
    for v in reversed(topo):
        bits = 1 << v
        for w in adj[v]:
            bits |= reach[w]
        reach[v] = bits
        rows[v * nbytes : (v + 1) * nbytes] = bits.to_bytes(nbytes, "little")
    return Poset._of(n, _freeze(packed), labels)


def _pair_array(pairs: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """``pairs`` as an (m, 2) array: an integer array as it is, otherwise
    int64, or object where a value is past int64 (and so out of any range
    an index is checked against).  Every endpoint must be an int or a numpy
    integer; a float raises TypeError."""
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu":
        if pairs.shape[1:] == (2,):
            return pairs
    flat: list[int] = []
    for i, j in pairs:
        flat += (operator.index(i), operator.index(j))
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(flat, dtype=object).reshape(-1, 2)


def boolean_lattice(n: int) -> Poset:
    """All subsets of ``{1..n}`` under inclusion, subset-as-bit-vector
    indexed.  No relation matrix and no label is built until ``leq`` or
    ``labels`` is first read."""
    if n < 0:
        raise BadParameter(f"n must be >= 0, got {n}")
    return Poset._of(_capped_size(2, n), None)


def _subset_labels(size: int) -> tuple[str, ...]:
    """The labels ``{}``, ``{1}``, ``{2}``, ``{1,2}``, ... of the lattice on
    ``size`` subsets."""
    # Doubling: subset x + 2**(k-1) is subset x with k appended.
    labels = ["{}"]
    for k in range(1, size.bit_length()):
        labels += [f"{{{k}}}"] + [s[:-1] + f",{k}}}" for s in labels[1:]]
    return tuple(labels)


def element_label(p: Poset, x: int) -> str:
    """The label of element x; a Boolean lattice's from the bits of x, so
    that no other label is built."""
    if p._packed is not None:
        return p.labels[x]
    members = [str(k + 1) for k in range(p.n.bit_length() - 1) if x >> k & 1]
    return "{" + ",".join(members) + "}"


def grid_coordinates(n: int, m: int) -> np.ndarray:
    """(m**n, n) array of grid vectors under the mixed-radix encoding.  n and
    m are checked first: BadParameter below 1, SizeCap past MAX_ELEMENTS."""
    if n < 1 or m < 1:
        raise BadParameter(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    _capped_size(n)  # coordinates, before any vector is built
    idx = np.arange(_capped_size(m, n))
    return np.stack([(idx // m**i) % m for i in range(n)], axis=1)


def multiset_grid(n: int, m: int) -> Poset:
    """Vectors in ``{0..m-1}**n`` under the coordinatewise order.  Its packed
    rows come from the coordinates a row block at a time, with no matrix."""
    coords = grid_coordinates(n, m)
    size = len(coords)
    packed = np.empty((size, (size + 7) // 8), dtype=np.uint8)
    for rows in _row_blocks(size):
        block = np.ones((rows.stop - rows.start, size), dtype=bool)
        for c in coords.T:
            block &= c[rows, None] <= c
        packed[rows] = np.packbits(block, axis=1, bitorder="little")
    labels = ["(" + ",".join(str(v) for v in row) + ")" for row in coords]
    return Poset._of(size, _freeze(packed), labels)


def standard_example(n: int) -> Poset:
    """Singletons below co-singletons: ``{i} < complement({j})`` iff ``i != j``.

    Elements 0..n-1 are the singletons, n..2n-1 the co-singletons.  For n=2
    the four elements stay distinct even though the underlying sets coincide.
    """
    if n < 2:
        raise BadParameter(f"standard example needs n >= 2, got {n}")
    size = _capped_size(2 * n)
    leq = np.eye(size, dtype=bool)
    leq[:n, n:] = ~np.eye(n, dtype=bool)
    labels = [f"{{{i + 1}}}" for i in range(n)] + [f"~{{{j + 1}}}" for j in range(n)]
    return Poset(size, leq, labels)


def chain(k: int) -> Poset:
    """Total order on k elements, 0 at the bottom."""
    if k < 1:
        raise BadParameter(f"chain needs k >= 1, got {k}")
    _capped_size(k)
    idx = np.arange(k)
    return Poset(k, idx[:, None] <= idx, _default_labels(k))


def antichain(k: int) -> Poset:
    """k pairwise-incomparable elements."""
    if k < 1:
        raise BadParameter(f"antichain needs k >= 1, got {k}")
    _capped_size(k)
    return Poset(k, np.eye(k, dtype=bool), _default_labels(k))


def product(p: Poset, q: Poset) -> Poset:
    """Componentwise-order product; pair ``(a, b)`` gets index ``a*|Q| + b``."""
    size = _capped_size(p.n * q.n)
    labels = [f"({pl},{ql})" for pl in p.labels for ql in q.labels]
    return Poset(size, np.kron(p.leq, q.leq), labels)


def subposet(p: Poset, keep: list[int] | set[int]) -> Poset:
    """Induced subposet on ``keep``, reindexed in ascending original order."""
    kept = sorted(set(keep))
    if not kept:
        raise BadParameter("keep set must be nonempty")
    outside = [x for x in kept if not 0 <= x < p.n]
    if outside:
        raise IndexOutOfRange(f"element index {outside[0]} not in 0..{p.n - 1}")
    labels = [p.labels[i] for i in kept]
    return Poset(len(kept), p.leq[np.ix_(kept, kept)], labels)


# ---------------------------------------------------------------------------
# linear orders and extensions


def _inverse(a: np.ndarray, message: str) -> np.ndarray:
    """The int64 inverse of a bijection of 0..n-1, a 1-D array of integral
    values; else BadParameter(message).  One scatter from -1 writes it, so
    a repeat leaves a -1 and no sort is needed."""
    a = np.asarray(a)
    n = a.size
    try:  # NaN fails the range, and a str or None compares with no int
        ok = a.ndim == 1 and (not n or 0 <= a.min() <= a.max() < n)
    except TypeError:
        ok = False
    if not ok:
        raise BadParameter(message)
    ints = a.astype(np.intp)
    inverse = np.full(n, -1, dtype=np.int64)
    inverse[ints] = np.arange(n)
    if n and (inverse.min() < 0 or not np.array_equal(ints, a)):
        raise BadParameter(message)
    return inverse


@dataclass(frozen=True, eq=False)
class LinearOrder:
    """Total order on ``0..n-1`` stored as a rank function (0 = least)."""

    rank: np.ndarray  # (n,) int64, a bijection onto 0..n-1

    def __post_init__(self) -> None:
        _inverse(self.rank, "rank must be a bijection onto 0..n-1")
        vars(self)["rank"] = _freeze(np.array(self.rank, np.int64))

    @property
    def n(self) -> int:
        return len(self.rank)

    @classmethod
    def from_sequence(cls, seq: list[int] | np.ndarray) -> "LinearOrder":
        """Build from the element sequence listed least to greatest, which
        must list each of 0..n-1 once; its inverse is the rank."""
        return cls._of(_inverse(seq, "sequence must list each of 0..n-1 once"))

    @classmethod
    def _of(cls, rank: np.ndarray) -> "LinearOrder":
        # An int64 rank known to be a bijection, unchecked.
        order = cls.__new__(cls)
        vars(order)["rank"] = _freeze(rank)
        return order

    def sequence(self) -> np.ndarray:
        """Element indices listed least to greatest."""
        seq = np.empty(self.n, dtype=np.int64)
        seq[self.rank] = np.arange(self.n)
        return seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearOrder):
            return NotImplemented
        return np.array_equal(self.rank, other.rank)

    __hash__ = None  # type: ignore[assignment]


def some_linear_extension(p: Poset) -> LinearOrder:
    """Deterministic linear extension: repeatedly remove the smallest-index
    minimal element."""
    n = p.n
    indeg = p.leq.sum(axis=0) - 1  # strict in-degrees; leq is reflexive
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    for pos in range(n):
        x = int(np.flatnonzero(alive & (indeg == 0))[0])
        rank[x] = pos
        alive[x] = False
        indeg -= p.leq[x]
    return LinearOrder(rank=rank)


def linear_extensions(
    p: Poset, limit: int | None = None
) -> tuple[list[LinearOrder], bool]:
    """Enumerate all linear extensions by backtracking over minimal elements.

    Candidates are taken in ascending index order at every level, so the
    output order is deterministic (and starts with some_linear_extension's
    result).  Returns (extensions, truncated); truncated is True when `limit`
    cut the enumeration short.  An explicit stack replaces recursion, so a
    long chain needs no deep call stack.  Intended for small posets.
    """
    n = p.n
    preds = [set(np.flatnonzero(p.leq[:, v])) - {v} for v in range(n)]
    cap = None if limit is None else limit + 1  # one extra to detect truncation
    out: list[LinearOrder] = []
    placed: list[int] = []
    done: set[int] = set()
    tried = [0]  # per level, the first candidate not yet tried there
    while tried:
        if len(placed) == n:
            out.append(LinearOrder.from_sequence(placed))
            if len(out) == cap:
                break
        free = (v for v in range(tried[-1], n) if v not in done and preds[v] <= done)
        v = next(free, n)
        if v < n:
            tried[-1] = v + 1
            tried.append(0)
            placed.append(v)
            done.add(v)
        else:  # every candidate tried: take back the last element placed
            tried.pop()
            if placed:
                done.remove(placed.pop())
    truncated = len(out) == cap
    if truncated:
        out.pop()
    return out, truncated


def is_linear_extension(p: Poset, order: LinearOrder) -> bool:
    """True iff ``x < y`` in the poset implies ``rank(x) < rank(y)``."""
    if order.n != p.n:
        raise SizeMismatch(f"order on {order.n} elements vs poset on {p.n}")
    violation = p.leq & (order.rank[:, None] > order.rank[None, :])
    return not violation.any()


# ---------------------------------------------------------------------------
# block decomposition


def block_decomposition_iso(n: int, block_sizes: list[int]) -> np.ndarray:
    """Forward map of the order isomorphism from the order-n Boolean lattice
    onto the left-nested product of Boolean lattices over consecutive
    coordinate blocks: a read-only int64 array whose entry ``x`` is the
    product index of lattice element ``x``.  No poset is built.

    Block 1 covers coordinates 1..b1, block 2 the next b2 coordinates, and so
    on; within a block the local subset encoding applies.  The nested product
    index folds left: ``idx = (..(s1 * 2**b2 + s2) * 2**b3 + s3 ..)``.
    """
    if n < 1:
        raise BadPartition(f"n must be >= 1, got {n}")
    if any(b < 1 for b in block_sizes) or sum(block_sizes) != n:
        raise BadPartition(f"blocks {block_sizes} do not partition {n} coordinates")
    size = _capped_size(2, n)
    idx = np.arange(size, dtype=np.int64)
    offsets = np.cumsum([0] + list(block_sizes[:-1]))
    forward = np.zeros(size, dtype=np.int64)
    for b, off in zip(block_sizes, offsets):
        forward = (forward << b) | ((idx >> int(off)) & ((1 << b) - 1))
    return _freeze(forward)


def upper_covers(p: Poset) -> Iterator[list[int]]:
    """The elements covering x, ascending, for each x in turn.

    A Boolean lattice's covers of x add one missing element: x | 2**i for
    each bit i not in x, so its relation is never built.  Otherwise up-sets
    are packed into ints, columns ordered by down-set size (a linear
    extension), so the lowest bit left in x's strict up-set is a cover of x.
    Each step clears that cover's up-set and its bit, so it ends on any input.
    """
    n = p.n
    if p._packed is None:
        k = n.bit_length() - 1
        for x in range(n):
            yield [x | 1 << i for i in range(k) if not x >> i & 1]
        return
    # The relation is read a row block at a time (Poset._relation), so the
    # (n, n) matrix of packed rows is never unpacked whole.
    blocks = _row_blocks(n)
    everything = slice(0, n)
    down = sum(p._relation(rows, everything).sum(axis=0) for rows in blocks)
    order = np.argsort(down, kind="stable")
    pos = np.argsort(order).tolist()
    up: list[int] = []
    for rows in blocks:
        block = p._relation(rows, everything)[:, order]
        bits = np.packbits(block, axis=1, bitorder="little")
        width, data = bits.shape[1], bits.tobytes()
        up += [
            int.from_bytes(data[i : i + width], "little")
            for i in range(0, len(data), width)
        ]
    element = order.tolist()
    for x in range(n):
        covers = []
        rest = up[x] & ~(1 << pos[x])
        while rest:
            low = rest & -rest
            y = element[low.bit_length() - 1]
            covers.append(y)
            rest &= ~(up[y] | low)
        yield sorted(covers)


def strict_cover_pairs(p: Poset) -> list[tuple[int, int]]:
    """Transitive-reduction edges (x, y) with x covered by y, ascending."""
    return [(x, y) for x, ys in enumerate(upper_covers(p)) for y in ys]
