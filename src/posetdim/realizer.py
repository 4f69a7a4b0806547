"""Boolean realizers: d linear orders plus a truth table phi that together
answer comparability queries, with an exhaustive vectorized verifier, the
canonical coordinate realizers of grids, the bundled 5-order realizer of the
order-6 Boolean lattice, product composition, and the ceil(5n/6)-order
realizer of the order-n Boolean lattice.

Tuple convention, pinned package-wide: querying (x, y) produces the bit
vector eps with ``eps[i] = [rank_i(x) <= rank_i(y)]`` (non-strict), and the
truth-table index of eps is ``sum(eps[i] << i)`` — coordinate 1 is the least
significant bit.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import b6_data
from .errors import BadArity, BadParameter, NotAnExtension, ParseError, SizeMismatch
from .poset import (
    LinearOrder,
    Poset,
    _capped_size,
    _freeze,
    _inverse,
    block_decomposition_iso,
    grid_coordinates,
    is_linear_extension,
)

#: Verification modes.  The default additionally requires phi(1,...,1) = 1,
#: i.e. reflexive queries answer "yes"; the alternative quantifies over
#: distinct pairs only and leaves phi on the all-ones tuple unconstrained.
REFLEXIVE_INCLUSIVE = "reflexive_inclusive"
DISTINCT_ONLY = "distinct_only"
MODES = (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY)

MAX_ARITY = 16

_CHUNK_CELLS = 1 << 18  # target cells per row chunk; a chunk's buffers stay in cache


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise BadParameter(f"unknown verification mode {mode!r}")


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Boolean function on d-bit tuples, stored as 2**d explicit bits."""

    arity: int
    bits: np.ndarray  # (2**arity,) uint8 in {0, 1}

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MAX_ARITY:
            raise BadArity(f"arity must be in 0..{MAX_ARITY}, got {self.arity}")
        b = np.asarray(self.bits, dtype=np.uint8)
        if b.shape != (1 << self.arity,) or not np.isin(b, (0, 1)).all():
            raise BadArity(f"need {1 << self.arity} bits of 0/1")
        object.__setattr__(self, "bits", _freeze(b))

    def value_at(self, index: int) -> bool:
        return bool(self.bits[index])

    def __call__(self, eps: tuple[int, ...]) -> bool:
        return self.value_at(tuple_index(eps))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.arity == other.arity and np.array_equal(self.bits, other.bits)

    __hash__ = None  # type: ignore[assignment]


def tuple_index(eps: tuple[int, ...]) -> int:
    """Truth-table index of a query tuple (coordinate 1 least significant)."""
    return sum(bit << i for i, bit in enumerate(eps))


def and_function(d: int) -> TruthTable:
    """phi that is 1 exactly on the all-ones tuple."""
    if not 1 <= d <= MAX_ARITY:
        raise BadArity(f"d must be in 1..{MAX_ARITY}, got {d}")
    bits = np.zeros(1 << d, dtype=np.uint8)
    bits[-1] = 1
    return TruthTable(arity=d, bits=bits)


def threshold_at_most_one_zero(d: int) -> TruthTable:
    """phi that is 1 iff at most one input bit is 0 (popcount >= d-1)."""
    if not 1 <= d <= MAX_ARITY:
        raise BadArity(f"d must be in 1..{MAX_ARITY}, got {d}")
    bits = np.array([bin(j).count("1") >= d - 1 for j in range(1 << d)], dtype=np.uint8)
    return TruthTable(arity=d, bits=bits)


@dataclass(frozen=True, eq=False)
class BooleanRealizer:
    """d linear orders over one ground set plus a truth table of arity d."""

    n: int
    orders: tuple[LinearOrder, ...]
    phi: TruthTable

    def __post_init__(self) -> None:
        if any(o.n != self.n for o in self.orders):
            raise SizeMismatch("all orders must cover the same ground set")
        if self.phi.arity != len(self.orders):
            raise BadArity(
                f"phi arity {self.phi.arity} != order count {len(self.orders)}"
            )

    @property
    def d(self) -> int:
        return len(self.orders)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanRealizer):
            return NotImplemented
        return (
            self.n == other.n
            and self.orders == other.orders
            and self.phi == other.phi
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BooleanRealizer(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class Counterexample:
    x: int
    y: int
    query: tuple[int, ...]
    expected: bool
    got: bool


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    pairs_checked: int
    counterexample: Counterexample | None = None


def query_tuple(r: BooleanRealizer, x: int, y: int) -> tuple[int, ...]:
    """The d comparison bits ``[rank_i(x) <= rank_i(y)]``."""
    if not (0 <= x < r.n and 0 <= y < r.n):
        raise SizeMismatch(f"indices ({x}, {y}) out of range for n={r.n}")
    return tuple(int(o.rank[x] <= o.rank[y]) for o in r.orders)


def _run_now(fn, *args) -> Future:
    """A future of ``fn(*args)``, called at once in this thread."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


def verify(
    p: Poset,
    r: BooleanRealizer,
    mode: str = REFLEXIVE_INCLUSIVE,
    threads: int = 1,
) -> VerifyOutcome:
    """Exhaustively check ``phi(query(x, y)) == leq[x, y]`` over all ordered
    pairs.

    In reflexive_inclusive mode the diagonal is part of the scan, which is
    exactly the requirement phi(1,...,1) = 1; distinct_only skips it.

    Row chunks of about ``_CHUNK_CELLS`` pairs are scanned on
    ``max(1, threads)`` worker threads.  Each thread fills one set of
    chunk-sized buffers in place and reuses it for every chunk it scans.  A
    chunk reads the relation block by block (``Poset._relation``): the
    block's bytes of packed rows, unpacked, or on a Boolean lattice
    ``x & y == x``, written into the chunk's buffers that the query no
    longer needs.  The scan never reads ``leq``.

    Each unordered pair is looked up once, for every poset.  The orders are
    total, so for x != y the query of (y, x) is the bitwise complement of
    the query t of (x, y), and ``both[t] = phi[t] + 2 * phi[~t]`` answers
    both pairs; ``wrong = both[t] ^ code`` with ``code = leq[x, y] + 2 *
    leq[y, x]``, whose second term is read from the transposed block (on a
    lattice it is 0 for y > x and is not read).  Bit 0 of ``wrong`` marks
    (x, y), flat index x * n + y, and bit 1 marks (y, x), flat index
    y * n + x.  Chunk rows [a, b) scan only the columns y >= a and drop the
    cells y <= x: the pair's cell in the row of its smaller element checks
    both of its ordered pairs, for any bool matrix, whether or not it is
    antisymmetric.  In reflexive_inclusive mode the diagonal cells compare
    ``leq[x, x]``, bit 0 of their ``code`` (a chunk's columns start at its
    first row), with phi(1,...,1) instead, and mark x * n + x.

    A chunk reports the least flat index it marks.  Every index a chunk
    from row a marks is at least a * n, so the chunks' results, read in row
    order, stop at the first chunk that starts past the least index so far:
    the counterexample is the first wrong ordered pair in ascending (x, then
    y) order for every thread count.  Chunks are submitted in row order,
    each only while it can still hold that pair.  One thread scans each
    chunk in the caller as it is submitted, so it scans exactly the chunks
    the answer needs.  More threads keep ``threads + 1`` chunks in flight,
    one queued so that no worker waits for the driver, and scan at most
    ``threads`` chunks more.

    A chunk's tuple indices are built a byte at a time: orders 9-16 are
    accumulated (``acc += acc; acc += bits``) in a uint8 buffer that reads
    the bool comparisons through a uint8 view, shifted into the high byte of
    the uint16 index; orders 1-8 are then accumulated in the same buffer and
    OR-ed into the low byte.  So no per-order step casts between dtypes (an
    OR of bool into uint16 per order cost more than the comparison itself):
    only the shift and the OR widen uint8 to uint16, once per chunk.
    """
    _check_mode(mode)
    if r.n != p.n:
        raise SizeMismatch(f"realizer on {r.n} elements vs poset on {p.n}")
    n = p.n
    rows_per_chunk = max(1, _CHUNK_CELLS // n)
    # uint16 holds every rank (n <= MAX_ELEMENTS = 8192) and every tuple
    # index (d <= MAX_ARITY = 16); uint8 holds eight orders' bits.
    ranks = np.array([o.rank for o in r.orders], dtype=np.uint16).reshape(r.d, n)
    both = r.phi.bits + 2 * r.phi.bits[::-1]  # index t ^ (2**d - 1) is t reversed
    top = bool(r.phi.bits[-1])  # phi(1,...,1), the answer on the diagonal
    above = ~np.tri(min(rows_per_chunk, n), dtype=bool)  # y > x inside a chunk
    local = threading.local()

    def scan(start: int) -> int | None:
        """The least flat index of a wrong ordered pair marked in the chunk
        of rows from start; None if the chunk marks none."""
        if not hasattr(local, "buffers"):
            shape = (min(rows_per_chunk, n), n)
            local.buffers = (
                np.empty(shape, bool),
                np.empty(shape, np.uint8),
                np.empty(shape, np.uint16),
            )
        rows, cols = slice(start, min(start + rows_per_chunk, n)), slice(start, n)
        h, w = rows.stop - start, n - start
        cells, acc, t = (b.reshape(-1)[: h * w].reshape(h, w) for b in local.buffers)
        bits = cells.view(np.uint8)

        def accumulate(block: np.ndarray) -> np.ndarray:
            acc.fill(0)
            for rank in block[::-1]:  # the last order is the most significant bit
                np.less_equal(rank[rows, None], rank[cols], out=cells)
                np.add(acc, acc, out=acc)
                np.add(acc, bits, out=acc)
            return acc

        np.left_shift(accumulate(ranks[8:]), 8, out=t, dtype=np.uint16)
        np.bitwise_or(t, accumulate(ranks[:8]), out=t)
        # Every index is below 2**d, so "clip" never fires and spares the
        # per-index bounds check of the default "raise".
        wrong = np.take(both, t, out=acc, mode="clip")
        code = p._relation(rows, cols, cells, t).view(np.uint8)
        if p._packed is not None:  # add 2 * leq[y, x], in t's spent bytes
            spent = t.reshape(-1).view(np.uint8)[: h * w].reshape(h, w)
            lower = p._converse(rows, cols).view(np.uint8)
            np.add(lower, lower, out=spent)
            code = np.add(spent, code, out=spent)
        np.bitwise_xor(wrong, code, out=wrong)
        np.multiply(wrong[:, :h], above[:h, :h], out=wrong[:, :h])
        if mode == REFLEXIVE_INCLUSIVE:  # (x, x) is at flat (x - start) * (w + 1)
            on_diagonal = code.reshape(-1)[:: w + 1] & 1  # bit 0 is leq[x, x]
            np.not_equal(on_diagonal, top, out=wrong.reshape(-1)[:: w + 1])
        if wrong.max() == 0:  # a uint8 max runs several times faster than any()
            return None
        i, j = np.nonzero(wrong)
        x, y = i + start, j + start
        # Where both bits are set, x * n + y <= y * n + x, as x <= y.
        return int(np.where(wrong[i, j] & 1, x * n + y, y * n + x).min())

    starts = iter(range(0, n, rows_per_chunk))
    first = None
    window = 1 if threads <= 1 else threads + 1
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        submit = pool.submit if threads > 1 else _run_now
        running = deque((s, submit(scan, s)) for s in islice(starts, window))
        while running:
            start, future = running.popleft()
            if first is not None and start * n > first:
                break
            hit = future.result()
            if hit is not None and (first is None or hit < first):
                first = hit
            after = next(starts, n)
            if after < n and (first is None or after * n <= first):
                running.append((after, submit(scan, after)))
        for _, future in running:
            future.cancel()

    pairs = n * (n - 1)
    if first is None:
        return VerifyOutcome(ok=True, pairs_checked=pairs)
    x, y = divmod(first, n)
    q = query_tuple(r, x, y)
    got = r.phi(q)
    return VerifyOutcome(
        ok=False,
        pairs_checked=pairs,
        counterexample=Counterexample(x=x, y=y, query=q, expected=not got, got=got),
    )


# ---------------------------------------------------------------------------
# builders


def from_extensions(p: Poset, extensions: list[LinearOrder]) -> BooleanRealizer:
    """Realizer with phi = AND over the given linear extensions.

    Verifies against p exactly when the extensions' intersection is p.
    """
    for order in extensions:
        if not is_linear_extension(p, order):
            raise NotAnExtension("an order does not extend the poset relation")
    d = len(extensions)
    phi = and_function(d) if d else TruthTable(arity=0, bits=np.array([1], np.uint8))
    return BooleanRealizer(n=p.n, orders=tuple(extensions), phi=phi)


def canonical_grid_realizer(n: int, m: int) -> BooleanRealizer:
    """n coordinate orders on the (n, m) grid with phi = AND.

    Order i sorts by coordinate i ascending, breaking ties by the full
    coordinate vector ascending lexicographically (coordinate 1 first).
    """
    coords = grid_coordinates(n, m)  # validates parameters and the size cap
    orders = []
    for i in range(n):
        keys = tuple(coords[:, j] for j in reversed(range(n))) + (coords[:, i],)
        seq = np.lexsort(keys)
        orders.append(LinearOrder.from_sequence(seq))
    return BooleanRealizer(n=len(coords), orders=tuple(orders), phi=and_function(n))


def b6_realizer() -> BooleanRealizer:
    """The bundled 5-order realizer of the 64-element Boolean lattice,
    with phi = at-most-one-zero on 5 bits.  The orders are checked against
    their bundled SHA-256 first; a mismatch is a ParseError."""
    import hashlib  # loads OpenSSL, about 3 MB RSS, so only where it is used

    seqs = b6_data.B6_ORDER_SEQUENCES
    canon = "\n".join(" ".join(str(e) for e in seq) for seq in seqs)
    if hashlib.sha256(canon.encode("ascii")).hexdigest() != b6_data.B6_ORDERS_SHA256:
        raise ParseError("bundled B6 orders do not match their SHA-256 checksum")
    orders = tuple(LinearOrder.from_sequence(list(seq)) for seq in seqs)
    return BooleanRealizer(n=64, orders=orders, phi=threshold_at_most_one_zero(5))


def compose_product(
    r_p: BooleanRealizer,
    r_q: BooleanRealizer,
    ext_p: LinearOrder,
    ext_q: LinearOrder,
) -> BooleanRealizer:
    """Realizer of product(P, Q) with d = r_p.d + r_q.d orders, given
    realizers of P and Q and linear extensions of P and Q.

    The first s orders sort pairs by the corresponding P-order, breaking ties
    with ext_q; the remaining t orders do the symmetric thing with ext_p.  The
    combined phi is the conjunction phi_p AND phi_q with the P bits in tuple
    positions 1..s.

    Lemma: if r_p and r_q verify in reflexive_inclusive mode and ext_p,
    ext_q extend P and Q, the result verifies on product(P, Q) in that mode.
    Proof, for the query of ((p, q), (p', q')).  While p != p' the first s
    bits are the query of (p, p') in r_p (the tie-break is never reached),
    and while p = p' they all equal [q <= q' in ext_q]; symmetrically for
    the last t bits.
      * p != p' and q != q': phi_p answers [p <= p' in P] and phi_q answers
        [q <= q' in Q]; their AND is the product order.
      * Exactly one coordinate equal, say p = p' (the other case is
        symmetric): if q <= q' in ext_q, the P bits are all ones and
        phi_p(1...1) = 1, so phi answers phi_q's [q <= q' in Q], which is
        the product order since p <= p.  Otherwise q' precedes q in ext_q,
        so q <= q' fails in Q, as ext_q extends Q; phi_q answers 0, and so
        does the AND, whatever phi_p(0...0) is.
      * Both equal: every bit is 1 (ranks compare non-strictly), and
        phi_p(1...1) AND phi_q(1...1) = 1, as reflexivity asks.
    Only phi(1...1) = 1 on both factors is checked here, in O(1): it is the
    precondition a realizer that verifies on distinct pairs only can miss.
    Whether each realizer and extension fits its factor needs the posets,
    which this function does not take.
    """
    if ext_p.n != r_p.n or ext_q.n != r_q.n:
        raise SizeMismatch("extensions must cover their realizers' ground sets")
    if not (r_p.phi.bits[-1] and r_q.phi.bits[-1]):
        raise BadParameter("both factors need phi(1,...,1) = 1 to compose")
    p_n, q_n = r_p.n, r_q.n
    _capped_size(p_n * q_n)

    if p_n == 1:
        return BooleanRealizer(n=q_n, orders=r_q.orders, phi=r_q.phi)
    if q_n == 1:
        return BooleanRealizer(n=p_n, orders=r_p.orders, phi=r_p.phi)

    idx = np.arange(p_n * q_n)
    pp, qq = idx // q_n, idx % q_n

    orders = [
        LinearOrder(rank=o.rank[pp] * q_n + ext_q.rank[qq]) for o in r_p.orders
    ] + [
        LinearOrder(rank=o.rank[qq] * p_n + ext_p.rank[pp]) for o in r_q.orders
    ]
    phi_bits = np.kron(r_q.phi.bits, r_p.phi.bits)
    phi = TruthTable(arity=r_p.d + r_q.d, bits=phi_bits)
    return BooleanRealizer(n=p_n * q_n, orders=tuple(orders), phi=phi)


def transport(r: BooleanRealizer, forward: np.ndarray) -> BooleanRealizer:
    """Relabel a realizer through an isomorphism given as its forward map
    (element x of r's ground set becomes ``forward[x]``); verification status
    carries over."""
    f = np.asarray(forward, dtype=np.int64)
    if f.shape != (r.n,):
        raise SizeMismatch(f"forward map has shape {f.shape}, realizer {r.n} elements")
    back = _inverse(f, "forward map must be a bijection")
    orders = tuple(LinearOrder._of(o.rank[back]) for o in r.orders)
    return BooleanRealizer(n=r.n, orders=orders, phi=r.phi)


def upper_bound_realizer(n: int) -> BooleanRealizer:
    """A ceil(5n/6)-order realizer of the order-n Boolean lattice.

    Write n = 6k + r and compose k copies of the bundled 5-order realizer
    with the canonical r-order realizer (dropping the factor when r = 0),
    then transport the result from the nested product back onto the lattice
    through the block-decomposition bit permutation.  Index order extends
    every lattice and every index-encoded product of lattices, so the
    identity serves as each factor's linear extension and no poset is built.
    For n < 6 the one canonical factor already meets the ceil(5n/6) = n
    budget, and the permutation is the identity.
    """
    if n < 0:
        raise BadParameter(f"n must be >= 0, got {n}")
    _capped_size(2, n)
    if n == 0:
        return BooleanRealizer(
            n=1, orders=(), phi=TruthTable(arity=0, bits=np.array([1], np.uint8))
        )

    k, r = divmod(n, 6)
    blocks = [6] * k + ([r] if r else [])
    # The (r, 2) grid has the same relation as the order-r lattice.
    factors = [b6_realizer()] * k + ([canonical_grid_realizer(r, 2)] if r else [])

    def index_order(size: int) -> LinearOrder:
        return LinearOrder(rank=np.arange(size))

    cur = factors[0]
    for nxt in factors[1:]:
        cur = compose_product(cur, nxt, index_order(cur.n), index_order(nxt.n))
    forward = block_decomposition_iso(n, blocks)
    return transport(cur, np.argsort(forward))
