"""Reference answers computed without the code under test.

Everything here follows from definitions and theory: the subset encoding of
Boolean lattices, the pinned family encodings, closed-form CNF sizes, a
brute-force order dimension for small posets, and a pair-by-pair realizer
check.  The benchmark compares the program's outputs against these.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np

REFLEXIVE = "reflexive_inclusive"


def ceil_5n_6(n: int) -> int:
    return -(-5 * n // 6)


def pairs(n: int) -> int:
    """Ordered pairs of distinct elements, as the verifier reports them."""
    return n * (n - 1)


def subset_label(x: int, n: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(n) if x >> i & 1) + "}"


def verify_ok_line(n: int) -> str:
    return f"ok: {pairs(n)} ordered pairs checked (mode={REFLEXIVE})\n"


# ---------------------------------------------------------------------------
# relations of the named families, from their pinned encodings


def family_leq(spec: str) -> np.ndarray:
    """(N, N) bool relation of a named family spec."""
    name, _, arg = spec.partition(":")
    if name == "boolean":
        return lattice_rows(int(arg))(0, 1 << int(arg))
    if name == "standard":
        k = int(arg)
        leq = np.eye(2 * k, dtype=bool)
        leq[:k, k:] = ~np.eye(k, dtype=bool)
        return leq
    if name == "grid":
        n, m = (int(t) for t in arg.split("x"))
        idx = np.arange(m**n)
        leq = np.ones((m**n, m**n), dtype=bool)
        for i in range(n):
            c = (idx // m**i) % m
            leq &= c[:, None] <= c[None, :]
        return leq
    raise ValueError(f"no reference relation for {spec!r}")


def family_dim(spec: str) -> int:
    """Order dimension from theory: dim(S_n) = dim(B_n) = n, and the n-fold
    product of chains grid:<n>x<m> has dimension n."""
    return int(spec.partition(":")[2].split("x")[0])


# ---------------------------------------------------------------------------
# realizers


def rank_of(seq: list[int] | np.ndarray) -> np.ndarray:
    seq = np.asarray(seq, dtype=np.int64)
    rank = np.empty(len(seq), dtype=np.int64)
    rank[seq] = np.arange(len(seq))
    return rank


def parse_realizer_text(text: str) -> tuple[int, list[np.ndarray], np.ndarray]:
    """(n, order sequences, phi bits) of a 'realizer v1' document."""
    lines = text.splitlines()
    if lines[0] != "realizer v1":
        raise ValueError("not a realizer v1 document")
    n = int(lines[1].removeprefix("n "))
    d = int(lines[2].removeprefix("d "))
    seqs = []
    for i in range(d):
        head, _, body = lines[3 + i].partition(": ")
        if head != f"order {i + 1}":
            raise ValueError(f"bad order line {i + 1}")
        seqs.append(np.array(body.split(), dtype=np.int64))
    phi = np.array([int(c) for c in lines[3 + d].removeprefix("phi ")], np.uint8)
    return n, seqs, phi


def realizer_text(seqs: list, phi: np.ndarray) -> str:
    lines = ["realizer v1", f"n {len(seqs[0])}", f"d {len(seqs)}"]
    lines += [
        f"order {i}: " + " ".join(str(int(e)) for e in s)
        for i, s in enumerate(seqs, start=1)
    ]
    lines.append("phi " + "".join(str(int(b)) for b in phi))
    return "\n".join(lines) + "\n"


def lattice_rows(n: int):
    """Row blocks of the order-n lattice relation: x <= y iff x & ~y == 0."""
    idx = np.arange(1 << n)
    return lambda lo, hi: (idx[lo:hi, None] & ~idx[None, :]) == 0


def matrix_rows(leq: np.ndarray):
    return lambda lo, hi: leq[lo:hi]


def realizes(size: int, leq_rows, seqs: list, phi: np.ndarray) -> bool:
    """True iff every order is a permutation of 0..size-1 and phi of every
    ordered pair's query tuple equals the relation, diagonal included
    (reflexive mode).  The relation comes in row blocks from leq_rows, so no
    size x size matrix need be held."""
    if len(phi) != 1 << len(seqs):
        return False
    ranks = []
    for s in seqs:
        if len(s) != size or not np.array_equal(np.sort(s), np.arange(size)):
            return False
        ranks.append(rank_of(s))
    rows = max(1, (1 << 21) // size)
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        t = np.zeros((hi - lo, size), dtype=np.uint16)
        for i, r in enumerate(ranks):
            t |= (r[lo:hi, None] <= r[None, :]).astype(np.uint16) << i
        if not np.array_equal(phi[t].astype(bool), leq_rows(lo, hi)):
            return False
    return True


def and_bits(d: int) -> np.ndarray:
    bits = np.zeros(1 << d, dtype=np.uint8)
    bits[-1] = 1
    return bits


def threshold_bits(d: int) -> np.ndarray:
    """phi = 1 iff at most one of the d bits is 0."""
    return np.array([bin(t).count("1") >= d - 1 for t in range(1 << d)], np.uint8)


def load_b6_orders(src: Path) -> list[list[int]]:
    """The bundled B6 orders, read as data and checked against their
    published SHA-256 and against the order-6 lattice."""
    spec = importlib.util.spec_from_file_location(
        "b6_data_reference", src / "posetdim" / "b6_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seqs = [list(s) for s in module.B6_ORDER_SEQUENCES]
    joined = "\n".join(" ".join(str(e) for e in s) for s in seqs)
    if hashlib.sha256(joined.encode()).hexdigest() != module.B6_ORDERS_SHA256:
        raise ValueError("bundled B6 orders do not match their checksum")
    if not realizes(64, lattice_rows(6), [np.array(s) for s in seqs], threshold_bits(5)):
        raise ValueError("bundled B6 orders do not realize the order-6 lattice")
    return seqs


# ---------------------------------------------------------------------------
# Boolean lattice text and tampering


def lattice_covers(n: int) -> list[tuple[int, int]]:
    """Cover pairs x -> x | 1<<i of the order-n lattice, ascending."""
    return [(x, x | 1 << i) for x in range(1 << n) for i in range(n) if not x >> i & 1]


def lattice_poset_text(n: int, relabel: list[int] | None = None) -> str:
    """'poset v1' text of the order-n lattice from cover arithmetic.

    Without relabel this is the pinned serialization the program's dump
    writes; with relabel, subset x becomes element relabel[x] and the rel
    lines are sorted by the new indices.
    """
    size = 1 << n
    new = list(range(size)) if relabel is None else relabel
    labels = [""] * size
    for x in range(size):
        labels[new[x]] = subset_label(x, n)
    rels = sorted((new[x], new[y]) for x, y in lattice_covers(n))
    lines = ["poset v1", f"n {size}"]
    lines += [f"label {i} {labels[i]}" for i in range(size)]
    lines.append("mode covers")
    lines += [f"rel {x} {y}" for x, y in rels]
    return "\n".join(lines) + "\n"


def _broken_pairs(ranks, phi, a, b):
    """Pairs among (a, b), (b, a) that phi answers wrongly under ranks, in
    ascending order, as (x, y, query bits, expected, got)."""
    wrong = []
    for x, y in sorted(((a, b), (b, a))):
        bits = [int(r[x] <= r[y]) for r in ranks]
        got = int(phi[sum(bit << j for j, bit in enumerate(bits))])
        expected = int(x & ~y == 0)
        if got != expected:
            wrong.append((x, y, bits, expected, got))
    return wrong


def tamper_adjacent_swaps(
    n: int, seqs: list[np.ndarray], phi: np.ndarray, rng: random.Random
) -> tuple[list[np.ndarray], str]:
    """Swap two pairs of neighbours in the orders of a verified realizer of
    the order-n lattice, and return the tampered orders with the
    counterexample line the verifier must print.

    Swapping neighbours a, b changes the query tuple of (a, b) and (b, a)
    only, so with disjoint swaps the counterexamples are exactly the broken
    pairs among those.  The first swap breaks a pair in the sixteenth of rows
    starting at the middle, which fixes where an early-exit scan stops; the
    second breaks pairs only in the last quarter of rows, so a scan that
    reports anything but the first counterexample in (x, y) order shows.
    """
    size = 1 << n
    seqs = [s.copy() for s in seqs]
    ranks = [rank_of(s) for s in seqs]
    found = []
    for lo, hi in ((size // 2, size // 2 + size // 16), (3 * size // 4, size)):
        while True:
            i, k = rng.randrange(len(seqs)), rng.randrange(size - 1)
            a, b = int(seqs[i][k]), int(seqs[i][k + 1])
            if any(a in pair or b in pair for pair in found):
                continue
            trial = list(ranks)
            trial[i] = ranks[i].copy()
            trial[i][a], trial[i][b] = ranks[i][b], ranks[i][a]
            wrong = _broken_pairs(trial, phi, a, b)
            if wrong and all(lo <= x < hi for x, *_ in wrong):
                break
        seqs[i][k], seqs[i][k + 1] = b, a
        ranks = trial
        found.append((a, b, wrong))
    x, y, bits, expected, got = found[0][2][0]
    line = (
        f"counterexample: x={x} ({subset_label(x, n)}) y={y} ({subset_label(y, n)}) "
        f"tuple={''.join(map(str, bits))} expected={expected} got={got}\n"
    )
    return seqs, line


# ---------------------------------------------------------------------------
# CNF sizes and the pinned variable numbering


def pair_rank(x: int, y: int, n: int) -> int:
    """Position of the pair x < y in ascending (x, y) order."""
    return x * n - x * (x + 1) // 2 + (y - x - 1)


def order_var(i: int, x: int, y: int, n: int) -> int:
    return 1 + i * math.comb(n, 2) + pair_rank(x, y, n)


def cnf_size(n: int, d: int) -> tuple[int, int]:
    """(vars, clauses) of the realizer-existence CNF with free phi: one
    transitivity clause per order and ordered triple, one linking clause per
    ordered pair and tuple, and the unit clause phi(1,...,1) = 1."""
    num_vars = d * math.comb(n, 2) + (1 << d)
    clauses = d * n * (n - 1) * (n - 2) + n * (n - 1) * (1 << d) + 1
    return num_vars, clauses


def varmap_text(n: int, d: int, free_phi: bool) -> str:
    lines = [
        f"var {order_var(i, x, y, n)} order {i + 1} before {x} {y}"
        for i in range(d)
        for x in range(n)
        for y in range(x + 1, n)
    ]
    if free_phi:
        base = d * math.comb(n, 2)
        lines += [f"var {base + 1 + t} phi {t}" for t in range(1 << d)]
    return "\n".join(lines) + "\n"


def realizer_model(n: int, seqs: list, phi: np.ndarray) -> list[int]:
    """Signed literals of the realizer under the pinned numbering: order
    variables 1 + i*C(n,2) + rank(x, y), truth-table bits last."""
    lits = []
    for s in seqs:
        rank = rank_of(s)
        lits += [
            1 if rank[x] < rank[y] else -1 for x in range(n) for y in range(x + 1, n)
        ]
    lits += [1 if b else -1 for b in phi]
    return [sign * (v + 1) for v, sign in enumerate(lits)]


def model_satisfies(dimacs: bytes, model: list[int]) -> tuple[bool, str, int]:
    """(every clause satisfied, header line, clause count) of a DIMACS text
    whose clauses sit one per line."""
    header, _, body = dimacs.partition(b"\n")
    lits = np.fromstring(body, dtype=np.int64, sep=" ")
    ends = np.flatnonzero(lits == 0)
    value = np.zeros(len(model) + 1, dtype=bool)
    m = np.array(model, dtype=np.int64)
    value[np.abs(m)] = m > 0
    sat_lit = np.where(lits > 0, value[np.abs(lits)], ~value[np.abs(lits)])
    sat_lit[ends] = False
    starts = np.concatenate(([0], ends[:-1] + 1))
    ok = bool(np.logical_or.reduceat(sat_lit, starts).all()) if len(ends) else True
    return ok, header.decode(), len(ends)


# ---------------------------------------------------------------------------
# seeded random posets with brute-force dimension


def closure(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    for x, y in edges:
        leq[x, y] = True
    for k in range(n):
        leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
    return leq


def linear_extensions(leq: np.ndarray) -> list[tuple[int, ...]]:
    n = leq.shape[0]
    below = [{x for x in range(n) if x != y and leq[x, y]} for y in range(n)]
    out: list[tuple[int, ...]] = []

    def walk(placed: list[int], done: set[int]) -> None:
        if len(placed) == n:
            out.append(tuple(placed))
            return
        for v in range(n):
            if v not in done and below[v] <= done:
                walk(placed + [v], done | {v})

    walk([], set())
    return out


def brute_force_dim(leq: np.ndarray) -> int:
    """Least d such that d linear extensions intersect to exactly leq."""
    n = leq.shape[0]
    strict = sum(
        1 << (x * n + y) for x in range(n) for y in range(n) if x != y and leq[x, y]
    )
    masks = []
    for seq in linear_extensions(leq):
        rank = {v: r for r, v in enumerate(seq)}
        masks.append(
            sum(1 << (x * n + y) for x in range(n) for y in range(n) if rank[x] < rank[y])
        )
    for d in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, d):
            meet = combo[0]
            for m in combo[1:]:
                meet &= m
            if meet == strict:
                return d
    raise AssertionError("the extensions always realize the poset")


def random_poset(rng: random.Random, max_extensions: int) -> tuple[int, list, np.ndarray]:
    """(n, relation pairs, leq) of a random poset on 5 to 8
    elements that is not a chain and has few linear extensions."""
    while True:
        n = rng.randint(5, 8)
        p = rng.uniform(0.3, 0.6)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [
            (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        leq = closure(n, edges)
        count = len(linear_extensions(leq))
        if 2 <= count <= max_extensions:
            return n, edges, leq


def relation_poset_text(n: int, edges: list[tuple[int, int]]) -> str:
    lines = ["poset v1", f"n {n}", "mode relation"]
    lines += [f"rel {x} {y}" for x, y in edges]
    return "\n".join(lines) + "\n"
