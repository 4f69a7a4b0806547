"""Realizer types, the exhaustive verifier (checked against a naive
double-loop reference), builders, composition, transport, and the bundled
order-6 lattice realizer."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import posetdim as pd
import posetdim.realizer as realizer_module
from posetdim import b6_data
from posetdim.b6_data import B6_ORDER_SEQUENCES, B6_ORDERS_SHA256
from posetdim.errors import (
    BadArity,
    BadParameter,
    NotAnExtension,
    ParseError,
    SizeCap,
    SizeMismatch,
)
from posetdim.realizer import DISTINCT_ONLY, REFLEXIVE_INCLUSIVE

from corpus import four_element_posets


def verify_oracle(p, r, mode):
    """Independent double-loop verifier returning the first mismatch."""
    for x in range(p.n):
        for y in range(p.n):
            if x == y and mode == DISTINCT_ONLY:
                continue
            eps = tuple(int(o.rank[x] <= o.rank[y]) for o in r.orders)
            got = bool(r.phi.bits[sum(b << i for i, b in enumerate(eps))])
            expected = bool(p.leq[x, y])
            if got != expected:
                return pd.Counterexample(
                    x=x, y=y, query=eps, expected=expected, got=got
                )
    return None


def random_poset(rng, max_n=16):
    n = rng.randint(1, max_n)
    pairs = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            pairs.append((min(i, j), max(i, j)))
    return pd.from_relation_pairs(n, None, pairs)


def random_realizer(rng, n, max_d=4):
    d = rng.randint(0 if n == 1 else 1, max_d)
    orders = []
    for _ in range(d):
        seq = list(range(n))
        rng.shuffle(seq)
        orders.append(pd.LinearOrder.from_sequence(seq))
    bits = np.array([rng.randint(0, 1) for _ in range(1 << d)], dtype=np.uint8)
    return pd.BooleanRealizer(
        n=n, orders=tuple(orders), phi=pd.TruthTable(arity=d, bits=bits)
    )


def evaluate(r, x, y):
    """phi applied to the query tuple of (x, y)."""
    return r.phi(pd.query_tuple(r, x, y))


def realized_relation(r):
    """The (n, n) matrix of answers r gives, pair by pair."""
    return np.array(
        [[evaluate(r, x, y) for y in range(r.n)] for x in range(r.n)], dtype=bool
    )


def as_poset(leq):
    """Wrap any bool matrix; verify reads leq only, not the poset axioms."""
    return pd.Poset(n=len(leq), leq=leq, labels=tuple(map(str, range(len(leq)))))


class TestTruthTables:
    def test_and_function(self):
        assert list(pd.and_function(2).bits) == [0, 0, 0, 1]

    def test_threshold_ones(self):
        t = pd.threshold_at_most_one_zero(5)
        assert sorted(np.flatnonzero(t.bits)) == [15, 23, 27, 29, 30, 31]

    def test_threshold_arity_one_is_constant_true(self):
        assert list(pd.threshold_at_most_one_zero(1).bits) == [1, 1]

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            pd.and_function(0)
        with pytest.raises(BadArity):
            pd.threshold_at_most_one_zero(17)

    def test_tuple_index_convention(self):
        # coordinate 1 is the least significant bit
        assert pd.tuple_index((1, 0, 1)) == 0b101


class TestQueryAndEvaluate:
    def test_same_element_all_ones(self):
        r = pd.canonical_grid_realizer(2, 2)
        assert pd.query_tuple(r, 3, 3) == (1, 1)

    def test_single_order_above(self):
        r = pd.from_extensions(pd.chain(2), [pd.LinearOrder.from_sequence([0, 1])])
        assert pd.query_tuple(r, 1, 0) == (0,)

    def test_b6_bottom_to_top(self):
        # the empty set is the least element of every bundled order
        r = pd.b6_realizer()
        assert pd.query_tuple(r, 0, 63) == (1, 1, 1, 1, 1)
        assert evaluate(r, 0, 63)

    def test_pinned_extension_pair(self):
        b2 = pd.boolean_lattice(2)
        exts, _ = pd.linear_extensions(b2)
        r = pd.from_extensions(b2, exts)
        assert pd.query_tuple(r, 1, 2) == (1, 0)
        assert not evaluate(r, 1, 2)

    def test_canonical_b2_pair(self):
        r = pd.canonical_grid_realizer(2, 2)
        assert not evaluate(r, 1, 2)
        assert evaluate(r, 0, 3)


class TestVerify:
    def test_b6_ok_both_modes(self):
        p, r = pd.boolean_lattice(6), pd.b6_realizer()
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            outcome = pd.verify(p, r, mode)
            assert outcome.ok and outcome.pairs_checked == 4032

    def test_unknown_mode_is_bad_parameter(self):
        p, r = pd.boolean_lattice(2), pd.canonical_grid_realizer(2, 2)
        with pytest.raises(BadParameter):
            pd.verify(p, r, mode="x")
        with pytest.raises(BadParameter):
            pd.exact_bdim(p, mode="x")
        with pytest.raises(BadParameter):
            pd.encode_bdim_sat(p, 2, mode="x")

    def test_empty_realizer_on_point(self):
        r = pd.BooleanRealizer(
            n=1, orders=(), phi=pd.TruthTable(arity=0, bits=np.array([1], np.uint8))
        )
        assert pd.verify(pd.chain(1), r).ok

    def test_swapped_positions_counterexample(self):
        b2 = pd.boolean_lattice(2)
        r = pd.canonical_grid_realizer(2, 2)
        seq = list(r.orders[0].sequence())
        a, b = seq.index(1), seq.index(3)
        seq[a], seq[b] = seq[b], seq[a]
        tampered = pd.BooleanRealizer(
            n=4,
            orders=(pd.LinearOrder.from_sequence(seq), r.orders[1]),
            phi=r.phi,
        )
        outcome = pd.verify(b2, tampered)
        assert not outcome.ok
        assert outcome.counterexample == verify_oracle(b2, tampered, REFLEXIVE_INCLUSIVE)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            pd.verify(pd.chain(3), pd.canonical_grid_realizer(2, 2))

    def test_phi_all_ones_required_only_in_reflexive_mode(self):
        # single order on an antichain answering "no" everywhere
        p = pd.antichain(2)
        r = pd.BooleanRealizer(
            n=2,
            orders=(pd.LinearOrder.from_sequence([0, 1]),),
            phi=pd.TruthTable(arity=1, bits=np.array([0, 0], np.uint8)),
        )
        assert not pd.verify(p, r, REFLEXIVE_INCLUSIVE).ok
        assert pd.verify(p, r, DISTINCT_ONLY).ok

    def test_reflexive_failure_reports_diagonal_first(self):
        p = pd.antichain(2)
        r = pd.BooleanRealizer(
            n=2,
            orders=(pd.LinearOrder.from_sequence([0, 1]),),
            phi=pd.TruthTable(arity=1, bits=np.array([0, 0], np.uint8)),
        )
        c = pd.verify(p, r, REFLEXIVE_INCLUSIVE).counterexample
        assert (c.x, c.y) == (0, 0) and c.query == (1,)

    def test_agrees_with_oracle_on_random_inputs(self):
        rng = random.Random(20240817)
        for _ in range(100):
            p = random_poset(rng)
            r = random_realizer(rng, p.n)
            for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                outcome = pd.verify(p, r, mode)
                expected = verify_oracle(p, r, mode)
                assert outcome.ok == (expected is None)
                assert outcome.counterexample == expected

    def test_threads_do_not_change_outcome(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_poset(rng, max_n=40)
            r = random_realizer(rng, p.n)
            assert pd.verify(p, r, threads=3) == pd.verify(p, r, threads=1)

    @pytest.mark.parametrize("cells", (1, 7, 100))
    def test_agrees_with_oracle_across_many_chunks(self, monkeypatch, cells):
        # Tiny chunks split even 40 elements into many, often with a short
        # last chunk, so every thread reuses its buffers and the distinct_only
        # diagonal mask runs at nonzero row offsets.
        monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(cells)
        for _ in range(12):
            r = random_realizer(rng, rng.randint(1, 40), max_d=6)
            leq = realized_relation(r)
            for _ in range(rng.randint(0, 3)):  # mismatches anywhere, or none
                x, y = rng.randrange(r.n), rng.randrange(r.n)
                leq[x, y] = not leq[x, y]
            p = as_poset(leq)
            for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                expected = verify_oracle(p, r, mode)
                for threads in (1, 2, 3):
                    outcome = pd.verify(p, r, mode, threads=threads)
                    assert outcome.ok == (expected is None)
                    assert outcome.counterexample == expected
                    assert outcome.pairs_checked == r.n * (r.n - 1)

    @pytest.mark.parametrize("cells", (1, 7, None))
    @pytest.mark.parametrize("d", (7, 8, 9, 15, 16))
    def test_byte_split_agrees_with_oracle(self, monkeypatch, d, cells):
        # Orders 9-16 fill the index's high byte and orders 1-8 its low byte.
        # Mismatches are planted only where the tuple index has a bit at
        # position 8 or higher, or only where it is below 256, so a dropped,
        # swapped or misplaced byte changes the answer.
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(d)
        n = 24
        base = list(range(n))
        rng.shuffle(base)
        orders = []
        for i in range(d):
            # Orders 9-16 are neighbour-swapped copies of one base order, so
            # pairs below each other in it keep a zero high byte.
            seq = base.copy()
            if i < 8:
                rng.shuffle(seq)
            for j in rng.sample(range(n - 1), 6):
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
            orders.append(pd.LinearOrder.from_sequence(seq))
        bits = np.array([rng.randint(0, 1) for _ in range(1 << d)], np.uint8)
        r = pd.BooleanRealizer(
            n=n, orders=tuple(orders), phi=pd.TruthTable(arity=d, bits=bits)
        )
        realized = realized_relation(r)
        index = {
            (x, y): pd.tuple_index(pd.query_tuple(r, x, y))
            for x in range(n)
            for y in range(n)
        }
        high = [cell for cell, i in index.items() if i >= 256]
        low = [cell for cell, i in index.items() if i < 256]
        assert len(low) > n and (len(high) > n) == (d > 8)
        for kind in ([], high, low):
            planted = rng.sample(kind, min(3, len(kind)))
            leq = realized.copy()
            for x, y in planted:
                leq[x, y] = not leq[x, y]
            p = as_poset(leq)
            for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                expected = verify_oracle(p, r, mode)
                assert (expected is None) == all(
                    mode == DISTINCT_ONLY and x == y for x, y in planted
                )
                for threads in (1, 2, 3):
                    assert pd.verify(p, r, mode, threads=threads) == pd.VerifyOutcome(
                        ok=expected is None,
                        pairs_checked=n * (n - 1),
                        counterexample=expected,
                    )

    @pytest.mark.parametrize("bit", (0, 1))
    def test_zero_orders(self, bit):
        r = pd.BooleanRealizer(
            n=1, orders=(), phi=pd.TruthTable(arity=0, bits=np.array([bit], np.uint8))
        )
        p = pd.chain(1)
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            outcome = pd.verify(p, r, mode)
            assert outcome.counterexample == verify_oracle(p, r, mode)
        assert pd.verify(p, r).ok == bool(bit)

    def test_sixteen_orders_reach_the_last_tuple_index(self):
        # Sixteen equal orders send every x <= y pair to tuple index 65535,
        # the last bit of a 65536-bit phi, and every other pair to index 0.
        n = 5
        identity = pd.LinearOrder.from_sequence(list(range(n)))
        r = pd.BooleanRealizer(n=n, orders=(identity,) * 16, phi=pd.and_function(16))
        assert pd.verify(pd.chain(n), r).ok
        bits = r.phi.bits.copy()
        bits[65535] = 0
        broken = pd.BooleanRealizer(
            n=n, orders=r.orders, phi=pd.TruthTable(arity=16, bits=bits)
        )
        for mode, first in ((REFLEXIVE_INCLUSIVE, (0, 0)), (DISTINCT_ONLY, (0, 1))):
            c = pd.verify(pd.chain(n), broken, mode).counterexample
            assert c == verify_oracle(pd.chain(n), broken, mode)
            assert (c.x, c.y) == first and c.query == (1,) * 16

    def test_sixteen_random_orders_agree_with_oracle(self):
        rng = random.Random(16)
        orders = []
        for _ in range(16):
            seq = list(range(24))
            rng.shuffle(seq)
            orders.append(pd.LinearOrder.from_sequence(seq))
        bits = np.array([rng.randint(0, 1) for _ in range(1 << 16)], dtype=np.uint8)
        r = pd.BooleanRealizer(
            n=24, orders=tuple(orders), phi=pd.TruthTable(arity=16, bits=bits)
        )
        leq = realized_relation(r)
        leq[20, 3] = not leq[20, 3]
        p = as_poset(leq)
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            c = pd.verify(p, r, mode, threads=2).counterexample
            assert c == verify_oracle(p, r, mode) and (c.x, c.y) == (20, 3)

    def test_b13_scan_memory_is_chunk_sized(self):
        # Per thread: a few chunk-sized buffers, never an (n, n) temporary
        # or the relation (64 MB as bool), which the lattice does not hold.
        r = pd.upper_bound_realizer(13)
        tracemalloc.start()
        try:
            outcome = pd.verify(pd.boolean_lattice(13), r, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome.ok
        assert peak < 16 * 2**20

    def test_first_counterexample_across_chunks(self):
        """Swapping neighbours in the orders of B12's realizer breaks pairs
        in rows 2048-2303 and in rows 3072 and up, which the scan puts in
        different row chunks; every thread count reports the smallest broken
        pair, whichever chunk finishes first."""
        p = pd.boolean_lattice(12)
        r = pd.upper_bound_realizer(12)
        seqs = [o.sequence().copy() for o in r.orders]
        swapped = set()
        for seq in seqs:
            for j in range(0, len(seq) - 1, 2):  # disjoint neighbour slots
                a, b = int(seq[j]), int(seq[j + 1])
                if all(2048 <= e < 2304 for e in (a, b)) or min(a, b) >= 3072:
                    seq[j], seq[j + 1] = b, a
                    swapped.add((a, b))
        tampered = pd.BooleanRealizer(
            n=r.n,
            orders=tuple(pd.LinearOrder.from_sequence(s) for s in seqs),
            phi=r.phi,
        )
        # A neighbour swap changes only the swapped pair's query tuples.
        broken = sorted(
            (x, y)
            for a, b in swapped
            for x, y in ((a, b), (b, a))
            if evaluate(tampered, x, y) != bool(p.leq[x, y])
        )
        assert 2048 <= broken[0][0] < 2304
        assert any(x >= 3072 for x, _ in broken)
        rows_per_chunk = max(1, realizer_module._CHUNK_CELLS // p.n)
        assert 2303 // rows_per_chunk < 3072 // rows_per_chunk
        x, y = broken[0]
        for threads in (1, 2, 3):
            c = pd.verify(p, tampered, threads=threads).counterexample
            assert (c.x, c.y) == (x, y), threads
            assert c.query == pd.query_tuple(tampered, x, y)
            assert c.expected == bool(p.leq[x, y]) and c.got != c.expected


def index_ordered_leq(rng, n):
    """A random poset relation that index order extends, as a writable copy."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    return pd.from_relation_pairs(n, None, pairs).leq.copy()


def pairwise_realizer(rng, leq, d=16):
    """(r, index): a realizer of leq whose orders give each ordered pair of
    distinct elements its own query tuple, never the all-ones one, with
    index[x, y] that tuple's index.  phi is set pair by pair, so flipping
    phi at index[x, y] breaks the pair (x, y) and no other."""
    n = len(leq)
    while True:
        seqs = [rng.sample(range(n), n) for _ in range(d)]
        orders = tuple(pd.LinearOrder.from_sequence(s) for s in seqs)
        ranks = np.array([o.rank for o in orders])
        weights = 1 << np.arange(d)[:, None, None]
        table = ((ranks[:, :, None] <= ranks[:, None, :]) * weights).sum(axis=0)
        index = {(x, y): int(table[x, y]) for x in range(n) for y in range(n) if x != y}
        values = set(index.values())
        if len(values) == len(index) and (1 << d) - 1 not in values:
            break
    bits = np.zeros(1 << d, np.uint8)
    bits[-1] = 1
    for (x, y), t in index.items():
        bits[t] = leq[x, y]
    r = pd.BooleanRealizer(n=n, orders=orders, phi=pd.TruthTable(arity=d, bits=bits))
    return r, index


def with_phi(r, bits):
    return pd.BooleanRealizer(
        n=r.n, orders=r.orders, phi=pd.TruthTable(arity=r.d, bits=bits)
    )


def assert_matches_oracle(p, r):
    """verify agrees with the oracle in both modes at 1-3 threads; returns
    the oracle's counterexamples by mode."""
    found = {}
    for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
        expected = verify_oracle(p, r, mode)
        for threads in (1, 2, 3):
            assert pd.verify(p, r, mode, threads=threads) == pd.VerifyOutcome(
                ok=expected is None,
                pairs_checked=p.n * (p.n - 1),
                counterexample=expected,
            ), (mode, threads)
        found[mode] = expected
    return found


class TestHalfScan:
    """verify looks each unordered pair {x, y}, x < y, up once, in a table
    that answers (x, y) and (y, x) together, against leq[x, y] +
    2 * leq[y, x]; each chunk reports its least wrong ordered pair.
    Mismatches are planted where only one half of that lookup, or only the
    diagonal, sees them."""

    @pytest.mark.parametrize("cells", (1, 7, None))
    def test_agrees_with_oracle_on_index_ordered_and_relabelled(
        self, monkeypatch, cells
    ):
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(cells)
        for trial in range(24):
            n = rng.randint(1, 12)
            leq = index_ordered_leq(rng, n)
            r, index = pairwise_realizer(rng, leq)
            bits = r.phi.bits.copy()
            for x, y in rng.sample(sorted(index), min(len(index), rng.randint(0, 2))):
                bits[index[x, y]] ^= 1  # (x, y) on either side of the diagonal
            if rng.random() < 0.2:
                bits[-1] = 0
            broken = with_phi(r, bits)
            perm = np.array(rng.sample(range(n), n))
            relabelled = leq[np.ix_(perm, perm)]
            moved = pd.transport(broken, np.argsort(perm))
            assert_matches_oracle(as_poset(leq), broken)
            assert_matches_oracle(as_poset(relabelled), moved)

    @pytest.mark.parametrize("cells", (1, 7, None))
    @pytest.mark.parametrize("side", ("upper", "lower"))
    def test_planted_on_one_side(self, monkeypatch, cells, side):
        # "upper" breaks pairs (x, y) with x < y, "lower" pairs (y, x), which
        # the half scan sees only through the phi[~t] half of its table.
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(f"{side}{cells}")
        for trial in range(6):
            n = rng.randint(2, 12)
            leq = index_ordered_leq(rng, n)
            r, index = pairwise_realizer(rng, leq)
            above = [(x, y) for x, y in index if (x < y) == (side == "upper")]
            planted = rng.sample(above, min(len(above), rng.randint(1, 3)))
            bits = r.phi.bits.copy()
            for x, y in planted:
                bits[index[x, y]] ^= 1
            found = assert_matches_oracle(as_poset(leq), with_phi(r, bits))
            for c in found.values():
                assert (c.x, c.y) == min(planted)

    @pytest.mark.parametrize("cells", (1, 7, None))
    def test_planted_on_the_diagonal(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(cells)
        for n in (1, 2, 5, 12):
            leq = index_ordered_leq(rng, n)
            r, _ = pairwise_realizer(rng, leq)
            bits = r.phi.bits.copy()
            bits[-1] = 0  # phi(1,...,1), the answer on every diagonal cell
            found = assert_matches_oracle(as_poset(leq), with_phi(r, bits))
            c = found[REFLEXIVE_INCLUSIVE]
            assert (c.x, c.y) == (0, 0) and c.expected and not c.got
            assert found[DISTINCT_ONLY] is None

    def test_planted_across_chunk_boundaries(self, monkeypatch):
        # Three rows per chunk: [0, 3), [3, 6), [6, 9), [9, 12).  A pair
        # {x, y}, x < y, fails the chunk of x; when only (y, x) is wrong the
        # scan must run on to the chunk of y, whose own pairs come first.
        n = 12
        monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", 3 * n)
        rng = random.Random(12)
        leq = index_ordered_leq(rng, n)
        r, index = pairwise_realizer(rng, leq)
        for planted, first in (
            ([(7, 2)], (7, 2)),
            ([(3, 2)], (3, 2)),
            ([(2, 3)], (2, 3)),
            ([(10, 1), (4, 8)], (4, 8)),
            ([(11, 0), (2, 9)], (2, 9)),
            ([(8, 5), (5, 9), (9, 3)], (5, 9)),
        ):
            bits = r.phi.bits.copy()
            for x, y in planted:
                bits[index[x, y]] ^= 1
            found = assert_matches_oracle(as_poset(leq), with_phi(r, bits))
            for c in found.values():
                assert (c.x, c.y) == first, planted

    def test_each_chunk_is_scanned_at_most_once(self, monkeypatch):
        # Records the start row of each chunk scan, on the pool's workers and
        # in the caller.  A realizer that verifies scans every chunk once,
        # which also shows that cells y <= x inside a chunk are masked:
        # (y, x) with y > x answers 0 in leq but phi[t] + 2 * phi[~t] there
        # can be 2.
        calls = []

        def spy(fn):
            def scan(start):
                calls.append(start)
                return fn(start)

            return scan

        class RecordingPool(realizer_module.ThreadPoolExecutor):
            def submit(self, fn, *args):
                return super().submit(spy(fn), *args)

        run_now = realizer_module._run_now
        monkeypatch.setattr(realizer_module, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(
            realizer_module, "_run_now", lambda fn, *args: run_now(spy(fn), *args)
        )
        n = 64
        monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", 5 * n)
        p = pd.boolean_lattice(6)
        assert pd.verify(p, pd.b6_realizer(), threads=1).ok
        assert calls == list(range(0, n, 5))
        rng = random.Random(6)
        leq = index_ordered_leq(rng, 12)
        r, index = pairwise_realizer(rng, leq)
        monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", 3 * 12)
        # Every pair fails the chunk of rows [3, 6).  (8, 4) and (11, 5) are
        # marked there through their cells (4, 8) and (5, 11), at flat
        # indices 8 * 12 + 4 and 11 * 12 + 5, past the start of each later
        # chunk up to their first row, so the scan must read those too.  The
        # answer needs exactly the chunks that start at or before its flat
        # index: one thread scans those, t threads at most t more.
        for planted in ((4, 8), (8, 4), (11, 5)):
            bits = r.phi.bits.copy()
            bits[index[planted]] ^= 1
            answer = planted[0] * 12 + planted[1]
            needed = [s for s in range(0, 12, 3) if s * 12 <= answer]
            for threads in (1, 2, 3):
                calls.clear()
                c = pd.verify(as_poset(leq), with_phi(r, bits), threads=threads)
                assert (c.counterexample.x, c.counterexample.y) == planted
                assert len(calls) == len(set(calls)), (planted, calls)
                assert set(needed) <= set(calls), calls
                assert len(calls) <= len(needed) + threads
                if threads == 1:
                    assert calls == needed
        # With one row a chunk, (8, 4), at flat index 100, needs 9 of the 12
        # chunks, so the bounds bind.
        monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", 12)
        bits = r.phi.bits.copy()
        bits[index[8, 4]] ^= 1
        for threads in (1, 2, 3):
            calls.clear()
            pd.verify(as_poset(leq), with_phi(r, bits), threads=threads)
            assert sorted(calls)[:9] == list(range(9)) and len(set(calls)) == len(calls)
            assert len(calls) <= 9 + (threads if threads > 1 else 0), (threads, calls)

    def test_not_antisymmetric_is_caught_by_the_half_scan(self):
        # leq[1, 2] and leq[2, 1] both hold; the realizer answers (1, 2)
        # right and (2, 1) wrong.  (1, 2)'s cell holds phi[t] + 2 * phi[~t]
        # = 1 + 0, which matches leq[1, 2] alone but not leq[1, 2] +
        # 2 * leq[2, 1] = 3.
        leq = pd.chain(4).leq.copy()
        leq[2, 1] = True
        p = as_poset(leq)
        r = pd.from_extensions(pd.chain(4), [pd.LinearOrder(rank=np.arange(4))])
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            for threads in (1, 2, 3):
                assert pd.verify(p, r, mode, threads=threads) == pd.VerifyOutcome(
                    ok=False,
                    pairs_checked=12,
                    counterexample=pd.Counterexample(
                        x=2, y=1, query=(0,), expected=True, got=False
                    ),
                )


def lattice_variants(rng, n):
    """upper_bound_realizer(n) and copies broken by adjacent swaps, by one
    flipped phi bit and by phi(1,...,1) = 0."""
    r = pd.upper_bound_realizer(n)
    variants = [r]
    if r.d and r.n > 1:
        for count in (1, r.d):  # one order swapped, then every order
            seqs = [o.sequence().copy() for o in r.orders]
            for seq in seqs[:count]:
                j = rng.randrange(r.n - 1)
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
            orders = tuple(pd.LinearOrder.from_sequence(s) for s in seqs)
            variants.append(pd.BooleanRealizer(n=r.n, orders=orders, phi=r.phi))
    for index in (rng.randrange(1 << r.d), -1):
        bits = r.phi.bits.copy()
        bits[index] ^= 1
        variants.append(with_phi(r, bits))
    return variants


class TestLatticeArithmetic:
    """A Boolean lattice holds no matrix: verify reads its relation as
    x & y == x, and must answer exactly as on the same matrix held dense."""

    @pytest.mark.parametrize("cells", (7, None))
    def test_agrees_with_the_dense_matrix(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(cells)
        seen = set()
        for n in range(9):
            lattice = pd.boolean_lattice(n)
            idx = np.arange(lattice.n)
            dense = as_poset((idx[:, None] & idx[None, :]) == idx[:, None])
            for r in lattice_variants(rng, n):
                for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                    for threads in (1, 2, 3):
                        got = pd.verify(lattice, r, mode, threads=threads)
                        assert got == pd.verify(dense, r, mode, threads=threads)
                        seen.add((mode, got.ok))
            assert "leq" not in vars(lattice)  # verify never built the matrix
        assert len(seen) == 4  # each mode both passed and failed


def relabelled_pairs(rng, n):
    """Relation pairs of a random poset whose element numbers are shuffled,
    so index order need not extend it."""
    perm = rng.sample(range(n), n)
    return [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.25
    ]


def family_posets():
    """(poset, matrix) of each family constructor that packs rows, with the
    matrix built independently of it."""
    grid = np.array([(v % 3, v // 3) for v in range(9)])  # coordinate 1 first
    grid_leq = (grid[:, None, :] <= grid[None, :, :]).all(axis=2)
    chain3 = np.triu(np.ones((3, 3), bool))
    standard = np.eye(10, dtype=bool)
    standard[:5, 5:] = ~np.eye(5, dtype=bool)
    keep = [0, 2, 3, 5, 6, 8]
    return [
        (pd.chain(9), np.triu(np.ones((9, 9), bool))),
        (pd.antichain(17), np.eye(17, dtype=bool)),
        (pd.standard_example(5), standard),
        (pd.multiset_grid(2, 3), grid_leq),
        (pd.product(pd.chain(3), pd.antichain(3)), np.kron(chain3, np.eye(3, dtype=bool))),
        (pd.product(pd.chain(3), pd.multiset_grid(2, 3)), np.kron(chain3, grid_leq)),
        (pd.subposet(pd.multiset_grid(2, 3), keep), grid_leq[np.ix_(keep, keep)]),
    ]


class TestPackedRelation:
    """A poset from relation pairs holds packed bit rows; verify reads them
    block by block, the converse block too, and never unpacks the matrix."""

    @pytest.mark.parametrize("cells", (1, 7, None))
    def test_agrees_with_the_dense_matrix(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        rng = random.Random(f"packed{cells}")
        seen = set()
        for trial in range(25):
            n = rng.randint(1, 20)
            pairs = relabelled_pairs(rng, n)
            packed = pd.from_relation_pairs(n, None, pairs)
            leq = pd.from_relation_pairs(n, None, pairs).leq.copy()
            dense = pd.Poset(n, leq, packed.labels)
            r, index = pairwise_realizer(rng, leq)
            bits = r.phi.bits.copy()
            side = ("above", "below", "pair", "diagonal", "none")[trial % 5]
            on_side = sorted(c for c in index if (c[0] < c[1]) == (side == "above"))
            if side in ("above", "below") and on_side:
                for x, y in rng.sample(on_side, min(len(on_side), 2)):
                    bits[index[x, y]] ^= 1
            elif side == "pair":  # both answers of a comparable pair swapped
                comparable = sorted(c for c in index if leq[c] and c[0] > c[1])
                for x, y in rng.sample(comparable, min(len(comparable), 1)):
                    bits[index[x, y]] ^= 1
                    bits[index[y, x]] ^= 1
            elif side == "diagonal":
                bits[-1] = 0
            broken = with_phi(r, bits)
            for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                expected = verify_oracle(dense, broken, mode)
                for threads in (1, 2, 3):
                    got = pd.verify(packed, broken, mode, threads=threads)
                    assert got == pd.verify(dense, broken, mode, threads=threads)
                    assert got.counterexample == expected, (mode, threads)
                seen.add((mode, expected is None))
            assert "leq" not in vars(packed)
        assert len(seen) == 4  # each mode both passed and failed

    def test_blocks_match_the_matrix(self):
        # Every block, at every bit offset into the packed bytes, of every
        # poset that holds rows: closed from pairs, built by a family
        # constructor, or wrapped from any bool matrix.
        rng = random.Random(17)
        cases = []
        for n in (1, 7, 8, 9, 17, 24):
            pairs = relabelled_pairs(rng, n)
            leq = pd.from_relation_pairs(n, None, pairs).leq
            cases.append((pd.from_relation_pairs(n, None, pairs), leq))
            # Neither reflexive nor antisymmetric, in general.
            wild = np.array([[rng.random() < 0.4 for _ in range(n)] for _ in range(n)])
            cases.append((pd.Poset(n, wild, tuple(map(str, range(n)))), wild))
        cases += family_posets()
        for p, leq in cases:
            n = p.n
            assert "leq" not in vars(p)  # no poset keeps a matrix until read
            for a in range(n):
                for b in range(a + 1, n + 1):
                    for c in range(0, n, 3):
                        rows, cols = slice(a, b), slice(c, n)
                        assert np.array_equal(p._relation(rows, cols), leq[rows, cols])
                        converse = p._converse(rows, cols)
                        assert np.array_equal(converse, leq[cols, rows].T)
            assert np.array_equal(p.leq, leq)
            assert not p.leq.flags.writeable

    @pytest.mark.parametrize("cells", (1, 7, 36, None))
    def test_diagonal_plant_at_chunk_ends(self, monkeypatch, cells):
        # leq[x, x] = False at the first or last row of a chunk, or both:
        # reflexive mode reads it from bit 0 of the chunk's code there.
        if cells is not None:
            monkeypatch.setattr(realizer_module, "_CHUNK_CELLS", cells)
        n = 12
        rng = random.Random(f"diagonal{cells}")
        base = index_ordered_leq(rng, n)
        r, _ = pairwise_realizer(rng, base)
        step = max(1, realizer_module._CHUNK_CELLS // n)
        for start in range(0, n, step):
            last = min(start + step, n) - 1
            for planted in ({start}, {last}, {start, last}):
                leq = base.copy()
                for x in planted:
                    leq[x, x] = False
                found = assert_matches_oracle(as_poset(leq), r)
                c = found[REFLEXIVE_INCLUSIVE]
                assert (c.x, c.y) == (min(planted),) * 2 and not c.expected
                assert found[DISTINCT_ONLY] is None

    def test_verify_of_each_family_builds_no_matrix(self):
        rng = random.Random(5)
        posets = [p for p, _ in family_posets()] + [pd.boolean_lattice(4)]
        for p in posets:
            r = random_realizer(rng, p.n)
            for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                pd.verify(p, r, mode, threads=2)
            assert "leq" not in vars(p), p

    def test_verify_of_a_parsed_file_builds_no_matrix(self):
        from posetdim.formats import parse_poset, serialize_poset

        rng = random.Random(8)
        perm = np.array(rng.sample(range(256), 256))
        lattice = pd.boolean_lattice(8)
        relabelled = pd.from_relation_pairs(
            256,
            None,
            [
                (int(perm[x]), int(perm[y]))
                for x, ys in enumerate(pd.poset.upper_covers(lattice))
                for y in ys
            ],
        )
        p = parse_poset(serialize_poset(relabelled))
        r = pd.transport(pd.upper_bound_realizer(8), perm)
        assert pd.verify(p, r, threads=2).ok
        tampered = with_phi(r, r.phi.bits ^ (np.arange(1 << r.d) == 5))
        outcome = pd.verify(p, tampered)
        assert not outcome.ok
        expected = verify_oracle(relabelled, tampered, REFLEXIVE_INCLUSIVE)
        assert outcome.counterexample == expected
        assert "leq" not in vars(p)


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))),
            st.integers(0, n - 1),
            st.integers(0, n - 1),
        )
    )
)
def test_complement_property(case):
    seq, x, y = case
    order = pd.LinearOrder.from_sequence(list(seq))
    r = pd.BooleanRealizer(
        n=len(seq),
        orders=(order,),
        phi=pd.TruthTable(arity=1, bits=np.array([0, 1], np.uint8)),
    )
    if x != y:
        (ex,), (ey,) = pd.query_tuple(r, x, y), pd.query_tuple(r, y, x)
        assert ex + ey == 1


class TestFromExtensions:
    def test_chain_single_extension(self):
        p = pd.chain(4)
        r = pd.from_extensions(p, [pd.some_linear_extension(p)])
        assert pd.verify(p, r).ok

    def test_b2_pinned_extensions(self):
        b2 = pd.boolean_lattice(2)
        exts, _ = pd.linear_extensions(b2)
        assert pd.verify(b2, pd.from_extensions(b2, exts)).ok

    def test_duplicate_extension_fails_verification(self):
        b2 = pd.boolean_lattice(2)
        ext = pd.some_linear_extension(b2)
        outcome = pd.verify(b2, pd.from_extensions(b2, [ext, ext]))
        assert not outcome.ok
        assert (outcome.counterexample.x, outcome.counterexample.y) == (1, 2)

    def test_rejects_non_extension(self):
        with pytest.raises(NotAnExtension):
            pd.from_extensions(
                pd.chain(2), [pd.LinearOrder.from_sequence([1, 0])]
            )

    def test_realizing_families_verify(self):
        # lattices up to n=8, grids up to 256 elements, chains: the canonical
        # coordinate orders are extensions whose intersection is the poset
        cases = [(pd.boolean_lattice(n), pd.canonical_grid_realizer(n, 2))
                 for n in range(1, 9)]
        cases += [(pd.multiset_grid(n, m), pd.canonical_grid_realizer(n, m))
                  for n, m in ((2, 3), (2, 4), (3, 3), (2, 16), (4, 4))]
        cases += [(pd.chain(k), pd.canonical_grid_realizer(1, k)) for k in (1, 5, 9)]
        for p, canonical in cases:
            rebuilt = pd.from_extensions(p, list(canonical.orders))
            assert pd.verify(p, rebuilt).ok

    def test_products_of_chains_realized_by_lex_orders(self):
        p = pd.product(pd.chain(3), pd.chain(4))
        idx = np.arange(p.n)
        a, b = idx // 4, idx % 4
        one = pd.LinearOrder(rank=np.lexsort((b, a)).argsort())
        two = pd.LinearOrder(rank=np.lexsort((a, b)).argsort())
        assert pd.verify(p, pd.from_extensions(p, [one, two])).ok


class TestCanonicalGridRealizer:
    @pytest.mark.parametrize("n,m", [(1, 5), (2, 3), (3, 3), (2, 4)])
    def test_verifies_on_grid(self, n, m):
        assert pd.verify(pd.multiset_grid(n, m), pd.canonical_grid_realizer(n, m)).ok

    def test_single_coordinate_is_chain(self):
        r = pd.canonical_grid_realizer(1, 4)
        assert r.d == 1 and pd.verify(pd.chain(4), r).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_verifies_on_boolean_lattice(self, n):
        assert pd.verify(pd.boolean_lattice(n), pd.canonical_grid_realizer(n, 2)).ok

    @pytest.mark.parametrize(
        "n, m, error",
        [(0, 2, BadParameter), (2, 0, BadParameter), (5, 7, SizeCap),
         (30_000_000, 1, SizeCap)],
    )
    def test_rejects_what_the_grid_rejects(self, n, m, error):
        with pytest.raises(error):
            pd.multiset_grid(n, m)
        with pytest.raises(error):
            pd.canonical_grid_realizer(n, m)


class TestB6Realizer:
    def test_orders_need_not_be_extensions(self):
        # None of the five bundled orders extends the lattice relation; the
        # verifier must accept the realizer anyway.
        p6 = pd.boolean_lattice(6)
        r = pd.b6_realizer()
        assert not any(pd.is_linear_extension(p6, o) for o in r.orders)
        assert pd.verify(p6, r).ok

    def test_transcription_checksum(self):
        canon = "\n".join(
            " ".join(str(e) for e in seq) for seq in B6_ORDER_SEQUENCES
        )
        assert hashlib.sha256(canon.encode("ascii")).hexdigest() == B6_ORDERS_SHA256

    def test_each_order_is_a_bijection(self):
        for seq in B6_ORDER_SEQUENCES:
            assert sorted(seq) == list(range(64))

    def test_bottom_is_empty_set_everywhere(self):
        for seq in B6_ORDER_SEQUENCES:
            assert seq[0] == 0

    def test_top_of_first_order_is_full_set(self):
        assert B6_ORDER_SEQUENCES[0][-1] == 63

    def test_verifies(self):
        assert pd.verify(pd.boolean_lattice(6), pd.b6_realizer()).ok

    def test_shape(self):
        r = pd.b6_realizer()
        assert r.n == 64 and r.d == 5
        assert r.phi == pd.threshold_at_most_one_zero(5)

    def test_checksum_checked_at_load(self, monkeypatch):
        # Swapped orders still realize B6 (phi is symmetric), so only the
        # checksum can tell that the bundled data changed.
        seqs = list(B6_ORDER_SEQUENCES)
        seqs[0], seqs[1] = seqs[1], seqs[0]
        monkeypatch.setattr(b6_data, "B6_ORDER_SEQUENCES", tuple(seqs))
        with pytest.raises(ParseError, match="checksum"):
            pd.b6_realizer()


class TestComposeProduct:
    def test_chain2_squared_realizes_b2(self):
        c2 = pd.chain(2)
        bit = pd.BooleanRealizer(
            n=2,
            orders=(pd.LinearOrder.from_sequence([0, 1]),),
            phi=pd.TruthTable(arity=1, bits=np.array([0, 1], np.uint8)),
        )
        ext = pd.some_linear_extension(c2)
        composed = pd.compose_product(bit, bit, ext, ext)
        prod = pd.product(c2, c2)
        assert composed.d == 2
        assert pd.verify(prod, composed).ok

    def test_single_element_factor_passthrough(self):
        point = pd.chain(1)
        q = pd.boolean_lattice(2)
        r_q = pd.canonical_grid_realizer(2, 2)
        point_r = pd.BooleanRealizer(
            n=1, orders=(), phi=pd.TruthTable(arity=0, bits=np.array([1], np.uint8))
        )
        composed = pd.compose_product(
            point_r, r_q, pd.some_linear_extension(point), pd.some_linear_extension(q)
        )
        assert composed.orders == r_q.orders and composed.phi == r_q.phi

    def test_extension_size_mismatch(self):
        r = pd.canonical_grid_realizer(2, 2)
        ext = pd.some_linear_extension(pd.boolean_lattice(2))
        with pytest.raises(SizeMismatch):
            pd.compose_product(r, r, ext, pd.some_linear_extension(pd.chain(3)))

    def test_size_cap(self):
        r = pd.canonical_grid_realizer(1, 100)
        ext = pd.LinearOrder(rank=np.arange(100))
        with pytest.raises(SizeCap):
            pd.compose_product(r, r, ext, ext)

    def test_randomized_trials(self):
        rng = random.Random(99)
        pool = [p for _, p in four_element_posets()]
        pool += [pd.chain(k) for k in (1, 2, 3)]
        witnesses = {id(p): pd.from_extensions(p, pd.exact_dim(p)[1]) for p in pool}
        for _ in range(10):
            p, q = rng.choice(pool), rng.choice(pool)
            r_p, r_q = witnesses[id(p)], witnesses[id(q)]
            assert pd.verify(p, r_p).ok and pd.verify(q, r_q).ok
            composed = pd.compose_product(
                r_p, r_q, pd.some_linear_extension(p), pd.some_linear_extension(q)
            )
            prod = pd.product(p, q)
            assert pd.verify(prod, composed).ok


def small_realizer_corpus():
    """(poset, realizer) pairs that verify in reflexive_inclusive mode: the
    AND of a smallest extension family of each four-element poset and of
    short chains, plus two whose phi is no AND: B_6's bundled realizer and
    chain:3 with one order twice and phi = OR."""
    pool = [p for _, p in four_element_posets()] + [pd.chain(k) for k in (1, 2, 3)]
    corpus = [(p, pd.from_extensions(p, pd.exact_dim(p)[1])) for p in pool]
    corpus.append((pd.boolean_lattice(6), pd.b6_realizer()))
    index_order = pd.LinearOrder(rank=np.arange(3))
    either = pd.TruthTable(arity=2, bits=np.array([0, 1, 1, 1], np.uint8))
    corpus.append((pd.chain(3), pd.BooleanRealizer(3, (index_order,) * 2, either)))
    return corpus


class TestComposeLemma:
    """compose_product's lemma: factors that verify in reflexive_inclusive
    mode, with linear extensions of their posets, compose to a realizer of
    the product.  With B_6's bundled realizer and the (r, 2) grid realizers
    as the base cases, it shows by induction on k that
    upper_bound_realizer(6k + r) realizes B_(6k+r) for every k and r, not
    only up to the 8192-element cap that verify reaches."""

    def test_every_pair_of_corpus_factors(self):
        corpus = small_realizer_corpus()
        assert any(r.phi != pd.and_function(r.d) for _, r in corpus if r.d)
        for p, r in corpus:
            assert pd.verify(p, r).ok
        for p, r_p in corpus:
            for q, r_q in corpus:
                composed = pd.compose_product(
                    r_p, r_q, pd.some_linear_extension(p), pd.some_linear_extension(q)
                )
                assert pd.verify(pd.product(p, q), composed).ok

    def test_phi_all_ones_zero_is_caught(self):
        # chain:2 realized on distinct pairs by its order reversed and
        # phi = NOT, which answers 0 on the diagonal's all-ones tuple.
        c2 = pd.chain(2)
        bad = pd.BooleanRealizer(
            n=2,
            orders=(pd.LinearOrder.from_sequence([1, 0]),),
            phi=pd.TruthTable(arity=1, bits=np.array([1, 0], np.uint8)),
        )
        assert pd.verify(c2, bad, DISTINCT_ONLY).ok and not pd.verify(c2, bad).ok
        good = pd.canonical_grid_realizer(1, 2)
        ext = pd.some_linear_extension(c2)
        for left, right in ((bad, good), (good, bad)):
            with pytest.raises(BadParameter, match="phi"):
                pd.compose_product(left, right, ext, ext)
        # Built without the check: compose_product's orders do not read phi.
        ones = with_phi(bad, np.array([1, 1], np.uint8))
        composed = pd.compose_product(ones, good, ext, ext)
        unchecked = with_phi(composed, np.kron(good.phi.bits, bad.phi.bits))
        prod = pd.product(c2, c2)
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            outcome = pd.verify(prod, unchecked, mode)
            assert not outcome.ok
            assert outcome.counterexample == verify_oracle(prod, unchecked, mode)

    def test_base_cases_verify(self):
        assert pd.verify(pd.boolean_lattice(6), pd.b6_realizer()).ok
        for r in range(1, 6):
            grid = pd.canonical_grid_realizer(r, 2)
            assert grid.d == r
            assert pd.verify(pd.boolean_lattice(r), grid).ok

    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_decomposition_is_an_order_isomorphism(self, n):
        lattice = pd.boolean_lattice(n).leq
        for cuts in range(1 << (n - 1)):  # every composition of n into blocks
            blocks, size = [], 1
            for i in range(n - 1):
                if cuts >> i & 1:
                    blocks.append(size)
                    size = 0
                size += 1
            blocks.append(size)
            target = pd.boolean_lattice(blocks[0])
            for b in blocks[1:]:
                target = pd.product(target, pd.boolean_lattice(b))
            f = pd.block_decomposition_iso(n, blocks)
            assert np.array_equal(np.sort(f), np.arange(1 << n))
            assert np.array_equal(lattice, target.leq[np.ix_(f, f)]), blocks


class TestTransport:
    def test_identity(self):
        r = pd.canonical_grid_realizer(2, 2)
        assert pd.transport(r, np.arange(4)) == r

    def test_through_block_iso(self):
        forward = pd.block_decomposition_iso(2, [1, 1])
        moved = pd.transport(pd.canonical_grid_realizer(2, 2), forward)
        prod = pd.product(pd.boolean_lattice(1), pd.boolean_lattice(1))
        assert pd.verify(prod, moved).ok

    def test_there_and_back(self):
        forward = pd.block_decomposition_iso(3, [2, 1])
        r = pd.canonical_grid_realizer(3, 2)
        back = pd.transport(pd.transport(r, forward), np.argsort(forward))
        assert back == r

    def test_size_mismatch(self):
        forward = pd.block_decomposition_iso(2, [1, 1])
        with pytest.raises(SizeMismatch):
            pd.transport(pd.b6_realizer(), forward)

    def test_not_a_bijection(self):
        with pytest.raises(BadParameter):
            pd.transport(pd.canonical_grid_realizer(2, 2), np.array([0, 0, 1, 2]))


class TestUpperBoundRealizer:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_small_cases(self, n):
        r = pd.upper_bound_realizer(n)
        assert r.d == n
        assert pd.verify(pd.boolean_lattice(n), r).ok

    def test_n6_is_the_bundled_realizer_size(self):
        r = pd.upper_bound_realizer(6)
        assert r.d == 5
        assert pd.verify(pd.boolean_lattice(6), r).ok

    @pytest.mark.parametrize("n", (7, 8, 9))
    def test_medium_cases(self, n):
        r = pd.upper_bound_realizer(n)
        assert r.d == -(-5 * n // 6)
        assert pd.verify(pd.boolean_lattice(n), r).ok

    def test_n13_is_the_verification_cap(self):
        r = pd.upper_bound_realizer(13)
        assert r.d == 11
        assert pd.verify(pd.boolean_lattice(13), r).ok
        with pytest.raises(SizeCap):
            pd.upper_bound_realizer(14)

    def test_negative_n_is_bad_parameter(self):
        with pytest.raises(BadParameter):
            pd.upper_bound_realizer(-1)

    def test_n13_builds_in_small_memory(self):
        # Index arithmetic only: about 11 orders of 8192 ranks, never a
        # dense 8192x8192 relation (64 MB as bool).
        tracemalloc.start()
        try:
            pd.upper_bound_realizer(13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
