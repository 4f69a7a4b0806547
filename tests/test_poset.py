"""Poset constructors, closure, extensions, products, and block isomorphisms.

Expected matrices come from independent oracles: set-based subset tests for
lattices, a cubic-time reachability closure, and a pure-Python simulation of
the smallest-index-minimal rule.
"""

import hashlib
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import posetdim as pd
from posetdim.errors import (
    BadParameter,
    BadPartition,
    CycleDetected,
    IndexOutOfRange,
    SizeCap,
)
from posetdim.poset import _subset_labels, element_label, strict_cover_pairs

from corpus import dim_corpus, five_element_posets, four_element_posets


def closure_oracle(n, pairs):
    """Reflexive-transitive closure by iterated relational composition."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for k in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j] and not leq[i][j]:
                            leq[i][j] = True
                            changed = True
    return np.array(leq, dtype=bool)


def subset_leq_oracle(n):
    sets = [frozenset(i + 1 for i in range(n) if x >> i & 1) for x in range(2**n)]
    return np.array([[a <= b for b in sets] for a in sets], dtype=bool)


# index-increasing pairs are acyclic by construction
acyclic_pairs = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 2), st.integers(0, n - 1))
            .map(lambda t: (min(t[0], t[1]), max(t[0], t[1])))
            .filter(lambda t: t[0] != t[1]),
            max_size=12,
        ),
    )
)


class TestFromRelationPairs:
    def test_single_element(self):
        p = pd.from_relation_pairs(1, None, [])
        assert p.n == 1 and p.leq[0, 0]

    def test_b2_from_covers(self):
        p = pd.from_relation_pairs(4, None, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert np.array_equal(p.leq, pd.boolean_lattice(2).leq)

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            pd.from_relation_pairs(2, None, [(0, 1), (1, 0)])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            pd.from_relation_pairs(3, None, [(0, 1), (1, 2), (2, 0)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            pd.from_relation_pairs(2, None, [(0, 5)])

    def test_numpy_integer_endpoints(self):
        # 1 << v with a numpy v stays a numpy scalar, which has no to_bytes.
        perm = np.random.default_rng(0).permutation(70)
        pairs = [(perm[i], perm[i + 1]) for i in range(0, 68, 2)]
        as_ints = [(int(x), int(y)) for x, y in pairs]
        assert isinstance(pairs[0][0], np.integer)
        assert np.array_equal(
            pd.from_relation_pairs(70, None, pairs).leq,
            pd.from_relation_pairs(70, None, as_ints).leq,
        )

    def test_float_endpoint_rejected(self):
        with pytest.raises(TypeError):
            pd.from_relation_pairs(2, None, [(0.0, 1)])

    @given(acyclic_pairs)
    def test_closure_matches_oracle(self, case):
        n, pairs = case
        p = pd.from_relation_pairs(n, None, pairs)
        assert np.array_equal(p.leq, closure_oracle(n, pairs))
        p.check_axioms()

    @given(acyclic_pairs)
    def test_closure_idempotent(self, case):
        n, pairs = case
        p = pd.from_relation_pairs(n, None, pairs)
        again = pd.from_relation_pairs(
            n, None, [(int(x), int(y)) for x, y in np.argwhere(p.leq)]
        )
        assert np.array_equal(p.leq, again.leq)

    def test_closure_bytes_pinned(self):
        # SHA-256 of the leq bytes the dense (n, n) closure built on the
        # same inputs, before posets held packed rows: the corpus re-closed
        # from its relation pairs, then 40 relabelled random posets.
        rng = random.Random(2026)
        posets = []
        for _, p in four_element_posets() + five_element_posets():
            pairs = [(int(x), int(y)) for x, y in np.argwhere(p.leq)]
            posets.append(pd.from_relation_pairs(p.n, None, pairs))
        for _ in range(40):
            n = rng.randint(1, 40)
            perm = rng.sample(range(n), n)
            pairs = [
                (perm[i], perm[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.15
            ]
            posets.append(pd.from_relation_pairs(n, None, pairs))
        digest = hashlib.sha256()
        for p in posets:
            digest.update(p.leq.tobytes())
        assert digest.hexdigest() == (
            "3e027a9a6bc9a8e4987449152c3ec0908c8568cd5d6a9e6082eefb8f812e132a"
        )

    def test_matrix_built_once_from_packed_rows(self):
        p = pd.from_relation_pairs(10, None, [(0, 9), (9, 3), (4, 3)])
        assert "leq" not in vars(p) and p._packed.shape == (10, 2)
        assert not p._packed.flags.writeable
        leq = p.leq  # unpacked on this first read
        assert p.leq is leq and not leq.flags.writeable
        assert np.array_equal(leq, closure_oracle(10, [(0, 9), (9, 3), (4, 3)]))
        with pytest.raises(ValueError):
            leq[0, 1] = True


def every_kind_of_poset():
    """One poset from each constructor, the lattice and the bare one too."""
    return [
        pd.Poset(3, np.eye(3, dtype=bool), ("a", "b", "c")),
        pd.from_relation_pairs(4, None, [(0, 1), (2, 3)]),
        pd.boolean_lattice(3),
        pd.multiset_grid(2, 3),
        pd.standard_example(3),
        pd.chain(4),
        pd.antichain(2),
        pd.product(pd.chain(2), pd.antichain(2)),
        pd.subposet(pd.boolean_lattice(3), [0, 1, 3]),
    ]


class TestOneStore:
    """A poset holds n, labels and its packed rows (None on a Boolean
    lattice); leq is built from them on first read, cached and read-only."""

    def test_caller_matrix_is_not_kept(self):
        leq = np.eye(2, dtype=bool)
        p = pd.Poset(2, leq, ("a", "b"))
        leq[0, 1] = True  # the caller edits its own matrix afterwards
        assert not p.leq[0, 1] and "leq" in vars(p)
        order = pd.LinearOrder.from_sequence([0, 1])
        realizer = pd.from_extensions(pd.chain(2), [order])  # phi = AND
        assert not pd.verify(p, realizer).ok  # 0 <= 1 holds in the chain only
        assert pd.verify(pd.chain(2), realizer).ok

    def test_leq_read_only(self):
        for p in every_kind_of_poset():
            assert "leq" not in vars(p)
            assert not p.leq.flags.writeable and p.leq is p.leq
            with pytest.raises(ValueError):
                p.leq[0, 0] = False

    def test_attributes_cannot_be_set(self):
        for p, same in zip(every_kind_of_poset(), every_kind_of_poset()):
            for name, value in (("n", 1), ("labels", ()), ("leq", None), ("x", 0)):
                with pytest.raises(AttributeError):
                    setattr(p, name, value)
            for name in ("n", "_packed"):
                with pytest.raises(AttributeError):
                    delattr(p, name)
            assert p == same


def cover_oracle(leq):
    """Pairs x < y with no z strictly between, by brute force."""
    n = len(leq)
    lt = [[leq[x][y] and x != y for y in range(n)] for x in range(n)]
    return [
        (x, y)
        for x in range(n)
        for y in range(n)
        if lt[x][y] and not any(lt[x][z] and lt[z][y] for z in range(n))
    ]


def raw_poset(leq):
    """A Poset around an arbitrary bool matrix, bypassing the constructors."""
    leq = np.asarray(leq, dtype=bool)
    return pd.Poset(n=len(leq), leq=leq, labels=tuple(map(str, range(len(leq)))))


class TestCoversAndAxioms:
    @given(acyclic_pairs, st.data())
    def test_covers_match_bruteforce(self, case, data):
        n, pairs = case
        perm = data.draw(st.permutations(range(n)))  # index order not an extension
        p = pd.from_relation_pairs(n, None, [(perm[i], perm[j]) for i, j in pairs])
        assert strict_cover_pairs(p) == cover_oracle(p.leq.tolist())

    def test_rejects_relation_past_path_count_wrap(self):
        # x=0 <= z_i <= y=257 through 256 middles z_i, but not 0 <= 257: a
        # path count taken mod 256 reads zero here.
        leq = np.eye(258, dtype=bool)
        leq[0, 1:257] = True
        leq[1:257, 257] = True
        with pytest.raises(BadParameter):
            raw_poset(leq).check_axioms()

    @pytest.mark.parametrize(
        "leq",
        [
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # 3-cycle, not closed
            [[1, 1, 1], [1, 1, 1], [1, 1, 1]],  # 3-cycle, closed
            [[1, 1, 1], [0, 0, 1], [0, 0, 1]],  # chain missing 1 <= 1
        ],
        ids=["cycle", "closed-cycle", "non-reflexive"],
    )
    def test_rejects_invalid_relations(self, leq):
        with pytest.raises(BadParameter):  # and the cover walk inside ends
            raw_poset(leq).check_axioms()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pd.boolean_lattice(12),
            lambda: pd.chain(300),
            lambda: pd.multiset_grid(4, 5),
            lambda: pd.standard_example(200),
            lambda: pd.antichain(300),
            lambda: pd.product(pd.chain(20), pd.boolean_lattice(4)),
            lambda: pd.subposet(pd.boolean_lattice(10), range(1, 1024, 3)),
        ],
        ids=["boolean12", "chain300", "grid4x5", "standard200", "antichain300",
             "chain20xB4", "subposet"],
    )
    def test_families_past_256_pass(self, build):
        p = build()
        assert p.n > 256
        p.check_axioms()


class TestBooleanLattice:
    def test_empty(self):
        assert pd.boolean_lattice(0).n == 1

    def test_inclusion_spot_checks(self):
        p = pd.boolean_lattice(3)
        assert p.n == 8
        assert p.leq[0b001, 0b011]  # {1} <= {1,2}
        assert not p.leq[0b001, 0b110]  # {1} vs {2,3}

    def test_b6_matches_subset_oracle(self):
        assert np.array_equal(pd.boolean_lattice(6).leq, subset_leq_oracle(6))

    @pytest.mark.parametrize("n", range(11))
    def test_matches_naive_matrix(self, n):
        idx = np.arange(2**n)
        naive = (idx[:, None] & idx[None, :]) == idx[:, None]
        p = pd.boolean_lattice(n)
        leq = p.leq  # built on this first read
        assert np.array_equal(leq, naive) and not leq.flags.writeable
        assert p.leq is leq

    def test_b13_holds_no_matrix(self):
        # Labels only; the relation is read by arithmetic.
        tracemalloc.start()
        try:
            pd.boolean_lattice(13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_b13_builds_in_one_matrix(self):
        # The bool matrix is 64 MB; row blocks add only a small buffer, no
        # full-size temporary.
        tracemalloc.start()
        try:
            pd.boolean_lattice(13).leq
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 72 * 2**20

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            pd.boolean_lattice(14)

    def test_huge_n_is_size_cap(self):
        # 2**n is never built in full, nor formatted into the message
        for n in (20000, 2_000_000_000, 10**5000):
            with pytest.raises(SizeCap):
                pd.boolean_lattice(n)

    def test_labels(self):
        p = pd.boolean_lattice(2)
        assert p.labels == ("{}", "{1}", "{2}", "{1,2}")

    @pytest.mark.parametrize("n", range(11))
    def test_labels_list_each_subset(self, n):
        expected = tuple(
            "{" + ",".join(str(i + 1) for i in range(n) if x >> i & 1) + "}"
            for x in range(2**n)
        )
        assert pd.boolean_lattice(n).labels == expected

    def test_immutable(self):
        p = pd.boolean_lattice(2)
        with pytest.raises(ValueError):
            p.leq[0, 0] = False


class TestMultisetGrid:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_m2_equals_boolean_lattice(self, n):
        assert np.array_equal(pd.multiset_grid(n, 2).leq, pd.boolean_lattice(n).leq)

    def test_single_coordinate_is_chain(self):
        assert np.array_equal(pd.multiset_grid(1, 5).leq, pd.chain(5).leq)

    def test_grid_2x3(self):
        p = pd.multiset_grid(2, 3)
        assert p.n == 9
        # (1,2) has index 1 + 2*3 = 7, (2,0) has index 2
        assert not p.leq[7, 2] and not p.leq[2, 7]  # incomparable

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            pd.multiset_grid(5, 7)

    def test_coordinate_cap(self):
        # m = 1 keeps m**n at 1; the coordinate count itself is capped
        for n, m in ((30_000_000, 1), (20000, 3)):
            with pytest.raises(SizeCap):
                pd.multiset_grid(n, m)
        assert pd.multiset_grid(8192, 1).n == 1

    def test_packed_rows_built_by_blocks(self):
        # 4,096 elements: 2 MiB of packed rows and row blocks of 2**18 cells,
        # against 16 MiB for the dense matrix.
        tracemalloc.start()
        try:
            p = pd.multiset_grid(12, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.n == 4096 and peak < 8 * 2**20


class TestStandardExample:
    def test_n2_two_disjoint_chains(self):
        p = pd.standard_example(2)
        assert p.n == 4
        assert p.leq[0, 3] and p.leq[1, 2]
        assert not p.leq[0, 2] and not p.leq[1, 3]

    def test_rejects_small_n(self):
        with pytest.raises(BadParameter):
            pd.standard_example(1)

    def test_matches_lattice_levels(self):
        # reindex: singleton {i} then co-singleton complement({j})
        b4 = pd.boolean_lattice(4)
        keep = [x for x in range(16) if bin(x).count("1") in (1, 3)]
        sub = pd.subposet(b4, keep)
        pos = {orig: i for i, orig in enumerate(keep)}
        order = [pos[1 << i] for i in range(4)] + [pos[15 ^ (1 << j)] for j in range(4)]
        s4 = pd.standard_example(4)
        sel = np.asarray(order)
        assert np.array_equal(s4.leq, sub.leq[np.ix_(sel, sel)])


class TestChainAntichain:
    def test_chain_relation(self):
        assert pd.chain(3).leq[0, 2]

    def test_singleton_chain_equals_antichain(self):
        assert np.array_equal(pd.chain(1).leq, pd.antichain(1).leq)

    def test_antichain_incomparable(self):
        p = pd.antichain(2)
        assert not p.leq[0, 1] and not p.leq[1, 0]

    def test_caps(self):
        with pytest.raises(SizeCap):
            pd.chain(9000)
        with pytest.raises(BadParameter):
            pd.antichain(0)


class TestProduct:
    def test_b1_squared_is_b2(self):
        p = pd.product(pd.chain(2), pd.chain(2))
        assert np.array_equal(p.leq, pd.boolean_lattice(2).leq)

    def test_identity_factor(self):
        q = pd.standard_example(2)
        p = pd.product(q, pd.chain(1))
        assert np.array_equal(p.leq, q.leq)

    def test_b3_times_b3_is_b6_after_block_relabel(self):
        p = pd.product(pd.boolean_lattice(3), pd.boolean_lattice(3))
        f = pd.block_decomposition_iso(6, [3, 3])
        b6 = pd.boolean_lattice(6)
        assert np.array_equal(b6.leq, p.leq[f[:, None], f[None, :]])

    def test_associative_up_to_repairing(self):
        a, b, c = pd.chain(2), pd.antichain(2), pd.chain(3)
        left = pd.product(pd.product(a, b), c)
        right = pd.product(a, pd.product(b, c))
        # (p*|Q|+q)*|R|+r and p*(|Q||R|)+(q*|R|+r) coincide as integers
        assert np.array_equal(left.leq, right.leq)

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            pd.product(pd.chain(100), pd.chain(100))


class TestSubposetRelation:
    def test_subposet_all_is_identity(self):
        p = pd.standard_example(3)
        assert pd.subposet(p, list(range(p.n))) == p

    def test_subposet_singleton(self):
        assert pd.subposet(pd.boolean_lattice(3), {0}).n == 1


def extension_oracle(p):
    """Simulate the smallest-index-minimal removal rule with plain sets."""
    remaining = set(range(p.n))
    seq = []
    while remaining:
        minimal = [
            x
            for x in sorted(remaining)
            if not any(p.leq[y, x] and y != x for y in remaining)
        ]
        seq.append(minimal[0])
        remaining.remove(minimal[0])
    return seq


class TestLinearExtensions:
    def test_some_extension_chain(self):
        order = pd.some_linear_extension(pd.chain(3))
        assert list(order.sequence()) == [0, 1, 2]

    def test_some_extension_b2(self):
        order = pd.some_linear_extension(pd.boolean_lattice(2))
        assert list(order.sequence()) == [0, 1, 2, 3]

    def test_some_extension_antichain(self):
        order = pd.some_linear_extension(pd.antichain(3))
        assert list(order.sequence()) == [0, 1, 2]

    @pytest.mark.parametrize("name,p", four_element_posets() + five_element_posets())
    def test_some_extension_matches_oracle(self, name, p):
        assert list(pd.some_linear_extension(p).sequence()) == extension_oracle(p)

    def test_enumeration_chain(self):
        exts, truncated = pd.linear_extensions(pd.chain(4))
        assert len(exts) == 1 and not truncated

    def test_enumeration_antichain(self):
        exts, truncated = pd.linear_extensions(pd.antichain(3))
        assert len(exts) == 6 and not truncated
        assert list(exts[0].sequence()) == [0, 1, 2]

    def test_enumeration_b3_count_vs_bruteforce(self):
        p = pd.boolean_lattice(3)
        exts, truncated = pd.linear_extensions(p)
        assert not truncated
        brute = sum(
            all(
                not p.leq[x, y] or pos[x] < pos[y]
                for x in range(8)
                for y in range(8)
                if x != y
            )
            for perm in permutations(range(8))
            for pos in [{e: i for i, e in enumerate(perm)}]
        )
        assert len(exts) == brute == 48

    def test_truncation_flag(self):
        exts, truncated = pd.linear_extensions(pd.antichain(4), limit=5)
        assert len(exts) == 5 and truncated

    def test_limit_not_reached(self):
        exts, truncated = pd.linear_extensions(pd.antichain(3), limit=6)
        assert len(exts) == 6 and not truncated

    @pytest.mark.parametrize("name,p", four_element_posets())
    def test_all_enumerated_are_extensions(self, name, p):
        exts, _ = pd.linear_extensions(p)
        assert all(pd.is_linear_extension(p, e) for e in exts)

    def test_is_extension_rejects_reversal(self):
        bad = pd.LinearOrder.from_sequence([3, 1, 2, 0])
        assert not pd.is_linear_extension(pd.boolean_lattice(2), bad)

    @given(st.permutations(list(range(4))))
    def test_any_order_extends_antichain(self, seq):
        order = pd.LinearOrder.from_sequence(list(seq))
        assert pd.is_linear_extension(pd.antichain(4), order)

    def test_guarded_corpus_extensions_valid(self):
        for name, p in dim_corpus():
            exts, truncated = pd.linear_extensions(p, limit=2000)
            assert not truncated, name
            assert all(pd.is_linear_extension(p, e) for e in exts), name


class TestLinearOrderBijection:
    """LinearOrder, from_sequence and transport share one scatter check; it
    accepts any 1-D array whose values are a permutation of 0..n-1, of any
    dtype, and raises BadParameter for anything else."""

    @pytest.mark.parametrize(
        "values,ok",
        [
            (np.array([1.0, 0.0, 2.0]), True),   # integral floats
            (np.array([0.5, 1.0, 2.0]), False),  # a non-integral float
            (np.array([True, False]), True),     # bools
            (np.array([], dtype=np.int64), True),
            ([], True),                          # empty, as float64
            ([0, 2, 0], False),                  # a repeat
            ([-1, 0, 1], False),                 # negative
            ([0, 1, 3], False),                  # out of range
            ([[0, 1], [1, 0]], False),           # 2-D
            ([[0]], False),
            (np.array([np.nan, 0.0]), False),
            (np.array(["1", "0"]), False),
        ],
    )
    def test_accepted_set(self, values, ok):
        ints = np.asarray(values).astype(np.int64) if ok else None
        for build, message in (
            (lambda v: pd.LinearOrder(rank=v), "rank must be a bijection onto 0..n-1"),
            (pd.LinearOrder.from_sequence, "sequence must list each of 0..n-1 once"),
        ):
            if not ok:
                with pytest.raises(BadParameter, match=message):
                    build(values)
                continue
            order = build(values)
            assert order.rank.dtype == np.int64 and not order.rank.flags.writeable
            if build is pd.LinearOrder.from_sequence:
                assert np.array_equal(order.sequence(), ints)
            else:
                assert np.array_equal(order.rank, ints)

    def test_transport_checks_its_forward_map(self):
        r = pd.upper_bound_realizer(2)
        for bad in ([0, 0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2]):
            with pytest.raises(BadParameter, match="forward map must be a bijection"):
                pd.transport(r, np.array(bad))
        forward = np.array([2, 0, 3, 1])
        moved = pd.transport(r, forward)
        for old, new in zip(r.orders, moved.orders):
            assert np.array_equal(new.rank[forward], old.rank)


class TestElementLabel:
    def test_lattice_labels_from_bits(self):
        p = pd.boolean_lattice(13)
        labels = _subset_labels(8192)
        assert all(element_label(p, x) == labels[x] for x in range(8192))
        assert "labels" not in vars(p)

    def test_other_posets_read_their_labels(self):
        p = pd.standard_example(3)
        assert [element_label(p, x) for x in range(6)] == list(p.labels)
        q = pd.boolean_lattice(0)
        assert element_label(q, 0) == "{}" == q.labels[0]


class TestBlockDecomposition:
    def test_two_singleton_blocks(self):
        f = pd.block_decomposition_iso(2, [1, 1])
        # subset {2} (index 2) maps to the pair (empty, {1}) at product index 1
        assert f[2] == 1

    def test_full_set_blocks_6_1(self):
        f = pd.block_decomposition_iso(7, [6, 1])
        assert f[127] == 127

    def test_order_preserving_12(self):
        f = pd.block_decomposition_iso(12, [6, 6])
        b6 = pd.boolean_lattice(6)
        target = pd.product(b6, b6)
        assert np.array_equal(
            pd.boolean_lattice(12).leq, target.leq[f[:, None], f[None, :]]
        )

    def test_inverse_roundtrip(self):
        f = pd.block_decomposition_iso(5, [2, 3])
        assert f.dtype == np.int64 and not f.flags.writeable
        inv = np.empty_like(f)
        inv[f] = np.arange(32)
        assert np.array_equal(inv[f], np.arange(32))
        assert np.array_equal(f[inv], np.arange(32))

    def test_bad_partition(self):
        with pytest.raises(BadPartition):
            pd.block_decomposition_iso(6, [3, 2])
        with pytest.raises(BadPartition):
            pd.block_decomposition_iso(6, [6, 0])

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            pd.block_decomposition_iso(14, [6, 6, 2])
