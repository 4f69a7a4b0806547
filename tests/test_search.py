"""Exact dimension and Boolean dimension through the SAT engine, checked
against the brute force of reference_search.py on every small poset, and
the phi-consistency reduction that brute force rests on."""

import os
import time
from itertools import permutations, product as iproduct

import pytest

import posetdim as pd
from posetdim.errors import GuardExceeded
from posetdim.realizer import DISTINCT_ONLY, REFLEXIVE_INCLUSIVE

import reference_search
from corpus import dim_corpus, four_element_posets
from reference_search import _before_mask, _consistent_phi, _leq_masks

long_run = pytest.mark.skipif(
    os.environ.get("POSETDIM_RUN_LONG") != "1",
    reason="set POSETDIM_RUN_LONG=1 to run the 5-element labelled differential",
)


class TestExactDim:
    @pytest.mark.parametrize("k", (1, 3, 5))
    def test_chains(self, k):
        d, witness = pd.exact_dim(pd.chain(k))
        assert d == 1 and len(witness) == 1

    def test_b3(self):
        d, witness = pd.exact_dim(pd.boolean_lattice(3))
        assert d == 3
        assert pd.verify(pd.boolean_lattice(3), pd.from_extensions(
            pd.boolean_lattice(3), witness)).ok

    def test_s3(self):
        assert pd.exact_dim(pd.standard_example(3))[0] == 3

    def test_antichain(self):
        assert pd.exact_dim(pd.antichain(3))[0] == 2

    def test_two_plus_two(self):
        p = pd.from_relation_pairs(4, None, [(0, 1), (2, 3)])
        assert pd.exact_dim(p)[0] == 2

    def test_d_max_not_found(self):
        assert pd.exact_dim(pd.boolean_lattice(3), d_max=2) is None

    def test_element_guard(self):
        with pytest.raises(GuardExceeded):
            pd.exact_dim(pd.boolean_lattice(4))

    def test_extension_guard(self):
        with pytest.raises(GuardExceeded):
            pd.exact_dim(pd.antichain(7))  # 5040 extensions

    def test_guard_override(self):
        assert pd.exact_dim(pd.antichain(6), force=True)[0] == 2

    def test_subset_guard(self):
        # within every guard: 8 elements and 720 linear extensions
        assert pd.exact_dim(pd.standard_example(4))[0] == 4

    def test_witnesses_verify(self):
        for name, p in dim_corpus():
            d, witness = pd.exact_dim(p)
            assert pd.verify(p, pd.from_extensions(p, witness)).ok, name


def consistent_phi(p, orders, mode=REFLEXIVE_INCLUSIVE):
    """The truth-table bits that make the orders a realizer of p, or None."""
    masks = tuple(_before_mask(o.rank, p.n) for o in orders)
    answers, universe = _leq_masks(p)
    reflexive = mode == REFLEXIVE_INCLUSIVE
    return _consistent_phi(masks, answers, universe, len(orders), reflexive)


class TestPhiConsistent:
    def test_b2_pinned_extensions_give_and(self):
        b2 = pd.boolean_lattice(2)
        exts, _ = pd.linear_extensions(b2)
        assert consistent_phi(b2, exts) == list(pd.and_function(2).bits)

    def test_chain_single_extension(self):
        p = pd.chain(4)
        assert consistent_phi(p, [pd.some_linear_extension(p)]) == [0, 1]

    def test_antichain_reflexive_conflict(self):
        order = pd.LinearOrder.from_sequence([0, 1])
        assert consistent_phi(pd.antichain(2), [order]) is None

    def test_antichain_distinct_mode_consistent(self):
        order = pd.LinearOrder.from_sequence([0, 1])
        bits = consistent_phi(pd.antichain(2), [order], mode=DISTINCT_ONLY)
        assert bits == [0, 0]

    def test_unconstrained_tuples_default_to_zero(self):
        p = pd.chain(2)
        order = pd.LinearOrder.from_sequence([0, 1])
        # tuples 01 and 10 never occur; both must default to 0
        assert consistent_phi(p, [order, order]) == [0, 0, 0, 1]


class TestExactBdim:
    def test_chain(self):
        d, witness = pd.exact_bdim(pd.chain(3))
        assert d == 1 and pd.verify(pd.chain(3), witness).ok

    def test_antichain2_mode_split(self):
        assert pd.exact_bdim(pd.antichain(2))[0] == 2
        assert pd.exact_bdim(pd.antichain(2), mode=DISTINCT_ONLY)[0] == 1

    def test_b2_both_modes(self):
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            d, witness = pd.exact_bdim(pd.boolean_lattice(2), mode=mode)
            assert d == 2
            assert pd.verify(pd.boolean_lattice(2), witness, mode).ok
        # consistent with the counting bound: 2/log2(3) > 1
        assert pd.lat_lower_bound(2).integer_bound == 2

    def test_not_found(self):
        assert pd.exact_bdim(pd.boolean_lattice(2), d_max=1) is None

    def test_guards(self):
        with pytest.raises(GuardExceeded):
            pd.exact_bdim(pd.chain(6))
        with pytest.raises(GuardExceeded):
            pd.exact_bdim(pd.chain(3), d_max=4)

    def test_symmetry_reduction_sound(self):
        """The oracle's restriction to non-decreasing order tuples never
        changes the d <= 2 decision on 4-element posets."""
        for name, p in four_element_posets():
            ranks = [pd.LinearOrder.from_sequence(list(s))
                     for s in permutations(range(4))]
            for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                for d in (1, 2):
                    reduced = reference_search.exact_bdim(p, d_max=d, mode=mode)
                    reduced_found = reduced is not None and reduced[0] <= d
                    full_found = any(
                        consistent_phi(p, list(combo), mode) is not None
                        for combo in iproduct(ranks, repeat=d)
                    )
                    assert reduced_found == full_found, (name, mode, d)

    def test_monotone_lift(self):
        """A realizer at d lifts to d+1 by duplicating the first order and
        ignoring the new coordinate."""
        import numpy as np

        for name, p in four_element_posets():
            found = pd.exact_bdim(p, d_max=3)
            assert found is not None, name
            d, witness = found
            if d >= 3:
                continue
            lifted = pd.BooleanRealizer(
                n=p.n,
                orders=witness.orders + (witness.orders[0],),
                phi=pd.TruthTable(
                    arity=d + 1, bits=np.tile(witness.phi.bits, 2)
                ),
            )
            assert pd.verify(p, lifted).ok, name


def _one_more(pairs, n):
    """Every poset on n + 1 elements that restricts to the strict pairs
    ``pairs`` on range(n): element n goes above a down-set and below an
    up-set, with all of the down-set below all of the up-set."""
    below = [{x for x, z in pairs if z == y} for y in range(n)]
    above = [{z for x, z in pairs if x == y} for y in range(n)]
    for place in iproduct((None, "down", "up"), repeat=n):
        down = {x for x in range(n) if place[x] == "down"}
        up = {x for x in range(n) if place[x] == "up"}
        if any(below[x] - down for x in down) or any(above[x] - up for x in up):
            continue
        if all((x, y) in pairs for x in down for y in up):
            yield pairs | {(x, n) for x in down} | {(n, y) for y in up}


def _canonical(pairs, n):
    return min(
        tuple(sorted((perm[x], perm[y]) for x, y in pairs))
        for perm in permutations(range(n))
    )


def all_posets(n, labelled):
    """Every poset on {0, ..., n-1} as a frozenset of strict pairs (x, y),
    x < y; up to isomorphism unless labelled."""
    level = [frozenset()]
    for k in range(1, n):
        grown = (frozenset(q) for pairs in level for q in _one_more(pairs, k))
        if labelled:
            level = list(grown)
        else:
            level = list({_canonical(q, k + 1): q for q in grown}.values())
    return level


def _matches_oracle(pairs, n):
    p = pd.from_relation_pairs(n, None, sorted(pairs))
    assert pd.exact_dim(p)[0] == reference_search.exact_dim(p)[0], pairs
    for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
        got, want = pd.exact_bdim(p, mode=mode), reference_search.exact_bdim(p, mode=mode)
        assert (got and got[0]) == (want and want[0]), (pairs, mode)


class TestOracleDifferential:
    """exact_dim, and exact_bdim at d <= 3 in both modes, against the
    brute force of reference_search.py."""

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63)])
    def test_unlabelled(self, n, count):
        posets = all_posets(n, labelled=False)
        assert len(posets) == count
        for pairs in posets:
            _matches_oracle(pairs, n)

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 19), (4, 219)])
    def test_labelled(self, n, count):
        posets = all_posets(n, labelled=True)
        assert len(posets) == count
        for pairs in posets:
            _matches_oracle(pairs, n)

    @long_run
    def test_labelled_five(self, capsys):
        t0 = time.perf_counter()
        posets = all_posets(5, labelled=True)
        assert len(posets) == 4231
        for pairs in posets:
            _matches_oracle(pairs, 5)
        with capsys.disabled():
            print(
                f"\nlabelled 5-element differential: {len(posets)} posets, "
                f"0 mismatches, {time.perf_counter() - t0:.1f}s"
            )
