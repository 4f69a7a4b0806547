"""Signatures, grid singletons, and the exact integer lower bounds."""

import math
import time

import numpy as np
import pytest

import posetdim as pd
from posetdim import bounds
from posetdim.bounds import _threshold_estimate
from posetdim.errors import BadParameter


class TestSingletons:
    def test_b3_singletons(self):
        assert pd.singletons_of_grid(3, 2) == [1, 2, 4]

    def test_grid_2x3(self):
        # vectors (1,0), (2,0), (0,1), (0,2) under the mixed-radix encoding
        assert pd.singletons_of_grid(2, 3) == [1, 2, 3, 6]

    def test_count(self):
        for n in range(1, 5):
            for m in range(2, 5):
                assert len(pd.singletons_of_grid(n, m)) == n * (m - 1)

    def test_b6_singletons(self):
        assert pd.singletons_of_grid(6, 2) == [1, 2, 4, 8, 16, 32]


def distinguishes(p, members):
    """Whether every two distinct elements relate differently (equal, below,
    above or incomparable) to some member of the set."""
    code = p.leq[members, :].astype(np.uint8) + 2 * p.leq[:, members].T
    return len({column.tobytes() for column in code.T}) == p.n


class TestIsDistinguishing:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (6, 2)])
    def test_grid_singletons_distinguish(self, n, m):
        grid = pd.multiset_grid(n, m)
        assert distinguishes(grid, pd.singletons_of_grid(n, m))
        assert not distinguishes(grid, [])


class TestSignatureMap:
    def test_members_do_not_count_themselves(self):
        p = pd.chain(4)
        sig = pd.signature_map([pd.some_linear_extension(p)], [0, 2])
        assert sig[0, 0] == 0 and sig[2, 0] == 1

    def test_chain_with_bottom(self):
        p = pd.chain(4)
        sig = pd.signature_map([pd.some_linear_extension(p)], [0])
        assert list(sig[:, 0]) == [0, 1, 1, 1]

    def test_b6_singletons_all_distinct(self):
        sig = pd.signature_map(list(pd.b6_realizer().orders), [1, 2, 4, 8, 16, 32])
        assert sig.shape == (64, 5)
        assert pd.signature_collision(sig) is None
        assert (sig >= 0).all() and (sig <= 6).all()

    def test_single_order_pigeonhole_collision(self):
        # 4 elements, one order, |D| = 2: only 3 possible counts
        p = pd.boolean_lattice(2)
        sig = pd.signature_map([pd.some_linear_extension(p)], [1, 2])
        assert pd.signature_collision(sig) is not None


class TestMnLowerBound:
    def test_exact_half(self):
        report = pd.mn_lower_bound(3, 2)
        assert report.raw == pytest.approx(1.5)
        assert report.integer_bound == 2  # 4 < 8 <= 16

    def test_single_coordinate(self):
        report = pd.mn_lower_bound(1, 7)
        assert report.integer_bound == 1 and report.raw == pytest.approx(1.0)

    def test_2_by_3(self):
        report = pd.mn_lower_bound(2, 3)
        assert report.raw == pytest.approx(1.3652, abs=1e-4)
        assert report.integer_bound == 2  # 5 < 9 <= 25

    def test_degenerate_multiplicity(self):
        report = pd.mn_lower_bound(4, 1)
        assert report.raw == 0.0 and report.integer_bound == 0

    def test_monotone_in_m_and_below_n(self):
        for n in range(2, 7):
            prev = 0.0
            for m in range(2, 13):
                raw = pd.mn_lower_bound(n, m).raw
                assert raw >= prev - 1e-12
                assert raw < n
                prev = raw

    def test_integer_bound_matches_float_ceiling(self):
        for n in range(1, 51):
            for m in range(2, 51):
                report = pd.mn_lower_bound(n, m)
                float_ceil = math.ceil(report.raw - 1e-12)
                # the exact integer result is authoritative at boundaries
                if report.integer_bound != float_ceil:
                    assert abs(report.raw - round(report.raw)) < 1e-9

    def test_defining_property(self):
        for n, m in ((2, 2), (3, 5), (6, 2), (4, 9), (13, 2)):
            report = pd.mn_lower_bound(n, m)
            base, size = n * (m - 1) + 1, m**n
            d = report.integer_bound
            assert base**d >= size
            assert d == 0 or base ** (d - 1) < size


class TestLatLowerBound:
    def test_n6(self):
        report = pd.lat_lower_bound(6)
        assert report.raw == pytest.approx(6 / math.log2(7), abs=1e-9)
        assert report.integer_bound == 3  # 49 < 64 <= 343

    def test_n1(self):
        assert pd.lat_lower_bound(1).integer_bound == 1

    def test_n13(self):
        assert pd.lat_lower_bound(13).integer_bound == 4  # 2744 < 8192 <= 38416

    def test_consistent_with_upper_bound(self):
        for n in range(2, 13):
            lower = pd.lat_lower_bound(n).integer_bound
            assert lower <= pd.upper_bound_realizer(n).d


class TestMinMultiplicity:
    def test_n3_target3(self):
        assert pd.min_multiplicity_for_target(3, 3) == 8

    def test_n2_target2(self):
        assert pd.min_multiplicity_for_target(2, 2) == 2

    def test_within_paper_cap(self):
        for n in range(2, 7):
            assert pd.min_multiplicity_for_target(n, n) <= n ** (n - 1)

    def test_matches_linear_scan(self):
        for n in range(2, 6):
            for target in range(2, n + 1):
                m = 2
                while not m**n > (n * (m - 1) + 1) ** (target - 1):
                    m += 1
                assert pd.min_multiplicity_for_target(n, target) == m

    def test_matches_bisection(self):
        # The bisection over m that decided every step by the exact test,
        # against the estimate settled by exact tests, for n <= 60.
        def bisection(n, target):
            exceeds = lambda m: m**n > (n * (m - 1) + 1) ** (target - 1)
            hi = 2
            while not exceeds(hi):
                hi *= 2
            lo = max(2, hi // 2)
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if exceeds(mid) else (mid + 1, hi)
            return hi

        for n in range(2, 61):
            for target in range(2, n + 1):
                assert pd.min_multiplicity_for_target(n, target) == bisection(n, target)

    def test_estimate_below_an_integer_root_is_settled(self):
        # 25**26 == 625**13: at an integer root the decimal solve lands just
        # below it, so the estimate is 25 and the exact tests move it to 26.
        assert _threshold_estimate(26, 14) == 25
        assert pd.min_multiplicity_for_target(26, 14) == 26

    @pytest.mark.parametrize(
        "guess",
        [lambda m: 2, lambda m: m // 7, lambda m: m - 1, lambda m: m + 1,
         lambda m: 1000 * m + 3],
    )
    def test_gallops_from_a_wrong_estimate(self, monkeypatch, guess):
        for n, target in [(3, 3), (7, 5), (12, 12), (30, 2), (40, 33)]:
            want = pd.min_multiplicity_for_target(n, target)
            wrong = max(2, guess(want))
            monkeypatch.setattr(bounds, "_threshold_estimate", lambda n, t: wrong)
            assert pd.min_multiplicity_for_target(n, target) == want, (n, target)
            monkeypatch.undo()

    def test_n200_in_few_exact_tests(self):
        # The answer has 458 digits; the bisection took 21 s over about
        # 3,000 exact tests, the settled estimate takes well under 1 s.
        start = time.perf_counter()
        m = pd.min_multiplicity_for_target(200, 200)
        elapsed = time.perf_counter() - start
        assert m**200 > (200 * (m - 1) + 1) ** 199
        assert not (m - 1) ** 200 > (200 * (m - 2) + 1) ** 199
        assert len(str(m)) == 458 and elapsed < 10

    def test_exact_boundary_membership(self):
        # at m = n**(n-1) the capacity test passes for target n
        for n in range(2, 7):
            m = n ** (n - 1)
            assert m**n > (n * (m - 1) + 1) ** (n - 1)

    def test_bad_target(self):
        with pytest.raises(BadParameter):
            pd.min_multiplicity_for_target(3, 4)
        with pytest.raises(BadParameter):
            pd.min_multiplicity_for_target(3, 1)


class TestSignatureInjectivityForVerifiedRealizers:
    """Any verified lattice realizer must separate all elements by their
    singleton signatures; collisions would contradict verification."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_canonical_realizers(self, n):
        p = pd.boolean_lattice(n)
        r = pd.canonical_grid_realizer(n, 2)
        assert pd.verify(p, r).ok
        sig = pd.signature_map(list(r.orders), pd.singletons_of_grid(n, 2))
        assert pd.signature_collision(sig) is None

    @pytest.mark.parametrize("n", range(6, 11))
    def test_upper_bound_realizers(self, n):
        r = pd.upper_bound_realizer(n)
        sig = pd.signature_map(list(r.orders), pd.singletons_of_grid(n, 2))
        assert pd.signature_collision(sig) is None


def collision_reference(sig):
    """The first repeated signature by grouping rows: the least x in a class
    of two or more rows, and the next member of that class."""
    rows = np.ascontiguousarray(sig)
    classes = {}
    for x in range(rows.shape[0]):
        classes.setdefault(rows[x].tobytes(), []).append(x)
    best = None
    for members in classes.values():
        if len(members) >= 2 and (best is None or members[0] < best[0]):
            best = (members[0], members[1])
    return best


@pytest.mark.parametrize("planted", range(4))
def test_collision_matches_grouping_reference(planted):
    rng = np.random.default_rng(planted)
    for _ in range(200):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        sig = rng.integers(0, 10**6, size=(n, d))
        for _ in range(planted if n >= 2 else 0):
            a, b = rng.choice(n, 2, replace=False)
            sig[b] = sig[a]
        got = pd.signature_collision(sig)
        assert got == collision_reference(sig)
        assert got is None or all(type(v) is int for v in got)
    small = rng.integers(0, 3, size=(30, 2))  # many classes of many members
    assert pd.signature_collision(small) == collision_reference(small)
