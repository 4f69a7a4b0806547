"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

import posetdim as pd
from posetdim.cli import main
from posetdim.formats import parse_poset, parse_realizer, serialize_poset, serialize_realizer
from posetdim.realizer import DISTINCT_ONLY, REFLEXIVE_INCLUSIVE

import reference_search
from corpus import dim_corpus, five_element_posets, four_element_posets


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_01_bundled_b6_realizer_verifies(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "boolean:6", "builtin:b6"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "ok: 4032 ordered pairs checked" in out
    assert elapsed < 1.0
    # the all-ones requirement holds and the scan is exact in both modes
    outcome = pd.verify(pd.boolean_lattice(6), pd.b6_realizer(), REFLEXIVE_INCLUSIVE)
    assert outcome.ok and outcome.pairs_checked == 64 * 63
    assert pd.b6_realizer().phi.value_at(31)
    with capsys.disabled():
        report(1, f"verify boolean:6 builtin:b6 ok over 4032 pairs in {elapsed:.3f}s")


def test_02_upper_bound_realizers_6_to_12(capsys):
    times = {}
    for n in range(6, 13):
        t0 = time.perf_counter()
        r = pd.upper_bound_realizer(n)
        assert r.d == -(-5 * n // 6), f"n={n}: d={r.d}"
        outcome = pd.verify(pd.boolean_lattice(n), r, threads=1)
        times[n] = time.perf_counter() - t0
        assert outcome.ok, f"n={n}"
    assert times[12] < 60.0
    with capsys.disabled():
        report(
            2,
            "upper_bound_realizer(n) has ceil(5n/6) orders and verifies for "
            f"n=6..12; n=12 took {times[12]:.2f}s (< 60s)",
        )


def test_03_dimension_witnesses(capsys):
    for n in range(1, 11):
        outcome = pd.verify(pd.boolean_lattice(n), pd.canonical_grid_realizer(n, 2))
        assert outcome.ok, f"n={n}"
    assert pd.exact_dim(pd.boolean_lattice(3))[0] == 3
    assert pd.exact_dim(pd.standard_example(3))[0] == 3
    assert pd.exact_dim(pd.chain(5))[0] == 1
    with capsys.disabled():
        report(
            3,
            "canonical n-order realizers verify on the order-n lattice for "
            "n<=10; exact_dim: B3=3, S3=3, chain(5)=1",
        )


def test_04_lower_bound_arithmetic(capsys):
    assert pd.mn_lower_bound(3, 2).integer_bound == 2
    assert pd.mn_lower_bound(6, 2).integer_bound == 3
    assert pd.mn_lower_bound(13, 2).integer_bound == 4
    assert pd.lat_lower_bound(6).integer_bound == 3
    assert pd.lat_lower_bound(13).integer_bound == 4
    assert pd.min_multiplicity_for_target(3, 3) == 8
    for n in range(2, 7):
        m = n ** (n - 1)
        assert m**n > (n * (m - 1) + 1) ** (n - 1), f"n={n}"
    with capsys.disabled():
        report(
            4,
            "integer bounds exact: (3,2)->2, (6,2)->3, (13,2)->4, "
            "min multiplicity (3,3)->8, capacity test passes at m=n^(n-1) "
            "for n=2..6",
        )


def test_05_signature_mechanism(capsys):
    sig = pd.signature_map(
        list(pd.b6_realizer().orders), pd.singletons_of_grid(6, 2)
    )
    assert sig.shape == (64, 5)
    assert pd.signature_collision(sig) is None
    assert len({tuple(row) for row in sig}) == 64
    with capsys.disabled():
        report(5, "bundled realizer yields 64 pairwise-distinct singleton signatures")


def test_06_product_composition_suite(capsys):
    rng = random.Random(20250808)
    pool = [p for _, p in four_element_posets() + five_element_posets()]
    pool += [pd.chain(1), pd.chain(2), pd.boolean_lattice(3)]
    pool += [pd.multiset_grid(2, 3), pd.product(pd.chain(2), pd.chain(4))]
    for p in pool:
        assert p.n <= 16
    realizers = {}
    for i, p in enumerate(pool):
        if p.n <= 5:
            realizers[i] = pd.exact_bdim(p, d_max=3)[1]
        else:
            d, witness = pd.exact_dim(p)
            realizers[i] = pd.from_extensions(p, witness)
        assert pd.verify(p, realizers[i]).ok
    for trial in range(50):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        p, q = pool[i], pool[j]
        composed = pd.compose_product(
            realizers[i],
            realizers[j],
            pd.some_linear_extension(p),
            pd.some_linear_extension(q),
        )
        prod = pd.product(p, q)
        assert pd.verify(prod, composed).ok, f"trial {trial}"
    # the flagship composition: 64 x 64 = 4096 elements at d = 10
    t0 = time.perf_counter()
    b6, r6 = pd.boolean_lattice(6), pd.b6_realizer()
    ext6 = pd.some_linear_extension(b6)
    big = pd.compose_product(r6, r6, ext6, ext6)
    prod66 = pd.product(b6, b6)
    assert big.d == 10
    assert pd.verify(prod66, big).ok
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            6,
            "50 random compositions verified on products; the 4096-element "
            f"composition verified in {elapsed:.2f}s",
        )


def test_07_search_oracle_equivalence(capsys):
    small = four_element_posets() + five_element_posets()
    checked = 0
    for name, p in small:
        for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
            for d in (1, 2):
                brute = reference_search.exact_bdim(p, d_max=d, mode=mode)
                brute_found = brute is not None
                sat = pd.search_realizer(p, d, mode=mode)
                assert sat.status in ("sat", "unsat")
                assert (sat.status == "sat") == brute_found, (name, mode, d)
                checked += 1
    dim_checked = 0
    for name, p in dim_corpus():
        exact = reference_search.exact_dim(p)[0]
        for d in (1, 2, 3):
            sat = pd.search_realizer(p, d, phi=pd.and_function(d))
            assert (sat.status == "sat") == (exact <= d), (name, d)
            dim_checked += 1
    with capsys.disabled():
        report(
            7,
            f"SAT = brute-force exact_bdim on {checked} (poset, mode, d) cases; "
            f"fixed-AND SAT = (brute-force exact_dim <= d) on {dim_checked} cases",
        )


def test_08_standard_example_search(capsys):
    t0 = time.perf_counter()
    p = pd.standard_example(4)
    rep = pd.search_realizer(p, 4)
    elapsed = time.perf_counter() - t0
    assert rep.status == "sat"
    assert rep.realizer.d == 4
    assert pd.verify(p, rep.realizer).ok
    assert elapsed < 300.0
    with capsys.disabled():
        report(
            8,
            f"SAT found a verified 4-order realizer of the order-4 standard "
            f"example in {elapsed:.2f}s (< 5 min)",
        )


def test_09_round_trips_and_determinism(capsys):
    posets = [
        pd.boolean_lattice(0),
        pd.boolean_lattice(4),
        pd.boolean_lattice(6),
        pd.multiset_grid(2, 3),
        pd.standard_example(4),
        pd.chain(6),
        pd.antichain(5),
    ]
    for p in posets:
        assert parse_poset(serialize_poset(p)) == p
    realizers = [
        pd.b6_realizer(),
        pd.canonical_grid_realizer(3, 2),
        pd.upper_bound_realizer(7),
    ]
    for r in realizers:
        assert parse_realizer(serialize_realizer(r)) == r

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    outs = {run(["verify", "boolean:6", "builtin:b6"])[1] for _ in range(3)}
    assert len(outs) == 1
    base = run(["verify", "boolean:6", "builtin:b6", "--threads", "1"])
    multi = run(["verify", "boolean:6", "builtin:b6", "--threads", "4"])
    assert base == multi
    bounds1 = run(["bounds", "--n", "1:13"])
    bounds2 = run(["bounds", "--n", "1:13"])
    assert bounds1 == bounds2
    with capsys.disabled():
        report(
            9,
            "serialize/parse identity on the built-in corpus; repeated and "
            "threaded runs byte-identical",
        )
