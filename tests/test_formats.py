"""Text-format round trips and the named-spec grammar."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posetdim as pd
from posetdim.errors import ParseError, ToolkitError, UsageError
from posetdim.formats import (
    _lines,
    family_grid_params,
    parse_poset,
    parse_poset_spec,
    parse_realizer,
    parse_realizer_spec,
    serialize_poset,
    serialize_realizer,
)

from corpus import five_element_posets, four_element_posets


def traced_peak(fn, *args):
    """Peak traced allocation (bytes) while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak

BUILTIN_POSETS = [
    pd.boolean_lattice(0),
    pd.boolean_lattice(3),
    pd.boolean_lattice(4),
    pd.multiset_grid(2, 3),
    pd.multiset_grid(1, 6),
    pd.standard_example(2),
    pd.standard_example(4),
    pd.chain(5),
    pd.antichain(4),
]

BUILTIN_REALIZERS = [
    pd.b6_realizer(),
    pd.canonical_grid_realizer(2, 2),
    pd.canonical_grid_realizer(2, 3),
    pd.canonical_grid_realizer(1, 4),
    pd.upper_bound_realizer(4),
    pd.upper_bound_realizer(7),
    pd.BooleanRealizer(
        n=1, orders=(), phi=pd.TruthTable(arity=0, bits=np.array([1], np.uint8))
    ),
]


def _no_n_line(text):
    return all(ln.strip().partition(" ")[0] != "n" for ln in text.splitlines())


@st.composite
def small_poset_texts(draw):
    """A poset document on at most 64 elements, often well formed, with
    lines shuffled, dropped or added at random.  Added free text never holds
    an "n" line, so nothing large is sized."""
    n = draw(st.integers(-1, 64))
    idx = st.integers(-1, n)
    mode = draw(st.sampled_from(["mode covers", "mode relation"]))
    rel = st.builds("rel {} {}".format, idx, idx)
    label = st.builds("label {} {}".format, idx, st.text(max_size=6))
    lines = ["poset v1", f"n {n}", mode]
    lines += draw(st.lists(rel, max_size=12)) + draw(st.lists(label, max_size=3))
    if draw(st.booleans()):
        lines = lines[:1] + draw(st.permutations(lines[1:]))
    for _ in range(draw(st.integers(0, 2))):
        del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.text(max_size=16).filter(_no_n_line))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@st.composite
def small_realizer_texts(draw):
    """A realizer document on at most 64 elements and 4 orders, often well
    formed, with orders, labels and phi broken and lines shuffled, dropped
    or added at random; at most 12 lines.  Added free text is one line that
    is not an "n" line, so nothing large is sized."""
    n, d = draw(st.integers(-1, 64)), draw(st.integers(-1, 4))
    size, width = max(n, 0), 1 << max(d, 0)
    lines = ["realizer v1", f"n {n}", f"d {d}"]
    for i in range(1, d + 1):
        seq = draw(st.permutations(range(size)))
        if draw(st.integers(0, 3)) == 0:
            seq = draw(st.lists(st.integers(-1, size), max_size=size + 1))
        label = i if draw(st.integers(0, 7)) else draw(st.integers(0, 5))
        lines.append(f"order {label}: " + " ".join(map(str, seq)))
    bits = st.text("01", min_size=width, max_size=width)
    lines.append("phi " + draw(st.one_of(bits, st.text("012 ", max_size=17))))
    edits = st.sampled_from((0, 0, 0, 1, 2))  # most documents keep their lines
    if draw(edits):
        lines = lines[:1] + draw(st.permutations(lines[1:]))
    for _ in range(draw(edits)):
        del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(edits)):
        junk = draw(
            st.text(max_size=16).filter(
                lambda t: len(t.splitlines()) <= 1 and _no_n_line(t)
            )
        )
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


class TestPosetRoundTrip:
    @pytest.mark.parametrize("p", BUILTIN_POSETS, ids=lambda p: f"n{p.n}")
    def test_parse_serialize_identity(self, p):
        assert parse_poset(serialize_poset(p)) == p

    @pytest.mark.parametrize("p", BUILTIN_POSETS, ids=lambda p: f"n{p.n}")
    def test_double_serialize_stable(self, p):
        text = serialize_poset(p)
        assert serialize_poset(parse_poset(text)) == text

    def test_corpus_round_trips(self):
        for name, p in four_element_posets() + five_element_posets():
            assert parse_poset(serialize_poset(p)) == p, name

    def test_random_posets_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 12)
            pairs = []
            for _ in range(rng.randint(0, 3 * n)):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    pairs.append((min(i, j), max(i, j)))
            p = pd.from_relation_pairs(n, None, pairs)
            assert parse_poset(serialize_poset(p)) == p

    def test_relation_mode_accepted(self):
        text = "poset v1\nn 3\nmode relation\nrel 0 1\nrel 1 2\nrel 0 2\n"
        assert np.array_equal(parse_poset(text).leq, pd.chain(3).leq)

    def test_labels_with_spaces(self):
        text = "poset v1\nn 1\nlabel 0 the bottom element\nmode covers\n"
        assert parse_poset(text).labels == ("the bottom element",)

    @pytest.mark.parametrize(
        "text",
        [
            "poset v2\nn 1\nmode covers\n",
            "poset v1\nmode covers\n",
            "poset v1\nn 2\n",
            "poset v1\nn 2\nmode maybe\n",
            "poset v1\nn 2\nmode covers\nrel 0 5\n",
            "poset v1\nn 2\nmode covers\nrel 0 1\nrel 1 0\n",
            "poset v1\nn 2\nmode covers\nwat 1 2\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_poset(text)

    def test_serialize_memory_follows_the_text(self):
        # standard:150 has 22,350 covers; a list of cover tuples plus a list
        # of rel lines costs about 12 bytes per byte of text.
        p = pd.standard_example(150)
        text = serialize_poset(p)
        assert traced_peak(serialize_poset, p) < 3 * len(text)

    def test_huge_n_rejected_before_allocating(self):
        def parse():
            with pytest.raises(ParseError):
                parse_poset("poset v1\nn 3000000\nmode covers\n")

        assert traced_peak(parse) < 16 * 2**20

    def test_parse_b12_peak_is_packed_rows(self):
        # The 4096-element relation is 2 MB as packed rows (16 MB as a bool
        # matrix, which is not built); beside them the up-set ints, the
        # adjacency lists and the two endpoint lists, but no list of lines
        # and no list of pairs.
        text = serialize_poset(pd.boolean_lattice(12))
        assert traced_peak(parse_poset, text) < 10 * 2**20

    @settings(max_examples=300)
    @given(
        st.text(alphabet="ab \t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", max_size=40),
        st.integers(0, 8),
    )
    def test_lines_are_the_splitlines_lines(self, text, block):
        want = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        assert list(_lines(text, block)) == want

    @settings(max_examples=300)
    @given(small_poset_texts())
    def test_small_texts_parse_or_raise_toolkit_errors(self, text):
        try:
            p = parse_poset(text)
        except ToolkitError:
            return
        assert 1 <= p.n <= 64
        p.check_axioms()


class TestRealizerRoundTrip:
    @pytest.mark.parametrize(
        "r", BUILTIN_REALIZERS, ids=lambda r: f"n{r.n}d{r.d}"
    )
    def test_parse_serialize_identity(self, r):
        assert parse_realizer(serialize_realizer(r)) == r

    def test_double_serialize_stable(self):
        for r in BUILTIN_REALIZERS:
            text = serialize_realizer(r)
            assert serialize_realizer(parse_realizer(text)) == text

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.permutations(list(range(n))), min_size=0, max_size=3),
            )
        )
    )
    def test_random_realizers_round_trip(self, case):
        n, seqs = case
        d = len(seqs)
        rng = random.Random(n * 31 + d)
        bits = np.array([rng.randint(0, 1) for _ in range(1 << d)], np.uint8)
        r = pd.BooleanRealizer(
            n=n,
            orders=tuple(pd.LinearOrder.from_sequence(list(s)) for s in seqs),
            phi=pd.TruthTable(arity=d, bits=bits),
        )
        assert parse_realizer(serialize_realizer(r)) == r

    @pytest.mark.parametrize(
        "text",
        [
            "realizer v2\nn 2\nd 0\nphi 1\n",
            "realizer v1\nn 2\nd 1\norder 1: 0 0\nphi 01\n",
            "realizer v1\nn 2\nd 1\norder 2: 0 1\nphi 01\n",
            "realizer v1\nn 2\nd 1\norder 1: 0 1\nphi 0\n",
            "realizer v1\nn 2\nd 1\norder 1: 0 1\nphi 02\n",
            "realizer v1\nn 2\nd 2\norder 1: 0 1\nphi 0101\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_realizer(text)

    @pytest.mark.parametrize(
        "order, phi, message",
        [
            ("0 1 1", "01", "order 1 is not a permutation of 0..2"),  # duplicate
            ("0 1", "01", "order 1 is not a permutation of 0..2"),  # short
            ("0 1 2 3", "01", "order 1 is not a permutation of 0..2"),  # long
            ("0 1 5", "01", "order 1 is not a permutation of 0..2"),  # out of range
            ("0 -1 2", "01", "order 1 is not a permutation of 0..2"),
            (f"0 1 {2**64}", "01", "order 1 is not a permutation of 0..2"),
            (f"-1 {2**63} 2", "01", "order 1 is not a permutation of 0..2"),
            ("0 1 x", "01", "malformed realizer document: invalid literal for int"),
            ("0 1 2.0", "01", "malformed realizer document: invalid literal for int"),
            ("0 1 2", "02", "phi must be a binary string of length 2"),
            ("0 1 2", "2", "phi must be a binary string of length 2"),
        ],
    )
    def test_order_and_phi_errors_pinned(self, order, phi, message):
        text = f"realizer v1\nn 3\nd 1\norder 1: {order}\nphi {phi}\n"
        with pytest.raises(ParseError) as info:
            parse_realizer(text)
        assert str(info.value).startswith(message)

    @settings(max_examples=300)
    @given(small_realizer_texts())
    def test_small_texts_parse_or_raise_toolkit_errors(self, text):
        try:
            r = parse_realizer(text)
        except ToolkitError:
            return
        assert 1 <= r.n <= 64 and r.d <= 4
        assert parse_realizer(serialize_realizer(r)) == r

    def test_huge_n_rejected_before_allocating(self):
        def parse():
            with pytest.raises(ParseError):
                parse_realizer("realizer v1\nn 3000000\nd 1\norder 1: 0 1\nphi 01\n")

        assert traced_peak(parse) < 16 * 2**20


class TestSpecs:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("boolean:3", 8),
            ("grid:2x3", 9),
            ("standard:4", 8),
            ("chain:5", 5),
            ("antichain:2", 2),
        ],
    )
    def test_family_specs(self, spec, n):
        assert parse_poset_spec(spec).n == n

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            parse_poset_spec("pyramid:3")

    def test_malformed_family(self):
        with pytest.raises(UsageError):
            parse_poset_spec("grid:3")

    def test_invalid_parameters(self):
        with pytest.raises(UsageError):
            parse_poset_spec("boolean:20")

    def test_huge_lattice_rejected_in_bounded_memory(self):
        def attempt():
            with pytest.raises(UsageError):
                parse_poset_spec("boolean:2000000000")

        assert traced_peak(attempt) < 16 * 2**20

    def test_file_path_spec(self, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text(serialize_poset(pd.chain(3)))
        assert parse_poset_spec(str(path)) == pd.chain(3)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_poset_spec("/no/such/file.poset")

    def test_builtin_realizer(self):
        assert parse_realizer_spec("builtin:b6") == pd.b6_realizer()

    def test_unknown_builtin(self):
        with pytest.raises(UsageError):
            parse_realizer_spec("builtin:b7")

    def test_grid_params(self):
        assert family_grid_params("boolean:6") == (6, 2)
        assert family_grid_params("grid:2x5") == (2, 5)
        assert family_grid_params("chain:4") is None
