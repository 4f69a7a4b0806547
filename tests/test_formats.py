"""Text-format round trips and the named-spec grammar."""

import contextlib
import os
import random
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posetdim as pd
from posetdim.errors import ParseError, ToolkitError, UsageError
from posetdim.formats import (
    _REL_RUN,
    _lines,
    _poset_lines,
    family_grid_params,
    parse_poset,
    parse_poset_spec,
    parse_realizer,
    parse_realizer_spec,
    serialize_poset,
    serialize_realizer,
)

import reference_parsers as reference
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

    def test_unreadable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.poset"
        path.write_bytes(b"poset v1\nn 1\nlabel 0 \xe9\nmode covers\n")
        for spec in (str(path), str(tmp_path / "nul\0.poset")):
            with pytest.raises(ParseError):
                parse_poset_spec(spec)
            with pytest.raises(ParseError):
                parse_realizer_spec(spec)

    def test_builtin_realizer(self):
        assert parse_realizer_spec("builtin:b6") == pd.b6_realizer()

    def test_unknown_builtin(self):
        with pytest.raises(UsageError):
            parse_realizer_spec("builtin:b7")

    def test_grid_params(self):
        assert family_grid_params("boolean:6") == (6, 2)
        assert family_grid_params("grid:2x5") == (2, 5)
        assert family_grid_params("chain:4") is None


# ---------------------------------------------------------------------------
# differential against the parsers as they were before the array fast paths

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def number_tokens(draw, value):
    """``value`` written as one token in a way int() may or may not accept:
    plain, with leading zeros (up to 20 digits), '+', '-', an underscore,
    Arabic-Indic digits, a 20-digit number, or junk."""
    text = str(value)
    form = draw(st.integers(0, 12))
    if form == 1:
        return "0" * draw(st.integers(1, 20)) + text
    if form == 2:
        return "+" + text
    if form == 3:
        return "-" + text
    if form == 4 and value >= 10:
        return text[0] + "_" + text[1:]
    if form == 5:
        return text.translate(_ARABIC_INDIC)
    if form == 6:
        return str(10**19 + value)
    if form == 7:
        return draw(st.sampled_from(["x", "2.0", "", "1__0", "0x1"]))
    return text


def separators(draw):
    return draw(st.sampled_from([" "] * 6 + ["  ", "\t", " \t ", "\xa0"]))


@st.composite
def token_lists(draw, values):
    """The tokens of ``values`` joined by separators, with a token
    sometimes dropped or repeated."""
    tokens = [draw(number_tokens(v)) for v in values]
    if tokens and draw(st.integers(0, 7)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    if tokens and draw(st.integers(0, 7)) == 0:
        tokens.append(draw(st.sampled_from(tokens)))
    out = ""
    for i, token in enumerate(tokens):
        out += (separators(draw) if i else "") + token
    return out


@st.composite
def documents(draw, lines):
    """``lines`` joined by "\\n", "\\r\\n" or blank lines, with stray
    whitespace around some of them."""
    out = []
    for line in lines:
        if draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from([" ", "\t", "  "])) + line + " "
        out.append(line)
        out.append(draw(st.sampled_from(["\n"] * 8 + ["\r\n", "\n\n", "\n \n", "\r"])))
    if out and draw(st.booleans()):
        out.pop()  # no newline after the last line
    return "".join(out)


@st.composite
def realizer_documents(draw):
    n, d = draw(st.integers(1, 12)), draw(st.integers(0, 3))
    lines = ["realizer v1", f"n {n}", f"d {d}"]
    for i in range(1, d + 1):
        seq = draw(st.permutations(range(n)))
        if draw(st.integers(0, 5)) == 0:
            seq = draw(st.lists(st.integers(-2, n + 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            body = " ".join(map(str, seq))  # canonical
        else:
            body = draw(token_lists(seq))
        lines.append(f"order {i}: {body}")
    lines.append("phi " + draw(st.text("01", min_size=1 << d, max_size=1 << d)))
    return draw(documents(lines))


@st.composite
def poset_documents(draw):
    n = draw(st.integers(1, 10))
    lines = ["poset v1", f"n {n}"]
    for i in draw(st.lists(st.integers(0, n), max_size=3)):
        lines.append(f"label {i} " + draw(st.text("ab {}", max_size=5)))
    lines.append(draw(st.sampled_from(["mode covers", "mode relation"])))
    for _ in range(draw(st.integers(0, 14))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        i, j = (min(i, j), max(i, j)) if draw(st.integers(0, 9)) else (i, j)
        if draw(st.integers(0, 11)) == 0:
            j = draw(st.sampled_from([-1, n, 10**20]))
        if draw(st.booleans()):
            lines.append(f"rel {i} {j}")  # canonical
        else:
            lines.append("rel" + separators(draw) + draw(token_lists([i, j])))
    if draw(st.integers(0, 4)) == 0:
        lines = lines[:1] + draw(st.permutations(lines[1:]))
    return draw(documents(lines))


def outcome(parse, text):
    """The parsed object, or the message of the ParseError raised."""
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestParserDifferential:
    @settings(max_examples=400)
    @given(realizer_documents())
    def test_realizer_parser_matches_the_reference(self, text):
        assert outcome(parse_realizer, text) == outcome(reference.parse_realizer, text)

    @settings(max_examples=400)
    @given(poset_documents())
    def test_poset_parser_matches_the_reference(self, text):
        assert outcome(parse_poset, text) == outcome(reference.parse_poset, text)

    @pytest.mark.parametrize(
        "order",
        [
            "0 1 2", "2  1 0", "0\t1 2", "00 01 0002", "+0 1 2", "0 1_0 2",
            "٠ ١ ٢", "0 1 00000000000000000002", "-0 1 2", "0 1", "0 1 2 2",
            f"0 1 {2**64 + 2}", f"0 1 {2**63 + 2}", f"0 1 {2**63}", "0 1 -2",
            "0\xa01 2", f"0 1 {2**63 - 1}", "0 1 " + "9" * 5000, "0 -1 2",
            "0 1 --2", "0 - 1 2", f"0 1 {-2**63}",
        ],
    )
    def test_order_lines_match_the_reference(self, order):
        # 2**64 + 2 and 2**63 + 2 would wrap to the valid index 2, and -2**63
        # is the int64 minimum.  int() refuses 5000 digits with its own
        # message.  Minus signs at the start of a number take the array path.
        text = f"realizer v1\nn 3\nd 1\norder 1: {order}\nphi 01\n"
        assert outcome(parse_realizer, text) == outcome(reference.parse_realizer, text)

    @pytest.mark.parametrize(
        "rel",
        [
            "rel 0 1", "rel 00 001", "rel  0 1", "rel 0\t1", "rel 0 1 2",
            "rel 0", "rel +0 1", "rel 0 ١", f"rel 0 {10**20}",
            "rel 0 0000000000000000000001", "rel 0 -1", "rel 1 0",
            "rel 0 " + "9" * 5000,
        ],
    )
    def test_rel_lines_match_the_reference(self, rel):
        for end in ("\n", "\r\n", ""):
            text = f"poset v1\nn 2\nmode covers\nrel 0 1\n{rel}{end}rel 0 1\n{rel}"
            assert outcome(parse_poset, text) == outcome(reference.parse_poset, text)

    @settings(max_examples=300)
    @given(st.text(alphabet="rel 0123\n\r\tx", max_size=60), st.integers(0, 12))
    def test_poset_lines_are_the_lines(self, text, block):
        # Each array stands for whole canonical rel lines of _lines.
        def pairs(items):
            out = []
            for item in items:
                if isinstance(item, np.ndarray):
                    out += [tuple(pair) for pair in item.reshape(-1, 2).tolist()]
                elif _REL_RUN.fullmatch(item + "\n"):
                    out.append(tuple(map(int, item.split()[1:])))
                else:
                    out.append(item)
            return out

        assert pairs(_poset_lines(text, block)) == pairs(_lines(text, block))


# ---------------------------------------------------------------------------
# named specs: every text resolves or raises a ToolkitError


@contextlib.contextmanager
def empty_working_directory():
    """Run in a fresh empty directory, so a spec read as a relative path
    names no file of the checkout."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(here)


_SPEC_PARTS = ["boolean", "grid", "standard", "chain", "antichain", "builtin",
               "b6", "b7", ":", "x", ".poset", ".txt", "-", " ", "\0", "+", "_", "٣"]


@st.composite
def spec_texts(draw):
    """Specs built from family names, separators and numbers of at most two
    digits (so every family that resolves is small), or free text; no "/",
    so no absolute path is read."""
    parts = st.one_of(
        st.sampled_from(_SPEC_PARTS),
        st.integers(0, 99).map(str),
        st.text(max_size=4).filter(lambda t: "/" not in t),
    )
    return "".join(draw(st.lists(parts, max_size=6)))


class TestSpecProperties:
    @settings(max_examples=300)
    @given(spec_texts())
    def test_poset_specs_resolve_or_raise_toolkit_errors(self, spec):
        with empty_working_directory():
            try:
                p = parse_poset_spec(spec)
            except ToolkitError:
                return
        assert 1 <= p.n <= 2 * 99 + 1

    @settings(max_examples=300)
    @given(spec_texts())
    def test_realizer_specs_resolve_or_raise_toolkit_errors(self, spec):
        with empty_working_directory():
            try:
                r = parse_realizer_spec(spec)
            except ToolkitError:
                return
        assert r == pd.b6_realizer()

    @settings(max_examples=40)
    @given(
        st.one_of(
            st.integers(14, 10**6).map("boolean:{}".format),
            st.integers(10**6, 10**40).map("boolean:{}".format),
            st.tuples(st.integers(1, 10**6), st.integers(2, 10**6))
            .filter(lambda nm: nm[0] > 8192 or nm[1] ** nm[0] > 8192)
            .map(lambda nm: "grid:{}x{}".format(*nm)),
            st.integers(8193, 10**6).map("grid:1x{}".format),
        )
    )
    def test_oversized_family_raises_before_allocating(self, spec):
        def attempt():
            with pytest.raises(UsageError):
                parse_poset_spec(spec)

        assert traced_peak(attempt) < 4 * 2**20
