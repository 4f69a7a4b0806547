"""Version-tagged text formats for posets and realizers, plus the small
grammar of named family specs used by the CLI.

Poset format (closure is recomputed on parse, so cover pairs suffice):

    poset v1
    n <count>
    label <i> <text>        # optional, defaults to the index
    mode covers|relation
    rel <i> <j>             # i <= j

Realizer format (order lines are 1-based, elements least to greatest; the
phi string lists the truth-table bit at every tuple index):

    realizer v1
    n <N>
    d <D>
    order <i>: <N element indices>
    phi <binary string of length 2**D>

This module owns how text is read, here and in sat.py's solver-output
parser: ``_lines`` gives the stripped non-empty lines of ``str.splitlines``
a piece at a time, and ``_read_ints`` reads a list of numbers, each any
token ``int()`` accepts.  README.md ("File formats")
states the full grammar.  The lines the serializers write take array paths
that accept exactly the same texts: a run of ``rel <digits> <digits>``
lines, each ended by a newline, is read a block at a time by one numpy
call, and so is a list of ASCII digits, spaces and leading minus signs;
any other line is read token by token.  The serializers gather each line's
numbers from a table of number tokens built once per call.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

from .errors import BadParameter, ParseError, ToolkitError, UsageError
from .poset import (
    MAX_ELEMENTS,
    LinearOrder,
    Poset,
    _pair_array,
    antichain,
    boolean_lattice,
    chain,
    from_relation_pairs,
    multiset_grid,
    standard_example,
    upper_covers,
)
from .realizer import BooleanRealizer, TruthTable, b6_realizer


def serialize_poset(p: Poset) -> str:
    labels = "".join([f"label {i} {label}\n" for i, label in enumerate(p.labels)])
    return "".join([f"poset v1\nn {p.n}\n", labels, "mode covers\n", *_rel_lines(p)])


_REL_BLOCK = 1 << 12  # covers gathered at a time when a poset is written


def _rel_lines(p: Poset) -> Iterator[str]:
    """The cover ``rel`` lines, about ``_REL_BLOCK`` covers at a time, so
    memory follows the text.  Each line is gathered from a table of ``rel x ``
    slots and ``y\n`` slots, NUL-padded to one width (the technique of
    ``sat._dimacs_chunks``); dropping the NULs leaves the text."""
    n = p.n
    slots = np.array([b"rel %d " % x for x in range(n)] + [b"%d\n" % y for y in range(n)])
    heads: list[int] = []
    counts: list[int] = []
    tails: list[int] = []
    for x, ys in enumerate(upper_covers(p)):
        heads.append(x)
        counts.append(len(ys))
        tails += ys
        if len(tails) >= _REL_BLOCK or x == n - 1:
            index = np.empty((len(tails), 2), dtype=np.intp)
            index[:, 0] = np.repeat(heads, counts)
            index[:, 1] = np.add(tails, n)
            yield slots[index].tobytes().translate(None, b"\0").decode("ascii")
            heads, counts, tails = [], [], []


def _check_size(n: int) -> None:
    """Reject a declared element count before anything is sized by it."""
    if not 1 <= n <= MAX_ELEMENTS:
        raise ParseError(f"n={n} is outside 1..{MAX_ELEMENTS}")


_PIECE = 1 << 16  # characters of text split into lines at a time


def _pieces(text: str, block: int) -> Iterator[str]:
    """``text`` in pieces of about ``block`` characters, each cut just
    after a newline, where every line boundary splitlines knows also
    falls."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + block) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _lines(text: str, block: int = _PIECE) -> Iterator[str]:
    """The stripped non-empty lines of ``text.splitlines()``, one at a time.
    The text is split a piece at a time (``_pieces``), so no list of every
    line is built."""
    for piece in _pieces(text, block):
        for raw in piece.splitlines():
            line = raw.strip()
            if line:
                yield line


#: A run of canonical ``rel <i> <j>`` lines, each ended by "\n", from the
#: start of a line.  At most 18 digits a number, so each fits int64.
_REL_RUN = re.compile(r"^(?:rel [0-9]{1,18} [0-9]{1,18}\n)+", re.MULTILINE)


def _poset_lines(text: str, block: int = _PIECE) -> Iterator[str | np.ndarray]:
    """The lines of ``_lines(text)`` in order, except that each run of
    canonical ``rel`` lines inside a piece comes as one int64 array of its
    endpoints ``i, j, i, j, ...``, read by one numpy call.  A run holds
    only ``rel``, digits, spaces and the newlines that end its lines, so
    it is whole lines of splitlines; the text between runs goes through
    ``_lines``."""
    for piece in _pieces(text, block):
        done = 0
        for run in _REL_RUN.finditer(piece):
            yield from _lines(piece[done : run.start()])
            yield np.fromstring(run.group().replace("rel ", ""), dtype=np.int64, sep=" ")
            done = run.end()
        yield from _lines(piece[done:])


def parse_poset(text: str) -> Poset:
    """Parse a ``poset v1`` document.  The lines are read one at a time,
    and runs of canonical ``rel`` lines a block at a time
    (``_poset_lines``); the endpoints are kept as int arrays, in document
    order, that ``from_relation_pairs`` reads at once, so no list of lines,
    no list of pairs and no (n, n) matrix is built."""
    lines = _poset_lines(text)
    header = next(lines, None)
    if not isinstance(header, str) or header != "poset v1":
        raise ParseError("expected 'poset v1' header")
    n: int | None = None
    labels: list[str] | None = None
    mode: str | None = None
    chunks: list[np.ndarray] = []  # endpoint arrays, in document order
    pending: list[tuple[int, int]] = []  # rel pairs of other lines since then
    try:
        for ln in lines:
            if isinstance(ln, np.ndarray):
                if pending:
                    chunks.append(_pair_array(pending))
                    pending = []
                chunks.append(ln.reshape(-1, 2))
                continue
            key, _, rest = ln.partition(" ")
            if key == "n":
                n = int(rest)
                _check_size(n)
                labels = [str(i) for i in range(n)]
            elif key == "label":
                if labels is None:
                    raise ParseError("label line before n line")
                idx_text, _, label = rest.partition(" ")
                idx = int(idx_text)
                if not 0 <= idx < len(labels):
                    raise ParseError(f"label index {idx} out of range")
                labels[idx] = label
            elif key == "mode":
                if rest not in ("covers", "relation"):
                    raise ParseError(f"unknown mode {rest!r}")
                mode = rest
            elif key == "rel":
                i_text, j_text = rest.split()
                pending.append((int(i_text), int(j_text)))
            else:
                raise ParseError(f"unknown line {ln!r}")
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"malformed poset document: {exc}") from exc
    if n is None:
        raise ParseError("missing n line")
    if mode is None:
        raise ParseError("missing mode line")
    chunks.append(_pair_array(pending))
    try:
        return from_relation_pairs(n, labels, np.concatenate(chunks))
    except ToolkitError as exc:
        raise ParseError(f"invalid poset data: {exc}") from exc


def serialize_realizer(r: BooleanRealizer) -> str:
    """Each order line is gathered from a table of `` k`` slots, NUL-padded
    to one width, indexed by the order's sequence; dropping the NULs leaves
    the text."""
    slots = np.array([b" %d" % k for k in range(r.n)])
    lines = [b"realizer v1", b"n %d" % r.n, b"d %d" % r.d]
    for i, order in enumerate(r.orders, start=1):
        body = slots[order.sequence()].tobytes().translate(None, b"\0")
        lines.append(b"order %d:%s" % (i, body))
    lines += [b"phi " + (r.phi.bits + ord("0")).tobytes(), b""]
    return b"\n".join(lines).decode("ascii")


def _parse_int(token: str, error: type[Exception]) -> int:
    try:
        return int(token)
    except ValueError:
        raise error(f"bad number {token!r} in solver output") from None


def _read_ints(body: str, bound: int, error: type[Exception] | None = None) -> np.ndarray:
    """The whitespace-separated integers of body, in order, as int64; a
    value outside -bound..bound reads as -bound - 1.  A body of ASCII
    digits, spaces and minus signs, each sign at the start of a number, is
    read by one numpy call, kept if every value lies in -bound..bound (a
    number numpy saturates at an int64 limit does not).  Any other body
    goes through ``int()`` token by token, which accepts plus signs,
    underscores and non-ASCII digits; a token it refuses raises its
    ValueError, or ``error`` through ``_parse_int``."""
    padded = f" {body} "
    if (
        padded.isascii()
        and not padded.encode().translate(None, b"0123456789- ")
        and not body.isspace()  # numpy reads " " as [0]
        and ("-" not in body or padded.count("-") == padded.count(" -") and "- " not in padded)
    ):
        values = np.fromstring(body, dtype=np.int64, sep=" ")
        if not len(values) or (-bound <= values.min() and values.max() <= bound):
            return values
    parse = int if error is None else lambda token: _parse_int(token, error)
    values = [v if -bound <= v <= bound else -bound - 1 for v in map(parse, body.split())]
    return np.array(values, dtype=np.int64)


def parse_realizer(text: str) -> BooleanRealizer:
    lines = list(_lines(text))
    if not lines or lines[0] != "realizer v1":
        raise ParseError("expected 'realizer v1' header")
    try:
        if len(lines) < 3 or not lines[1].startswith("n ") or not lines[2].startswith("d "):
            raise ParseError("expected n and d lines after the header")
        n = int(lines[1][2:])
        _check_size(n)
        d = int(lines[2][2:])
        if len(lines) != 3 + d + 1:
            raise ParseError(f"expected {d} order lines plus a phi line")
        orders = []
        for i in range(d):
            ln, prefix = lines[3 + i], f"order {i + 1}: "
            if not ln.startswith(prefix):
                raise ParseError(f"expected 'order {i + 1}: ...', got {ln!r}")
            seq = _read_ints(ln[len(prefix) :], MAX_ELEMENTS)
            wrong = ParseError(f"order {i + 1} is not a permutation of 0..{n - 1}")
            if len(seq) != n:
                raise wrong
            try:
                orders.append(LinearOrder.from_sequence(seq))
            except BadParameter:
                raise wrong from None
        phi_line = lines[3 + d]
        if not phi_line.startswith("phi "):
            raise ParseError("expected a phi line")
        phi_text = phi_line[4:].strip()
        if len(phi_text) != (1 << d) or set(phi_text) - {"0", "1"}:
            raise ParseError(f"phi must be a binary string of length {1 << d}")
        bits = np.frombuffer(phi_text.encode("ascii"), dtype=np.uint8) - ord("0")
        return BooleanRealizer(n=n, orders=tuple(orders), phi=TruthTable(d, bits))
    except ParseError:
        raise
    except (ValueError, ToolkitError) as exc:
        raise ParseError(f"malformed realizer document: {exc}") from exc


# ---------------------------------------------------------------------------
# named specs and builtins

_FAMILY_PATTERNS = {
    "boolean": re.compile(r"boolean:(\d+)$"),
    "grid": re.compile(r"grid:(\d+)x(\d+)$"),
    "standard": re.compile(r"standard:(\d+)$"),
    "chain": re.compile(r"chain:(\d+)$"),
    "antichain": re.compile(r"antichain:(\d+)$"),
}


def parse_poset_spec(spec: str) -> Poset:
    """Resolve a named family spec or a path to a poset file."""
    name, _, _ = spec.partition(":")
    if name in _FAMILY_PATTERNS:
        m = _FAMILY_PATTERNS[name].match(spec)
        if not m:
            raise UsageError(f"malformed {name!r} spec: {spec!r}")
        try:
            args = [int(g) for g in m.groups()]
            if name == "boolean":
                return boolean_lattice(args[0])
            if name == "grid":
                return multiset_grid(args[0], args[1])
            if name == "standard":
                return standard_example(args[0])
            if name == "chain":
                return chain(args[0])
            return antichain(args[0])
        except (ToolkitError, ValueError) as exc:  # ValueError: > 4300 digits
            raise UsageError(f"invalid poset spec {spec!r}: {exc}") from exc
    if ":" in spec and not _looks_like_path(spec):
        raise UsageError(f"unknown poset family in {spec!r}")
    return parse_poset(_read(spec))


def family_grid_params(spec: str) -> tuple[int, int] | None:
    """(n, m) for boolean:/grid: family specs, None for anything else."""
    m = _FAMILY_PATTERNS["boolean"].match(spec)
    if m:
        return int(m.group(1)), 2
    m = _FAMILY_PATTERNS["grid"].match(spec)
    if m:
        return int(m.group(1)), int(m.group(2))
    return None


def parse_realizer_spec(spec: str) -> BooleanRealizer:
    """Resolve 'builtin:<name>' or a path to a realizer file."""
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        if name == "b6":
            return b6_realizer()
        raise UsageError(f"unknown builtin realizer {name!r}")
    return parse_realizer(_read(spec))


def _looks_like_path(spec: str) -> bool:
    return "/" in spec or spec.endswith(".poset") or spec.endswith(".txt")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
