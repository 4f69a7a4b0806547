"""The ``poset v1`` and ``realizer v1`` parsers as they were before they
read order lines and ``rel`` lines with array operations, kept verbatim as
references for the differential tests in test_formats.py: on every text
the parsers in posetdim.formats must return an equal object or raise the
same ParseError.  The solver-output parser as it was before it read the
"v" lines with one array call, kept verbatim for the differential in
test_sat.py: on every text posetdim.sat.parse_solver_output must give the
same status and assignment or raise the same error."""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

from posetdim.errors import ParseError, ToolkitError, UnparseableOutput
from posetdim.formats import _parse_int
from posetdim.poset import MAX_ELEMENTS, LinearOrder, Poset, from_relation_pairs
from posetdim.realizer import BooleanRealizer, TruthTable
from posetdim.sat import SatResult


def _check_size(n: int) -> None:
    """Reject a declared element count before anything is sized by it."""
    if not 1 <= n <= MAX_ELEMENTS:
        raise ParseError(f"n={n} is outside 1..{MAX_ELEMENTS}")


def _lines(text: str, block: int = 1 << 16) -> Iterator[str]:
    """The stripped non-empty lines of ``text.splitlines()``, one at a time.
    The text is split a block of about ``block`` characters at a time, each
    cut just after a newline, where every line boundary splitlines knows
    also falls, so no list of every line is built."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + block) + 1 or len(text)
        for raw in text[start:stop].splitlines():
            line = raw.strip()
            if line:
                yield line
        start = stop


def parse_poset(text: str) -> Poset:
    """Parse a ``poset v1`` document.  The lines are read one at a time, and
    the ``rel`` endpoints are kept in two int lists that
    ``from_relation_pairs`` reads once, so no list of lines, no list of
    pairs and no (n, n) matrix is built."""
    lines = _lines(text)
    if next(lines, None) != "poset v1":
        raise ParseError("expected 'poset v1' header")
    n: int | None = None
    labels: list[str] | None = None
    mode: str | None = None
    heads: list[int] = []
    tails: list[int] = []
    try:
        for ln in lines:
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
                heads.append(int(i_text))
                tails.append(int(j_text))
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
    try:
        return from_relation_pairs(n, labels, zip(heads, tails))
    except ToolkitError as exc:
        raise ParseError(f"invalid poset data: {exc}") from exc


def parse_realizer(text: str) -> BooleanRealizer:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
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
            ln = lines[3 + i]
            m = re.fullmatch(rf"order {i + 1}: (.*)", ln)
            if not m:
                raise ParseError(f"expected 'order {i + 1}: ...', got {ln!r}")
            seq = list(map(int, m.group(1).split()))
            if len(seq) != n or not np.array_equal(np.sort(seq), np.arange(n)):
                raise ParseError(f"order {i + 1} is not a permutation of 0..{n - 1}")
            orders.append(LinearOrder.from_sequence(seq))
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


def parse_solver_output(text: str, num_vars: int) -> SatResult:
    """Interpret SAT-competition style output ("s ..." and "v ..." lines)."""
    status = None
    values: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            tag = line[2:].strip().upper()
            if tag == "SATISFIABLE":
                status = "sat"
            elif tag == "UNSATISFIABLE":
                status = "unsat"
            elif tag.startswith("UNKNOWN"):
                status = "unknown"
        elif line.startswith("v ") or line == "v":
            values.extend(
                _parse_int(tok, UnparseableOutput) for tok in line[1:].split()
            )
    if status is None:
        raise UnparseableOutput("no recognizable 's' result line in solver output")
    if status != "sat":
        return SatResult(status=status)
    lits = np.array([v for v in values if 0 < abs(v) <= num_vars], dtype=np.int64)
    assignment = np.zeros(num_vars + 1, dtype=bool)
    assignment[np.abs(lits)] = lits > 0
    return SatResult(status="sat", assignment=assignment)
