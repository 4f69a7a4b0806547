"""Realizer existence as propositional satisfiability.

One variable per order and unordered element pair ("x before y"), one
variable per truth-table bit unless phi is fixed.  Transitivity clauses force
each order to be total; linking clauses tie every ordered pair's query tuple
to the required answer.  The internal solver (solver.py) handles desk-scale
instances; bigger ones go to an external solver through DIMACS files, whose
models are re-checked locally before being trusted.

Variable ids follow a closed form (see VarMap) and clauses live in one flat
int32 array, read as blocks of equal-width clauses (see ClauseArray), so
encoding, DIMACS export, model checks and decoding are array operations
rather than per-literal Python work.  The encoder writes its literals in
place, each order's by closed-form arithmetic on order 0's, and marks the
clause copies it writes (CnfInstance.copies); parsed and hand-built CNFs
carry no mask.  The encoder, model checks and DIMACS export work in slices
of rows (_SLICE_ROWS), so their temporaries are the size of a slice.  DIMACS
export gathers one 8- or 16-byte token slot per literal, so it never indexes
bytes, into two buffers per block that it fills in place slice by slice.
DIMACS and solver output are read through the line and integer readers of
formats.py.  Models are bool arrays indexed by variable id.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .errors import (
    BadArity,
    DecodeInconsistent,
    FixedPhiArityMismatch,
    GuardExceeded,
    ModelCheckFailed,
    ParseError,
    SolverLaunchFailed,
    SolverTimeout,
    UnparseableOutput,
)
from .errors import BadParameter
from .formats import _lines, _parse_int, _read_ints
from .poset import LinearOrder, Poset
from .realizer import (
    MAX_ARITY,
    REFLEXIVE_INCLUSIVE,
    BooleanRealizer,
    TruthTable,
    _check_mode,
    verify,
)
from .solver import internal_sat_solve

MAX_SAT_ELEMENTS = 128
MAX_SAT_D = 8
_MAX_VARS = np.iinfo(np.int32).max


@dataclass(frozen=True)
class VarMap:
    """Pinned 1-based numbering of a realizer instance.

    Order variables come first, order-major with pairs x < y ascending:
    ``var(i, x, y) = 1 + i*C(n,2) + rank(x, y)``.  Truth-table variables
    follow when phi is free: ``phi(t) = 1 + d*C(n,2) + t``.  Auxiliary
    variables come last.  ``VarMap()`` numbers nothing, as for parsed or
    hand-built instances.
    """

    n: int = 0
    d: int = 0
    free_phi: bool = False
    aux: tuple[str, ...] = ()

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def num_order_vars(self) -> int:
        return self.d * self.pairs

    @property
    def first_phi(self) -> int:
        """Id of the truth-table variable for tuple 0, when phi is free."""
        return self.num_order_vars + 1

    @property
    def num_vars(self) -> int:
        phi = 1 << self.d if self.free_phi else 0
        return self.num_order_vars + phi + len(self.aux)

    def order_ids(self) -> np.ndarray:
        """(d, C(n,2)) array: entry [i, r] is the id of "x before y in order
        i" for the r-th pair x < y."""
        return 1 + np.arange(self.d)[:, None] * self.pairs + np.arange(self.pairs)


@dataclass(frozen=True, eq=False)
class ClauseArray:
    """Clauses stored flat in ``lits``, in clause order.  ``runs`` holds one
    (clauses, width) row per maximal run of equal-width clauses, in order;
    ``blocks`` gives each run as a (clauses, width) view of ``lits``, made
    on demand, so a run costs 16 bytes held.  A width-0 run holds empty
    clauses."""

    lits: np.ndarray  # int32
    runs: np.ndarray  # (runs, 2) int64

    @classmethod
    def from_runs(cls, lits: np.ndarray, runs: Iterable[Sequence[int]]) -> ClauseArray:
        """lits cut into runs of (clauses, width), in order; adjacent runs of
        one width are merged and empty ones dropped."""
        runs = np.array(runs, dtype=np.int64).reshape(-1, 2)
        runs = runs[runs[:, 0] > 0]
        first = np.flatnonzero(np.diff(runs[:, 1], prepend=-1))  # a width starts
        counts = np.add.reduceat(runs[:, 0], first)
        return cls(lits, np.stack([counts, runs[first, 1]], axis=1))

    @classmethod
    def from_lists(cls, clauses: list[list[int]]) -> ClauseArray:
        runs = [(len(list(g)), w) for w, g in groupby(map(len, clauses))]
        return cls.from_runs(np.fromiter(chain.from_iterable(clauses), np.int32), runs)

    @property
    def blocks(self) -> Iterator[np.ndarray]:
        start = 0
        for count, width in zip(*self.runs.T.tolist()):
            yield self.lits[start : start + count * width].reshape(count, width)
            start += count * width

    def __len__(self) -> int:
        return int(self.runs[:, 0].sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClauseArray):
            return NotImplemented
        same = np.array_equal
        return same(self.runs, other.runs) and same(self.lits, other.lits)

    __hash__ = None  # type: ignore[assignment]


@dataclass
class CnfInstance:
    """A CNF; ``copies[k]`` is True where clause k repeats an earlier clause's
    literal set.  The encoder marks its copies; by default none is marked.

    Checked once, at construction: no clause is empty and every literal
    names a variable in 1..num_vars (BadParameter)."""

    num_vars: int
    clauses: ClauseArray  # a list of int lists is converted on construction
    varmap: VarMap
    copies: np.ndarray | None = field(default=None, compare=False)  # bool

    def __post_init__(self) -> None:
        if not isinstance(self.clauses, ClauseArray):
            self.clauses = ClauseArray.from_lists(self.clauses)
        lits = self.clauses.lits
        if not self.clauses.runs[:, 1].all():
            raise BadParameter("empty clause at construction")
        if np.count_nonzero(lits) < len(lits) or _largest_id(lits) > self.num_vars:
            raise BadParameter(f"a literal is 0 or above num_vars = {self.num_vars}")
        if self.copies is None:
            self.copies = np.zeros(len(self.clauses), dtype=bool)
        shape = np.shape(self.copies)
        if getattr(self.copies, "dtype", None) != bool or shape != (len(self.clauses),):
            raise BadParameter("copies must be a bool array, one entry per clause")


@dataclass
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    assignment: np.ndarray | None = None  # bool, 1-based; index 0 unused
    model_verified: bool = False
    conflicts: int = 0


# Clauses built, checked, gathered or written at once: about 0.1-0.5 MB per
# temporary.
_SLICE_ROWS = 1 << 12

# The most bytes one DIMACS writer buffer holds, below glibc's default
# 128 KiB mmap threshold: a freed mmap'd chunk raises the threshold, and
# later transients then come from the heap and stay resident.
_WRITE_BYTES = 1 << 16


def _row_slices(block: np.ndarray) -> Iterator[np.ndarray]:
    """block in slices of at most _SLICE_ROWS rows, so that work on one
    slice allocates in proportion to the slice, not to the block."""
    for r0 in range(0, len(block), _SLICE_ROWS):
        yield block[r0 : r0 + _SLICE_ROWS]


def _shift_to_order(first: np.ndarray, i: int, pairs: int, out: np.ndarray) -> None:
    """Write to out the literals of order i whose order-0 literals are first:
    var(i, x, y) = var(0, x, y) + i*C(n,2), so a literal moves away from 0
    by i*C(n,2) and keeps its sign."""
    np.sign(first, out=out)
    out *= i * pairs
    out += first


def encode_bdim_sat(
    p: Poset,
    d: int,
    fixed_phi: TruthTable | None = None,
    mode: str = REFLEXIVE_INCLUSIVE,
    force: bool = False,
) -> CnfInstance:
    """CNF that is satisfiable iff p has a d-order realizer (with the given
    phi, when fixed).  The guards (d <= MAX_SAT_D, at most MAX_SAT_ELEMENTS
    elements) raise GuardExceeded; ``force=True`` lifts both, but never lets
    d past MAX_ARITY, the widest truth table a realizer can hold.

    Variable numbering is pinned (see VarMap), so DIMACS exports are stable
    and self-describing via the sidecar.  Clause order is pinned too:
    transitivity per order over ordered triples (x, y, z) of distinct
    elements, then linking per ordered pair (x, y) and query tuple t, then
    the reflexive unit.

    Clause counts and widths are known from n, d and phi, so the int32
    literals are allocated once and written in place, and the three runs
    of equal width (transitivity, 3; linking, d, or d + 1 with phi free;
    units, 1) are the ClauseArray's blocks, merged where two widths meet.
    Literals are closed-form arithmetic: order 0's are read from one (n, n)
    table of signed literals, the transitivity rows one first element x at
    a time and the linking rows one slice of pairs (about _SLICE_ROWS rows)
    at a time, and order i's are order 0's moved by sign * i*C(n,2) (see
    _shift_to_order).  The literals and the copies mask are the only arrays
    the size of the instance: no index array over its triples or rows, no
    per-order table and no stacked block of the whole instance is built.

    The copies this order writes are marked in ``copies``: each transitivity
    clause is written once per rotation of (x, y, z), first with x smallest,
    and with phi fixed, linking rows (x, y, t) and (y, x, ~t) hold the same
    literals, first with x < y.  Free-phi linking rows differ in their phi
    literal, so none is a copy.
    """
    _check_mode(mode)
    if d < 1:
        raise BadParameter(f"d must be >= 1, got {d}")
    if not force and d > MAX_SAT_D:
        raise GuardExceeded(f"d = {d} exceeds the guard of {MAX_SAT_D}")
    if not force and p.n > MAX_SAT_ELEMENTS:
        raise GuardExceeded(
            f"|P| = {p.n} exceeds the {MAX_SAT_ELEMENTS}-element guard"
        )
    if d > MAX_ARITY:
        raise BadArity(f"d must be in 1..{MAX_ARITY}, got {d}")
    if fixed_phi is not None and fixed_phi.arity != d:
        raise FixedPhiArityMismatch(
            f"fixed phi has arity {fixed_phi.arity}, expected {d}"
        )

    n = p.n
    varmap = VarMap(n=n, d=d, free_phi=fixed_phi is None)
    pairs = varmap.pairs

    # before[x, y]: order 0's signed literal of "x before y"; since
    # before[y, x] == -before[x, y], a negated literal is the transposed cell
    before = np.zeros((n, n), dtype=np.int32)
    xs, ys = np.triu_indices(n, 1)
    before[xs, ys] = np.arange(1, pairs + 1)
    before[ys, xs] = -before[xs, ys]

    # (a) transitivity per order: x before y and y before z force x before z,
    # over the triples of distinct elements in index order; the (n-1)(n-2)
    # triples of one first element x are the other elements' pairs (y, z),
    # y != z, written one x at a time
    per_x = (n - 1) * (n - 2)
    y_rank, z_rank = np.nonzero(~np.eye(n - 1, dtype=bool))

    # (b) linking: pair (x, y) with query tuple t must answer leq[x, y].  The
    # clause lists, for each order i, the literal that contradicts bit i of t,
    # then the phi literal when phi is free.
    px, py = np.nonzero(~np.eye(n, dtype=bool))
    need = p.leq[px, py]
    pair_lits = before[px, py]
    tuples = np.arange(1 << d, dtype=np.int32)
    flip = 1 - 2 * ((tuples[:, None] >> np.arange(d, dtype=np.int32)) & 1)
    link_width = d + (fixed_phi is None)
    if fixed_phi is None:
        n_link = len(px) << d
    else:
        bits = fixed_phi.bits.astype(bool)
        ones = int(np.count_nonzero(bits))
        n_need = int(np.count_nonzero(need))
        # a pair writes a row for each tuple whose phi bit differs from need
        n_link = n_need * ((1 << d) - ones) + (len(px) - n_need) * ones

    # (c) reflexive queries must answer yes
    units = []
    if mode == REFLEXIVE_INCLUSIVE:
        top = (1 << d) - 1
        if fixed_phi is None:
            units = [varmap.first_phi + top]
        elif not fixed_phi.value_at(top):
            # Unsatisfiable by construction; encode that explicitly.
            varmap = VarMap(n=n, d=d, aux=("reflexive-conflict",))
            units = [varmap.num_vars, -varmap.num_vars]

    n_trans = d * n * per_x
    runs = [(n_trans, 3), (n_link, link_width), (len(units), 1)]
    lits = np.empty(sum(count * width for count, width in runs), dtype=np.int32)
    copies = np.zeros(n_trans + n_link + len(units), dtype=bool)

    trans = lits[: 3 * n_trans].reshape(d, n * per_x, 3)
    trans_copies = copies[:n_trans].reshape(d, n * per_x)
    for x in range(n):
        y = y_rank + (y_rank >= x)
        z = z_rank + (z_rank >= x)
        rows = trans[0, x * per_x : (x + 1) * per_x]
        rows[:, 0] = before[y, x]
        rows[:, 1] = before[z, y]
        rows[:, 2] = before[x, z]
        trans_copies[:, x * per_x : (x + 1) * per_x] = (x > y) | (x > z)
    for i in range(1, d):
        _shift_to_order(trans[0], i, pairs, out=trans[i])

    # linking rows a slice of pairs at a time, about _SLICE_ROWS rows each
    link = lits[3 * n_trans : lits.size - len(units)].reshape(n_link, link_width)
    link_copies = copies[n_trans : n_trans + n_link]
    step = max(1, _SLICE_ROWS >> d)
    start = 0  # the first link row of the slice
    for a in range(0, len(px), step):
        cut = slice(a, a + step)
        if fixed_phi is None:
            written = np.ones((len(px[cut]), 1 << d), dtype=bool)
        else:
            written = bits != need[cut, None]
        link_pair, link_t = np.nonzero(written)
        link_pair += a
        rows = link[start : start + len(link_pair)]
        first = pair_lits[link_pair]
        for i in range(d):
            _shift_to_order(first, i, pairs, out=rows[:, i])
            rows[:, i] *= flip[link_t, i]
        if fixed_phi is None:
            phi_ids = varmap.first_phi + link_t
            rows[:, d] = np.where(need[link_pair], phi_ids, -phi_ids)
        else:
            # row (y, x, ~t) is written too, with the same literals
            mirrored = bits[::-1] != p.leq[py[cut], px[cut]][:, None]
            link_copies[start : start + len(rows)] = (
                (px[cut] > py[cut])[:, None] & mirrored
            )[written]
        start += len(rows)

    lits[lits.size - len(units) :] = units
    clauses = ClauseArray.from_runs(lits, runs)
    return CnfInstance(varmap.num_vars, clauses, varmap, copies)


# ---------------------------------------------------------------------------
# model check


def check_model(
    clauses: ClauseArray | list[list[int]], assignment: np.ndarray | list[bool]
) -> bool:
    """True iff the assignment satisfies every clause (an empty clause never
    is).

    Checked one block of equal-width clauses (see ClauseArray) at a time,
    in slices of rows, so the check allocates per slice, not per literal of
    the instance, and stops at the first slice with a false clause.
    """
    if not isinstance(clauses, ClauseArray):
        clauses = ClauseArray.from_lists(clauses)
    value = np.asarray(assignment, dtype=bool)
    for block in clauses.blocks:
        for rows in _row_slices(block):
            true = value[np.abs(rows)] == (rows > 0)
            satisfied = np.zeros(len(rows), dtype=bool)
            for column in true.T:  # faster than true.any(axis=1) on narrow rows
                satisfied |= column
            if not satisfied.all():
                return False
    return True


def _largest_id(lits: np.ndarray) -> int:
    """The largest variable id in lits (0 when empty), with no |lits| copy."""
    return max(int(lits.max(initial=0)), -int(lits.min(initial=0)))


def _literal_table(
    lits: np.ndarray,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """(literal values covering lits and 0, map from literal arrays to
    positions in that table).

    The table lists 0, the positive values ascending, then the negative ones
    ascending, so a negative position counts from the end, as numpy indexing
    and np.take's wrap mode read it.  It spans -top..top when top, the
    largest id, is at most the literal count, and each literal is then its
    own position; otherwise it holds only the distinct values.
    """
    top = _largest_id(lits)
    if top <= len(lits):
        return np.r_[0 : top + 1, -top:0], lambda a: a
    values = np.union1d(lits, [0])
    zero = int(np.searchsorted(values, 0))
    return np.roll(values, -zero), lambda a: np.searchsorted(values, a) - zero




# ---------------------------------------------------------------------------
# DIMACS, sidecar, external solver

def _dimacs_chunks(cnf: CnfInstance) -> Iterator[bytes]:
    """DIMACS text in chunks: the header, then one clause per line.

    Each literal maps to a precomputed token ("12 ", "-3 "; literal 0 stands
    for the clause terminator "0\\n") held in an 8-byte slot, or a 16-byte
    one when a token is wider, padded with NUL bytes; np.take moves items
    of these sizes whole and others byte by byte.  Each block of
    equal-width clauses gets one (rows, width + 1) index buffer, whose last
    column is the terminator, and one slot buffer of the same shape, each
    of at most _WRITE_BYTES.  They are filled in place a slice of at most
    _SLICE_ROWS rows at a time, and a slice's slots with the NULs dropped
    are its chunk, since no decimal token contains one.
    """
    yield f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n".encode()
    values, position = _literal_table(cnf.clauses.lits)
    tokens = [b"%d " % v for v in values.tolist()]
    tokens[0] = b"0\n"  # literal 0, at position 0
    slots = np.array(tokens, dtype="S8" if max(map(len, tokens)) <= 8 else "S16")
    for block in cnf.clauses.blocks:
        cols = block.shape[1] + 1
        step = min(len(block), _SLICE_ROWS, _WRITE_BYTES // (cols * slots.itemsize))
        step = max(1, step)  # one row, however wide
        index = np.zeros((step, cols), dtype=np.intp)  # 0: the terminator
        text = np.empty((step, cols), dtype=slots.dtype)
        for r0 in range(0, len(block), step):
            n = min(step, len(block) - r0)
            for j in range(cols - 1):  # a column at a time: one long cast each
                index[:n, j] = position(block[r0 : r0 + n, j])
            np.take(slots, index[:n], out=text[:n], mode="wrap")
            yield text[:n].tobytes().translate(None, b"\0")


def to_dimacs(cnf: CnfInstance) -> str:
    """The DIMACS text of cnf as one string; write_dimacs streams it instead."""
    return b"".join(_dimacs_chunks(cnf)).decode("ascii")


def write_dimacs(cnf: CnfInstance, path: str | Path) -> None:
    """Stream the DIMACS text of cnf to path, chunk by chunk."""
    with open(path, "wb") as fh:
        fh.writelines(_dimacs_chunks(cnf))


def varmap_sidecar(varmap: VarMap) -> str:
    """Self-describing companion to a DIMACS export (order indices 1-based)."""
    xs, ys = np.triu_indices(varmap.n, 1)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    lines = [
        f"var {vid} order {i + 1} before {x} {y}"
        for i, ids in enumerate(varmap.order_ids().tolist())
        for vid, (x, y) in zip(ids, pairs)
    ]
    if varmap.free_phi:
        lines += [f"var {varmap.first_phi + t} phi {t}" for t in range(1 << varmap.d)]
    first_aux = varmap.num_vars - len(varmap.aux) + 1
    lines += [f"var {first_aux + k} aux {note}" for k, note in enumerate(varmap.aux)]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Parse a DIMACS CNF document (comments allowed, no varmap recovered).

    The document holds one "p cnf" header, before any clause, and every
    literal must name a variable in 1..num_vars.  An empty clause (a ``0``
    that ends no literal) is rejected with ParseError: DIMACS allows it,
    but a CnfInstance holds none.
    """
    num_vars = None
    expected_clauses = None
    lits = array("i")  # in range, so int32, once checked
    runs = array("q")  # clauses, width per closed run of equal width
    count = run_width = 0  # the open run; (0, 0) before the first clause
    start = 0  # where the open clause's literals begin
    for line in _lines(text):
        if line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad DIMACS header: {line!r}")
            if num_vars is not None:
                raise ParseError(f"second DIMACS header: {line!r}")
            num_vars, expected_clauses = map(_parse_int, parts[2:])
            if not 0 <= num_vars <= _MAX_VARS:
                raise ParseError(f"DIMACS variable count {num_vars} out of range")
            continue
        if num_vars is None:
            raise ParseError("clause before DIMACS header")
        for tok in line.split():
            lit = _parse_int(tok)
            if lit == 0:
                width = len(lits) - start
                if not width:
                    raise ParseError("empty clause in DIMACS input")
                if width != run_width:
                    runs.extend((count, run_width))
                    count, run_width = 0, width
                count += 1
                start = len(lits)
            elif abs(lit) > num_vars:
                raise ParseError(f"literal {lit} out of range for {num_vars} variables")
            else:
                lits.append(lit)
    if len(lits) > start:
        raise ParseError("unterminated clause at end of DIMACS input")
    if num_vars is None:
        raise ParseError("missing DIMACS header")
    runs.extend((count, run_width))
    lits, runs = np.frombuffer(lits, np.int32), np.frombuffer(runs, np.int64)
    clauses = ClauseArray.from_runs(lits, runs)  # drops the empty first run
    if expected_clauses != len(clauses):
        raise ParseError(
            f"header promises {expected_clauses} clauses, found {len(clauses)}"
        )
    return CnfInstance(num_vars=num_vars, clauses=clauses, varmap=VarMap())


def parse_solver_output(text: str, num_vars: int) -> SatResult:
    """Interpret SAT-competition style output ("s ..." and "v ..." lines).

    The last "s" line with a known tag gives the status.  The bodies of the
    "v" lines, wherever they stand, are joined and read at once (see
    formats._read_ints); a bad number among them raises UnparseableOutput
    whatever the status.  Literals outside 1..num_vars, and the closing 0,
    are ignored.
    """
    status = None
    bodies = []
    for line in _lines(text):
        if line.startswith("s "):
            tag = line[2:].strip().upper()
            if tag == "SATISFIABLE":
                status = "sat"
            elif tag == "UNSATISFIABLE":
                status = "unsat"
            elif tag.startswith("UNKNOWN"):
                status = "unknown"
        elif line.startswith("v ") or line == "v":
            bodies.append(line[1:])
    lits = _read_ints(" ".join(bodies), num_vars, UnparseableOutput)
    if status is None:
        raise UnparseableOutput("no recognizable 's' result line in solver output")
    if status != "sat":
        return SatResult(status=status)
    lits = lits[np.abs(lits) <= num_vars]  # 0 sets the unused index 0 to False
    assignment = np.zeros(num_vars + 1, dtype=bool)
    assignment[np.abs(lits)] = lits > 0
    return SatResult(status="sat", assignment=assignment)


def run_external_solver(
    cnf: CnfInstance, solver_command: str, timeout: float | None = None
) -> SatResult:
    """Run a DIMACS solver ("{cnf}" in the command is replaced by the file
    path) and re-check any claimed model locally.  The solver runs in a
    session of its own; if it is still running after timeout seconds
    (SolverTimeout), or the wait is interrupted, its whole process group is
    killed, so a wrapper's children do not outlive it.

    Unsat answers are necessarily taken on trust and flagged unverified.
    """
    with tempfile.TemporaryDirectory(prefix="posetdim-sat-") as tmp:
        path = Path(tmp) / "instance.cnf"
        write_dimacs(cnf, path)
        if "{cnf}" in solver_command:
            command = solver_command.replace("{cnf}", str(path))
        else:
            command = f"{solver_command} {path}"
        try:
            proc = subprocess.Popen(
                shlex.split(command), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True,
            )
        except OSError as exc:
            raise SolverLaunchFailed(f"could not run {command!r}: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise SolverTimeout(f"{command!r} timed out after {timeout} s") from None
            finally:
                if proc.returncode is None:  # timed out or interrupted
                    os.killpg(proc.pid, signal.SIGKILL)
    try:
        result = parse_solver_output(stdout, cnf.num_vars)
    except UnparseableOutput as exc:
        last = (stderr.strip().splitlines() or [""])[-1]
        raise UnparseableOutput(
            f"{exc} (solver exit code {proc.returncode}, last stderr line: {last!r})"
        ) from None
    if result.status == "sat":
        if not check_model(cnf.clauses, result.assignment):
            raise ModelCheckFailed("external solver model violates a clause")
        result.model_verified = True
    return result


# ---------------------------------------------------------------------------
# decoding and the end-to-end pipeline


def decode_model(
    varmap: VarMap,
    assignment: np.ndarray | list[bool],
    p: Poset,
    d: int,
    fixed_phi: TruthTable | None = None,
    mode: str = REFLEXIVE_INCLUSIVE,
) -> BooleanRealizer:
    """Turn a satisfying assignment into a realizer and verify it; decoding
    fails hard on any mismatch, which would indicate an encoder bug or a
    tampered model."""
    n = p.n
    if (varmap.n, varmap.d) != (n, d) or (fixed_phi is None and not varmap.free_phi):
        raise DecodeInconsistent(
            f"varmap numbers n={varmap.n}, d={varmap.d}, free phi={varmap.free_phi}; "
            f"decoding needs n={n}, d={d}, free phi={fixed_phi is None}"
        )
    value = np.asarray(assignment, dtype=bool)
    # per order and pair x < y, the element placed second; an element's rank
    # is the number of pairs in which it comes second
    xs, ys = np.triu_indices(n, 1)
    second = np.where(value[varmap.order_ids()], ys, xs)
    try:
        orders = tuple(LinearOrder(rank=np.bincount(s, minlength=n)) for s in second)
    except BadParameter as exc:
        raise DecodeInconsistent(
            f"order variables do not form total orders: {exc}"
        ) from exc
    if fixed_phi is not None:
        phi = fixed_phi
    else:
        bits = value[varmap.first_phi : varmap.first_phi + (1 << d)]
        bits = bits.astype(np.uint8)
        phi = TruthTable(arity=d, bits=bits)
    realizer = BooleanRealizer(n=n, orders=orders, phi=phi)
    outcome = verify(p, realizer, mode)
    if not outcome.ok:
        raise DecodeInconsistent(
            f"decoded realizer fails verification at {outcome.counterexample}"
        )
    return realizer


@dataclass
class SearchReport:
    status: str  # "sat" | "unsat" | "unknown" | "emitted"
    realizer: BooleanRealizer | None
    num_vars: int
    num_clauses: int
    cnf_path: str | None = None
    varmap_path: str | None = None
    unsat_verified: bool = False  # unsat from the internal solver is complete
    conflicts: int = 0  # internal solver only


def search_realizer(
    p: Poset,
    d: int,
    phi: str | TruthTable = "free",
    engine: str = "internal",
    solver_command: str | None = None,
    emit_path: str | Path | None = None,
    mode: str = REFLEXIVE_INCLUSIVE,
    conflict_limit: int | None = None,
    force: bool = False,
    timeout: float | None = None,
) -> SearchReport:
    """encode -> solve -> decode -> verify, or emit the DIMACS instance.

    phi is "free" or a fixed TruthTable of arity d.  Engines: "internal"
    (bundled complete solver), "external" (solver_command required), "emit"
    (write instance plus varmap sidecar to emit_path and stop).  timeout,
    in seconds, bounds the external solver's run.  The engine and its
    arguments are checked before anything is encoded; ``force=True`` lifts
    the encoder guards.
    """
    fixed_phi = None if phi == "free" else phi
    if isinstance(fixed_phi, str):
        raise BadParameter(f"phi must be 'free' or a TruthTable, got {phi!r}")
    if engine not in ("internal", "external", "emit"):
        raise BadParameter(f"unknown engine {engine!r}")
    if engine == "external" and not solver_command:
        raise BadParameter("external engine needs solver_command")
    if engine == "emit" and not emit_path:
        raise BadParameter("emit engine needs emit_path")
    if timeout is not None and engine != "external":
        raise BadParameter("timeout applies to the external engine only")
    cnf = encode_bdim_sat(p, d, fixed_phi=fixed_phi, mode=mode, force=force)

    if engine == "emit":
        cnf_path = Path(emit_path)
        varmap_path = cnf_path.with_suffix(cnf_path.suffix + ".varmap")
        write_dimacs(cnf, cnf_path)
        varmap_path.write_text(varmap_sidecar(cnf.varmap))
        return SearchReport(
            status="emitted",
            realizer=None,
            num_vars=cnf.num_vars,
            num_clauses=len(cnf.clauses),
            cnf_path=str(cnf_path),
            varmap_path=str(varmap_path),
        )
    if engine == "internal":
        result = internal_sat_solve(cnf, conflict_limit=conflict_limit)
    else:
        result = run_external_solver(cnf, solver_command, timeout=timeout)

    realizer = None
    if result.status == "sat":
        realizer = decode_model(
            cnf.varmap, result.assignment, p, d, fixed_phi=fixed_phi, mode=mode
        )
    return SearchReport(
        status=result.status,
        realizer=realizer,
        num_vars=cnf.num_vars,
        num_clauses=len(cnf.clauses),
        unsat_verified=engine == "internal" and result.status == "unsat",
        conflicts=result.conflicts,
    )
