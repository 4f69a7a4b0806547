"""CNF encoding, the internal DPLL solver, external solver handling, and
model decoding."""

import hashlib
import itertools
import random
import stat
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import posetdim as pd
import reference_parsers as reference
from posetdim.errors import (
    BadArity,
    BadParameter,
    DecodeInconsistent,
    FixedPhiArityMismatch,
    GuardExceeded,
    ModelCheckFailed,
    ParseError,
    SolverLaunchFailed,
    SolverTimeout,
    ToolkitError,
    UnparseableOutput,
)
from posetdim.formats import parse_poset_spec
from posetdim.realizer import DISTINCT_ONLY, REFLEXIVE_INCLUSIVE
from posetdim.sat import (
    ClauseArray,
    CnfInstance,
    VarMap,
    _dimacs_chunks,
    _literal_table,
    check_model,
    internal_sat_solve,
    parse_dimacs,
    parse_solver_output,
    to_dimacs,
    varmap_sidecar,
    write_dimacs,
)
from posetdim.solver import _solver_clauses


class TestEncoding:
    def test_b2_d2_counts(self):
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(2), 2)
        assert cnf.num_vars == 2 * 6 + 4
        trans = 2 * 4 * 3 * 2
        linking = 12 * 4
        assert len(cnf.clauses) == trans + linking + 1

    def test_variable_numbering_pinned(self):
        cnf = pd.encode_bdim_sat(pd.chain(3), 2)
        lines = varmap_sidecar(cnf.varmap).splitlines()
        assert lines[0] == "var 1 order 1 before 0 1"
        assert lines[1] == "var 2 order 1 before 0 2"
        assert lines[2] == "var 3 order 1 before 1 2"
        assert lines[3] == "var 4 order 2 before 0 1"
        assert lines[6] == "var 7 phi 0"
        assert lines[9] == "var 10 phi 3"
        assert cnf.varmap.order_ids().tolist() == [[1, 2, 3], [4, 5, 6]]
        assert cnf.varmap.first_phi == 7

    def test_fixed_phi_drops_phi_vars(self):
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(2), 2, fixed_phi=pd.and_function(2))
        assert cnf.num_vars == 12
        lines = varmap_sidecar(cnf.varmap).splitlines()
        assert len(lines) == 12 and all(" order " in ln for ln in lines)

    def test_fixed_phi_blocking_counts(self):
        # with AND: a pair needing 1 blocks the 2**d - 1 non-top tuples,
        # a pair needing 0 blocks only the all-ones tuple
        p = pd.boolean_lattice(2)
        cnf = pd.encode_bdim_sat(p, 2, fixed_phi=pd.and_function(2))
        trans = 2 * 24
        need_one = int(p.leq.sum()) - p.n
        need_zero = p.n * (p.n - 1) - need_one
        assert len(cnf.clauses) == trans + need_one * 3 + need_zero * 1

    def test_one_element_trivial(self):
        cnf = pd.encode_bdim_sat(pd.chain(1), 1)
        result = internal_sat_solve(cnf)
        assert result.status == "sat"

    def test_arity_mismatch(self):
        with pytest.raises(FixedPhiArityMismatch):
            pd.encode_bdim_sat(pd.chain(2), 2, fixed_phi=pd.and_function(3))

    def test_guards(self):
        with pytest.raises(GuardExceeded):
            pd.encode_bdim_sat(pd.chain(2), 9)
        with pytest.raises(GuardExceeded):
            pd.encode_bdim_sat(pd.boolean_lattice(8), 2)

    def test_force_lifts_guards(self):
        cnf = pd.encode_bdim_sat(pd.chain(2), 9, force=True)
        assert cnf.num_vars == 9 + 2**9 and len(cnf.clauses) == 1025
        assert pd.encode_bdim_sat(pd.chain(129), 1, force=True).num_vars == 129 * 64 + 2

    def test_force_keeps_arity_cap(self):
        # d = 17 has no truth table; reject it before encoding, even with force.
        with pytest.raises(BadArity):
            pd.encode_bdim_sat(pd.chain(2), 17, force=True)
        with pytest.raises(BadArity):
            pd.search_realizer(pd.chain(2), 17, force=True)

    def test_reflexive_conflict_with_fixed_phi(self):
        phi = pd.TruthTable(arity=1, bits=np.array([1, 0], np.uint8))
        cnf = pd.encode_bdim_sat(pd.chain(2), 1, fixed_phi=phi)
        assert internal_sat_solve(cnf).status == "unsat"
        assert varmap_sidecar(cnf.varmap) == (
            "var 1 order 1 before 0 1\nvar 2 aux reflexive-conflict\n"
        )


def _loop_encode(p, d, fixed_phi, mode):
    """Clause lists built one literal at a time: the reference the array
    encoder must match clause for clause."""
    n = p.n
    pairs = n * (n - 1) // 2
    rank = {(x, y): r for r, (x, y) in enumerate(
        (x, y) for x in range(n) for y in range(x + 1, n))}

    def before(i, x, y):
        return 1 + i * pairs + rank[(x, y)] if x < y else -before(i, y, x)

    phi_base = 1 + d * pairs
    clauses = []
    for i in range(d):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if len({x, y, z}) == 3:
                        clauses.append(
                            [-before(i, x, y), -before(i, y, z), before(i, x, z)]
                        )
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            need = bool(p.leq[x, y])
            for t in range(1 << d):
                lits = [-before(i, x, y) if (t >> i) & 1 else before(i, x, y)
                        for i in range(d)]
                if fixed_phi is None:
                    clauses.append(lits + [phi_base + t if need else -(phi_base + t)])
                elif fixed_phi.value_at(t) != need:
                    clauses.append(lits)
    top = (1 << d) - 1
    if mode == REFLEXIVE_INCLUSIVE:
        if fixed_phi is None:
            clauses.append([phi_base + top])
        elif not fixed_phi.value_at(top):
            clauses.extend([[phi_base], [-phi_base]])
    return clauses


class TestAgainstLoopReference:
    @pytest.mark.parametrize("spec", ["chain:1", "chain:3", "antichain:3",
                                      "boolean:2", "standard:3", "grid:2x3"])
    @pytest.mark.parametrize("mode", [REFLEXIVE_INCLUSIVE, DISTINCT_ONLY])
    def test_encoder_matches_loop_encoder(self, spec, mode):
        p = parse_poset_spec(spec)
        for d in (1, 2, 3):
            zero = pd.TruthTable(arity=d, bits=np.zeros(1 << d, np.uint8))
            for phi in (None, pd.and_function(d), pd.threshold_at_most_one_zero(d),
                        zero):
                cnf = pd.encode_bdim_sat(p, d, fixed_phi=phi, mode=mode)
                want = _loop_encode(p, d, phi, mode)
                assert cnf.clauses == ClauseArray.from_lists(want), (d, phi)

    def test_check_model_matches_loop_check(self):
        import random

        rng = random.Random(3)
        outcomes = set()
        for _ in range(300):
            nv = rng.randint(1, 5)
            clauses = [
                [rng.choice((1, -1)) * rng.randint(1, nv)
                 for _ in range(rng.randint(0, 3))]  # an empty clause is false
                for _ in range(rng.randint(0, 4))
            ]
            model = [False] + [rng.random() < 0.5 for _ in range(nv)]
            want = all(any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses)
            assert check_model(clauses, model) == want, (clauses, model)
            outcomes.add(want)
        assert outcomes == {True, False}


class TestInternalSolver:
    def test_empty_instance(self):
        result = internal_sat_solve(CnfInstance(0, [], VarMap()))
        assert result.status == "sat" and result.assignment.tolist() == [False]

    def test_contradictory_units(self):
        cnf = CnfInstance(1, [[1], [-1]], VarMap())
        assert internal_sat_solve(cnf).status == "unsat"

    def test_simple_sat(self):
        cnf = CnfInstance(2, [[1, 2], [-1, 2], [-2, 1]], VarMap())
        result = internal_sat_solve(cnf)
        assert result.status == "sat"
        assert check_model(cnf.clauses, result.assignment)

    def test_pigeonhole_unsat(self):
        # 3 pigeons, 2 holes
        var = lambda p, h: p * 2 + h + 1
        clauses = [[var(p, 0), var(p, 1)] for p in range(3)]
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append([-var(p1, h), -var(p2, h)])
        assert internal_sat_solve(CnfInstance(6, clauses, VarMap())).status == "unsat"

    def test_conflict_limit(self):
        var = lambda p, h: p * 3 + h + 1
        clauses = [[var(p, 0), var(p, 1), var(p, 2)] for p in range(4)]
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    clauses.append([-var(p1, h), -var(p2, h)])
        result = internal_sat_solve(CnfInstance(12, clauses, VarMap()), conflict_limit=2)
        assert result.status == "unknown"

    @pytest.mark.parametrize("clauses", [[[3]], [[1, -3]], [[3, -3]], [[1, 0, 2]]])
    def test_variable_above_num_vars_rejected(self, clauses):
        with pytest.raises(BadParameter):
            internal_sat_solve(CnfInstance(2, clauses, VarMap()))

    @pytest.mark.parametrize("clauses", [[[]], [[1], []]])
    def test_empty_clause_rejected_at_construction(self, clauses):
        with pytest.raises(BadParameter, match="empty clause"):
            CnfInstance(2, clauses, VarMap())
        assert not check_model(clauses, [False, True, True])

    def test_b3_and_roundtrip(self):
        p = pd.boolean_lattice(3)
        cnf = pd.encode_bdim_sat(p, 3, fixed_phi=pd.and_function(3))
        result = internal_sat_solve(cnf)
        assert result.status == "sat"
        realizer = pd.decode_model(
            cnf.varmap, result.assignment, p, 3, fixed_phi=pd.and_function(3)
        )
        assert pd.verify(p, realizer).ok

    def test_agrees_with_exhaustive_truth(self):
        import itertools
        import random

        rng = random.Random(123)
        for trial in range(150):
            nv = rng.randint(1, 6)
            clauses = []
            for _ in range(rng.randint(1, 12)):
                clause = [
                    v if rng.random() < 0.5 else -v
                    for v in (rng.randint(1, nv) for _ in range(rng.randint(1, 3)))
                ]
                clauses.append(clause)
            cnf = CnfInstance(nv, clauses, VarMap())
            res = internal_sat_solve(cnf)
            brute_sat = any(
                check_model(clauses, [False] + [bool(b) for b in bits])
                for bits in itertools.product((0, 1), repeat=nv)
            )
            assert (res.status == "sat") == brute_sat, (trial, clauses)
            if res.status == "sat":
                assert check_model(clauses, res.assignment)


def _load(cnf):
    """_solver_clauses of cnf, with its renumbered literals mapped back to
    variable ids."""
    kept, units, used = _solver_clauses(cnf)
    back = lambda lit: int(used[abs(lit) - 1]) * (1 if lit > 0 else -1)
    return [[back(lit) for lit in c] for c in kept], [back(u) for u in units], used


class TestSolverLoad:
    @pytest.mark.parametrize(
        "spec, d, phi, distinct",
        [("boolean:4", 3, None, 5281), ("boolean:6", 5, "threshold", 450142)],
    )
    def test_distinct_clause_counts(self, spec, d, phi, distinct):
        fixed = pd.threshold_at_most_one_zero(d) if phi else None
        cnf = pd.encode_bdim_sat(parse_poset_spec(spec), d, fixed_phi=fixed)
        kept, units, used = _load(cnf)
        assert len(kept) + len(units) == distinct
        assert min(map(len, kept)) >= 2
        assert used.tolist() == list(range(1, cnf.num_vars + 1))

    def test_copies_with_repeated_literals(self):
        # Without a mask each clause is reduced on its own: a repeated
        # literal is kept once (its first occurrence), and copies stay.
        clauses = [
            [1, 2, 2], [2, 1],  # a reduced clause and a plain copy of it
            [6, 7], [7, 7, 6],
            [1, 1, 2, -3], [-3, 2, 1], [2, -3, 1, -3],
            [5, 5], [5],  # a reduced unit and its copy
            [4, -4, 8], [8, 4, -4],  # tautologies
        ]
        cnf = CnfInstance(8, clauses, VarMap())
        kept, units, used = _load(cnf)
        # each run of equal width: its plain rows, then its reduced ones
        assert kept == [
            [1, 2], [2, 1], [6, 7], [7, 6], [1, 2, -3], [-3, 2, 1], [2, -3, 1]
        ]
        assert units == [5, 5]
        assert used.tolist() == [1, 2, 3, 5, 6, 7]
        # 4 and 8 occur only in tautologies, so 5, 6 and 7 become 4, 5 and 6
        assert _solver_clauses(cnf)[:2] == (
            [[1, 2], [2, 1], [5, 6], [6, 5], [1, 2, -3], [-3, 2, 1], [2, -3, 1]],
            [4, 4],
        )

    def test_marked_copies_are_left_out(self):
        clauses = [[3, 1, 2], [4, -5], [1, 2, 3], [-5, 4], [2, 3, 1], [6, 7], [2]]
        copies = np.array([False, False, True, True, True, False, False])
        kept, units, used = _load(CnfInstance(7, clauses, VarMap(), copies))
        assert kept == [[3, 1, 2], [4, -5], [6, 7]] and units == [2]
        assert used.tolist() == [1, 2, 3, 4, 5, 6, 7]
        # a variable that occurs only in marked rows is not used
        copies = np.array([False, True, True, True, True, False, False])
        kept, units, used = _load(CnfInstance(7, clauses, VarMap(), copies))
        assert kept == [[3, 1, 2], [6, 7]] and used.tolist() == [1, 2, 3, 6, 7]

    @pytest.mark.parametrize(
        "copies",
        [np.zeros(2, dtype=bool), np.zeros(4, dtype=bool), np.zeros(3, dtype=int),
         [False, False, False], np.zeros((3, 1), dtype=bool)],
    )
    def test_malformed_mask_rejected(self, copies):
        with pytest.raises(BadParameter):
            CnfInstance(3, [[1], [2, 3], [-1]], VarMap(), copies)

    def test_matches_a_set_based_reference(self):
        # Without a mask every clause is loaded on its own: repeats merged,
        # tautologies dropped, permuted copies kept.
        rng = random.Random(20261019)
        for trial in range(200):
            nv = rng.randint(1, 20)
            lit = lambda: rng.choice((1, -1)) * rng.randint(1, nv)
            base = [
                [lit() for _ in range(rng.randint(1, 14))]
                for _ in range(rng.randint(1, 30))
            ]
            copies = [rng.sample(c, len(c)) for c in rng.sample(base, len(base) // 2)]
            clauses = rng.sample(base + copies, len(base) + len(copies))
            want_kept, want_units = [], []
            for c in clauses:
                lits = list(dict.fromkeys(c))
                if not any(-lit in lits for lit in lits):
                    (want_units if len(lits) == 1 else want_kept).append(lits)
            kept, units, used = _load(CnfInstance(nv, clauses, VarMap()))
            assert sorted(kept) == sorted(want_kept), (trial, clauses)
            assert sorted(units) == sorted(u for (u,) in want_units), (trial, clauses)
            want_used = {abs(lit) for c in want_kept + want_units for lit in c}
            assert used.tolist() == sorted(want_used)

    def test_used_variables_across_long_runs(self):
        # Clauses sorted by width form long runs of equal width, as the
        # encoder's do, with permuted copies among them; variables past nv
        # occur only in tautologies, which are dropped, so they are unused.
        rng = random.Random(20261018)
        for trial in range(100):
            nv = rng.randint(1, 12)
            lit = lambda: rng.choice((1, -1)) * rng.randint(1, nv)
            base = [
                [lit() for _ in range(rng.choice((1, 2, 3, 6)))]
                for _ in range(rng.randint(1, 60))
            ]
            copies = [rng.sample(c, len(c)) for c in rng.sample(base, len(base) // 2)]
            tautologies = [[v, -v, lit()] for v in range(nv + 1, nv + 4)]
            clauses = sorted(base + copies + tautologies, key=len)
            want = {
                abs(x) for c in clauses if not any(-y in c for y in c) for x in c
            }
            used = _solver_clauses(CnfInstance(nv + 3, clauses, VarMap()))[2]
            assert used.tolist() == sorted(want), (trial, clauses)

    def test_search_lists_span_the_used_variables(self):
        # Two variables occur; the model's 2,000,001 bytes and the used mask
        # are the only costs that grow with the largest id (a traced peak of
        # about 3 MB).
        cnf = parse_dimacs("p cnf 2000000 2\n1 2000000 0\n-1 0\n")
        tracemalloc.start()
        try:
            result = internal_sat_solve(cnf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == "sat" and result.conflicts == 0
        assert not result.assignment[1] and all(result.assignment[2:])
        assert peak < 8 << 20

    def test_unconstrained_variables_are_true_in_bounded_memory(self):
        import tracemalloc

        cnf = parse_dimacs("p cnf 1000000 1\n1 0\n")
        tracemalloc.start()
        try:
            result = internal_sat_solve(cnf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == "sat" and result.conflicts == 0
        assert len(result.assignment) == 1_000_001 and all(result.assignment[1:])
        assert result.assignment.dtype == bool
        assert peak < 4 << 20  # the model's 1 MB; about 1 MB in all


def _encoder_cases():
    """Encoder instances over small families (n from 1 to 9), d 1..4, free
    and fixed phi, both modes; the phi with phi(1, ..., 1) = 0 gives the
    reflexive-conflict aux clauses in reflexive mode."""
    specs = ["chain:1", "chain:2", "antichain:2", "boolean:1", "chain:4",
             "antichain:3", "boolean:2", "boolean:3", "standard:3", "grid:2x3"]
    for spec in specs:
        p = parse_poset_spec(spec)
        for d in range(1, 5):
            zero_top = pd.TruthTable(arity=d, bits=np.eye(1, 1 << d, 0, np.uint8)[0])
            fixed = [pd.and_function(d), pd.threshold_at_most_one_zero(d), zero_top]
            for phi in [None, *fixed]:
                for mode in (REFLEXIVE_INCLUSIVE, DISTINCT_ONLY):
                    yield spec, pd.encode_bdim_sat(p, d, fixed_phi=phi, mode=mode)


class TestEncoderCopies:
    def test_mask_marks_exactly_the_repeated_clauses(self):
        seen_copies = seen_aux = 0
        for spec, cnf in _encoder_cases():
            seen, want = set(), []
            for clause in _clause_lists(cnf.clauses):
                key = frozenset(clause)
                want.append(key in seen)
                seen.add(key)
            assert cnf.copies.tolist() == want, (spec, cnf.varmap)
            seen_copies += any(want)
            seen_aux += bool(cnf.varmap.aux)
        assert seen_copies > 100 and seen_aux > 10

    @pytest.mark.parametrize(
        "spec, d, phi, limit, status",
        [
            ("boolean:3", 2, None, None, "unsat"),
            ("boolean:4", 3, None, 300, "unknown"),
            ("boolean:3", 3, "and", None, "sat"),
        ],
    )
    def test_clearing_the_mask_leaves_the_search(self, spec, d, phi, limit, status):
        fixed = pd.and_function(d) if phi else None
        cnf = pd.encode_bdim_sat(parse_poset_spec(spec), d, fixed_phi=fixed)
        once = internal_sat_solve(cnf, conflict_limit=limit)
        cnf.copies = np.zeros(len(cnf.clauses), dtype=bool)
        again = internal_sat_solve(cnf, conflict_limit=limit)
        assert once.status == status and once.conflicts > 0
        model = lambda r: None if r.assignment is None else r.assignment.tolist()
        assert (again.status, again.conflicts, model(again)) == (
            once.status, once.conflicts, model(once)
        )


def _clause_lists(clauses):
    """The clauses of a ClauseArray as int lists, in clause order."""
    return [row for block in clauses.blocks for row in block.tolist()]


def _offsets(clauses):
    """int64 start of each clause in lits, then len(lits)."""
    widths = [np.full(len(block), block.shape[1]) for block in clauses.blocks]
    return np.concatenate([[0], *widths]).cumsum()


def _traced_peak(fn, *args):
    """(fn(*args), peak traced allocation in bytes while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_extra(fn, *args):
    """Peak traced allocation while fn(*args) ran, less what its result (and
    anything else it left) still holds, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


def _little_endian_sha(a):
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()


# SHA-256 of the little-endian bytes of the B6, d = 5 instance's lits,
# clause offsets (now rebuilt from the block shapes) and copies, recorded
# from the encoder that stacked per-order blocks and concatenated them.
B6_D5_ARRAYS = {
    "free": (
        "c78b774ec81484ac893b5df30f635e79ff90a8a7505ab5f6cdc9cad92668bd87",
        "617875bd918734001eed62b24c8e4f45a6eed5b09b89e1af380bd19621bdb0c9",
        "96c8261fb096681a6d67fb5661771e8ac9b7c573a22050929e8e13f7a793e1e1",
    ),
    "threshold": (
        "b96806d6381438edd01b51e4138606aab540f1256ef43cfd3f147b683fa611f4",
        "79b3bab0d54ed3dc483b141605dc2af752467582dc1bf7c1f74eeba734638648",
        "858b28b7c02fd0ea2fe4713ccaa3425060aa1b4805f03bd0fac222b77a0491ec",
    ),
}


class TestB6Encoding:
    @pytest.mark.parametrize("phi", sorted(B6_D5_ARRAYS))
    def test_arrays_pinned(self, phi):
        fixed = None if phi == "free" else pd.threshold_at_most_one_zero(5)
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(6), 5, fixed_phi=fixed)
        arrays = (cnf.clauses.lits, _offsets(cnf.clauses), cnf.copies)
        assert [a.dtype for a in arrays] == [np.int32, np.int64, bool]
        assert tuple(map(_little_endian_sha, arrays)) == B6_D5_ARRAYS[phi]

    def test_encoder_peak(self):
        # The 17.3 MiB of literals and the 1.3 MiB copies mask are allocated
        # once, with no per-clause offsets; the transitivity rows of one
        # first element and the linking rows of one slice of pairs come on
        # top.
        _, peak = _traced_peak(pd.encode_bdim_sat, pd.boolean_lattice(6), 5)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("phi, limit", [("free", 5), ("threshold", 3)])
    def test_encoder_builds_no_instance_sized_temporary(self, phi, limit):
        # Peak minus what the instance holds: about 0.6 MB with phi free
        # and 0.4 MB with threshold phi, against 8.9 and 7.6 MB when order
        # 0's triples were gathered at once.
        fixed = None if phi == "free" else pd.threshold_at_most_one_zero(5)
        extra = _traced_extra(pd.encode_bdim_sat, pd.boolean_lattice(6), 5, fixed)
        assert extra < limit * 10**6

    def test_solver_load_builds_no_instance_sized_temporary(self):
        # Peak minus the loaded lists: the keep mask (one bool per clause)
        # and the literal table, about 2.1 MB, against 8.5 MB when the
        # unmarked rows of each block were copied and kept until the gather.
        fixed = pd.threshold_at_most_one_zero(5)
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(6), 5, fixed_phi=fixed)
        assert _traced_extra(_solver_clauses, cnf) < 3 * 10**6

    def test_check_model_peak(self):
        # A model that satisfies every clause, so that every slice is read.
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(6), 5)
        r = pd.b6_realizer()
        xs, ys = np.triu_indices(r.n, 1)
        model = np.zeros(cnf.num_vars + 1, dtype=bool)
        for ids, order in zip(cnf.varmap.order_ids(), r.orders):
            model[ids] = order.rank[xs] < order.rank[ys]
        model[cnf.varmap.first_phi :] = r.phi.bits
        ok, peak = _traced_peak(check_model, cnf.clauses, model)
        assert ok and peak < 4 * 2**20
        model[cnf.varmap.first_phi + 31] = False  # phi(1, ..., 1) must be 1
        assert not check_model(cnf.clauses, model)


def _reference_load(clauses):
    """The clause lists and units _solver_clauses loads from a CNF with no
    marked copies, in its order but not renumbered: each run of equal width
    gives its rows without a repeated variable, then its other rows with
    each repeat kept once and tautologies dropped."""
    kept, units = [], []
    for width, run in itertools.groupby(clauses, len):
        run = list(run)
        plain = [c for c in run if len({abs(x) for x in c}) == width]
        reduced = [list(dict.fromkeys(c)) for c in run if c not in plain]
        for c in plain + [c for c in reduced if not any(-x in c for x in c)]:
            (units.append(c[0]) if len(c) == 1 else kept.append(c))
    return kept, units


class TestRowSlices:
    """Every CNF pass works a slice of _SLICE_ROWS rows at a time; where the
    slices fall must not change a literal, a mark or a loaded list."""

    ENCODED = [
        ("boolean:6", 5, "free"),
        ("boolean:6", 5, "threshold"),
        ("standard:5", 4, "free"),
        ("boolean:3", 3, "and"),
    ]

    @staticmethod
    def _encode(spec, d, phi):
        fixed = {
            "free": None,
            "threshold": pd.threshold_at_most_one_zero(d),
            "and": pd.and_function(d),
        }[phi]
        return pd.encode_bdim_sat(parse_poset_spec(spec), d, fixed_phi=fixed)

    @pytest.mark.parametrize("spec, d, phi", ENCODED)
    def test_encoder_arrays_at_every_slice_size(self, monkeypatch, spec, d, phi):
        want = self._encode(spec, d, phi)
        for rows in (1, 7):
            monkeypatch.setattr(pd.sat, "_SLICE_ROWS", rows)
            cnf = self._encode(spec, d, phi)
            assert np.array_equal(cnf.clauses.lits, want.clauses.lits), rows
            assert np.array_equal(cnf.clauses.runs, want.clauses.runs), rows
            assert np.array_equal(cnf.copies, want.copies), rows

    @pytest.mark.parametrize("spec, d, phi", ENCODED[2:])
    def test_solver_load_at_every_slice_size(self, monkeypatch, spec, d, phi):
        cnf = self._encode(spec, d, phi)
        kept, units, used = _solver_clauses(cnf)
        for rows in (1, 7):
            monkeypatch.setattr(pd.sat, "_SLICE_ROWS", rows)
            again = _solver_clauses(cnf)
            assert (again[0], again[1]) == (kept, units), rows
            assert np.array_equal(again[2], used), rows

    def test_parsed_repeats_and_tautologies_at_every_slice_size(self, monkeypatch):
        # Runs of widths 3, 2 and 4 whose rows repeat a variable (a clause
        # that loses a literal; a width-2 clause that becomes a unit) or
        # hold a variable and its negation, spread over slice edges.
        rng = random.Random(20261019)
        clauses = []
        for width in (3, 2, 4):
            for _ in range(40):
                c = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(width)]
                clauses.append(c)
        text = f"p cnf 12 {len(clauses)}\n"
        text += "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
        cnf = parse_dimacs(text)
        want_kept, want_units = _reference_load(clauses)
        reduced = [c for c in clauses if len({abs(x) for x in c}) < len(c)]
        assert {len(c) for c in reduced} == {2, 3, 4} and want_units
        assert any(-x in c for c in reduced for x in c)  # a tautology
        for rows in (1, 7, pd.sat._SLICE_ROWS):
            monkeypatch.setattr(pd.sat, "_SLICE_ROWS", rows)
            kept, units, used = _load(cnf)
            assert (kept, units) == (want_kept, want_units), rows
            want_used = {abs(x) for c in want_kept for x in c} | set(map(abs, want_units))
            assert used.tolist() == sorted(want_used), rows


class TestDecodeModel:
    def test_hand_built_chain_model(self):
        p = pd.chain(2)
        cnf = pd.encode_bdim_sat(p, 1)
        # var 1: "0 before 1"; phi vars 2 (index 0) and 3 (index 1)
        assignment = [False, True, False, True]
        realizer = pd.decode_model(cnf.varmap, assignment, p, 1)
        assert list(realizer.orders[0].sequence()) == [0, 1]
        assert list(realizer.phi.bits) == [0, 1]

    def test_tampered_assignment_rejected(self):
        p = pd.chain(3)
        cnf = pd.encode_bdim_sat(p, 1)
        result = internal_sat_solve(cnf)
        assert result.status == "sat"
        tampered = list(result.assignment)
        tampered[1] = not tampered[1]
        with pytest.raises(DecodeInconsistent):
            pd.decode_model(cnf.varmap, tampered, p, 1)


def _junk_line(text):
    """One line of free text that is no "p" header, so nothing is sized by
    a number in it."""
    return len(text.splitlines()) <= 1 and not text.strip().startswith("p")


@st.composite
def small_dimacs_texts(draw):
    """A DIMACS document over at most 8 variables and 12 clauses, often well
    formed, with literals out of range, empty clauses, wrong clause counts,
    broken or second headers, comments and junk lines at random."""
    nv = draw(st.integers(-1, 8))
    top = max(nv, 1) + draw(st.sampled_from((0, 0, 0, 1)))  # nv + 1 is out of range
    lit = st.builds(int.__mul__, st.sampled_from((1, -1)), st.integers(1, top))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4), max_size=12))
    count = len(clauses) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    lines = [f"p cnf {nv} {count}"]
    lines += [" ".join(map(str, [*c, 0])) for c in clauses]
    edits = st.sampled_from((0, 0, 0, 1, 2))  # most documents keep their lines
    headers = st.builds(
        "p {} {} {}".format,
        st.sampled_from(("cnf", "cnf", "dnf")),
        st.integers(0, 8),
        st.one_of(st.integers(0, 12), st.just("x")),
    )
    junk = st.one_of(st.text(max_size=16), st.sampled_from(("c note", "0", "1 x 0")))
    for _ in range(min(draw(edits), len(lines))):
        del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(edits)):
        lines.insert(draw(st.integers(0, len(lines))), draw(headers))
    for _ in range(draw(edits)):
        line = draw(junk)
        if _junk_line(line):
            lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@st.composite
def small_solver_outputs(draw):
    """Solver output: "s" lines well formed, unknown or broken, "v" lines
    with literals in and out of range and the odd bad token, comments and
    junk, in random order."""
    tags = ["SATISFIABLE"] * 3 + ["UNSATISFIABLE", "UNKNOWN", "UNKNOWN timeout", "sat"]
    lines = [f"s {tag}" for tag in draw(st.lists(st.sampled_from(tags), max_size=2))]
    for _ in range(draw(st.integers(0, 3))):
        tokens = draw(st.lists(st.integers(-12, 12).map(str), max_size=6))
        if draw(st.integers(0, 7)) == 0:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.text(max_size=3)))
        lines.append(" ".join(["v", *tokens]))
    junk = st.one_of(st.text(max_size=16), st.just("c note"))
    lines += draw(st.lists(junk, max_size=2))
    return "\n".join(draw(st.permutations(lines)))


def _solver_outcome(parse, text, num_vars):
    """(status, assignment as a list or None), or the class and message of
    the error raised."""
    try:
        result = parse(text, num_vars)
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)
    assignment = result.assignment
    assert assignment is None or assignment.dtype == bool
    return result.status, None if assignment is None else assignment.tolist()


class TestDimacsFormats:
    def test_round_trip(self):
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(2), 1)
        parsed = parse_dimacs(to_dimacs(cnf))
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses

    def test_dimacs_shape(self):
        cnf = CnfInstance(2, [[1, -2]], VarMap())
        assert to_dimacs(cnf) == "p cnf 2 1\n1 -2 0\n"

    def test_sidecar_lines(self):
        cnf = pd.encode_bdim_sat(pd.chain(2), 1)
        lines = varmap_sidecar(cnf.varmap).splitlines()
        assert lines[0] == "var 1 order 1 before 0 1"
        assert lines[1] == "var 2 phi 0"
        assert lines[2] == "var 3 phi 1"

    def test_sparse_ids_round_trip(self):
        cnf = CnfInstance(3_000_000, [[2_999_999, -1], [7]], VarMap())
        text = to_dimacs(cnf)
        assert text == "p cnf 3000000 2\n2999999 -1 0\n7 0\n"
        assert parse_dimacs(text).clauses == cnf.clauses

    def test_lone_large_id_gets_a_sparse_table(self):
        assert len(_literal_table(np.array([65536], dtype=np.int32))[0]) == 2
        cnf = CnfInstance(65536, [[65536]], VarMap())
        assert to_dimacs(cnf) == "p cnf 65536 1\n65536 0\n"

    @pytest.mark.parametrize("body", ["1 0\n0\n", "0\n1 0\n", "1 0 0\n"])
    def test_parse_rejects_an_empty_clause(self, body):
        with pytest.raises(ParseError, match="empty clause"):
            parse_dimacs("p cnf 1 2\n" + body)

    @pytest.mark.parametrize("body", ["1 5 0\n", "5 1 0\n", "-1 -3 0\n"])
    def test_parse_rejects_out_of_range_literal(self, body):
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs("p cnf 2 1\n" + body)

    def test_parse_rejects_bad_counts_and_tokens(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs("p cnf -1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf x 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 y 0\n")

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p dnf 1 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_parse_rejects_a_second_header(self):
        # Literal 5 is checked against the first header; the second must not
        # shrink num_vars under it.
        with pytest.raises(ParseError, match="second DIMACS header"):
            parse_dimacs("p cnf 5 1\n5 0\np cnf 1 1\n")
        with pytest.raises(ParseError, match="second DIMACS header"):
            parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")

    @settings(max_examples=300)
    @given(small_dimacs_texts(), st.integers(0, 511))
    @example("p cnf 5 1\n5 0\np cnf 1 1\n", 0b100000)
    def test_small_texts_parse_or_raise_toolkit_errors(self, text, mask):
        try:
            cnf = parse_dimacs(text)
        except ToolkitError:
            return
        assert 0 <= cnf.num_vars <= 8
        again = parse_dimacs(to_dimacs(cnf))
        assert again.num_vars == cnf.num_vars and again.clauses == cnf.clauses
        model = [bool(mask >> v & 1) for v in range(cnf.num_vars + 1)]
        want = all(
            any(model[abs(lit)] == (lit > 0) for lit in clause)
            for clause in _clause_lists(cnf.clauses)
        )
        assert check_model(cnf.clauses, model) == want

    @settings(max_examples=300)
    @given(small_solver_outputs(), st.integers(0, 8))
    def test_small_outputs_parse_or_raise_toolkit_errors(self, text, num_vars):
        want = _solver_outcome(reference.parse_solver_output, text, num_vars)
        assert _solver_outcome(parse_solver_output, text, num_vars) == want
        try:
            result = parse_solver_output(text, num_vars)
        except ToolkitError:
            return
        assert result.status in ("sat", "unsat", "unknown")
        if result.status == "sat":
            assert result.assignment.dtype == bool
            assert len(result.assignment) == num_vars + 1
        else:
            assert result.assignment is None

    def test_solver_output_parsing(self):
        result = parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2 0\n", 2)
        assert result.status == "sat"
        assert result.assignment.tolist() == [False, True, False]
        assert parse_solver_output("s UNSATISFIABLE\n", 2).status == "unsat"
        with pytest.raises(UnparseableOutput):
            parse_solver_output("no result here\n", 2)
        with pytest.raises(UnparseableOutput):
            parse_solver_output("s SATISFIABLE\nv 1 x 0\n", 2)


class TestSolverOutputDifferential:
    """parse_solver_output against the token-by-token reference parser, on
    bodies chosen for the edges of its one-call read; the small outputs of
    TestDimacsFormats are checked against it too."""

    # int() reads "+3", "1_0" and the Arabic-Indic three; the 25-digit
    # literals saturate numpy's int64 read and are ignored as out of range,
    # while int() refuses 5000 digits; "1-2" would read as two numbers in a
    # numpy call.
    BODIES = [
        "1 -2 3", "+3", "1_0", "\u0663", "-0", "-0 -3", "007 -02",
        "9" * 25, "-" + "9" * 25, "9" * 5000, str(2**63 - 1), str(-(2**63)),
        str(2**64 + 3), str(-(2**64 + 3)), "1-2", "--1", "- 1", "1 -", "-",
        "1\t-2", "1\xa0-2", "1  -2   3", "",
    ]

    @pytest.mark.parametrize("status", ["SATISFIABLE", "UNSATISFIABLE", None])
    def test_bodies_match_the_reference(self, status):
        s_line = [] if status is None else [f"s {status}"]
        for body in self.BODIES:
            texts = [
                "\n".join([*s_line, f"v {body} 0"]),
                "\n".join([f"v {body}", "v 4", "v", *s_line, "v -1 0"]),  # v before s
                "\n".join([*s_line, "v", "v 2 -3", f"v {body}"]),  # a bare v
            ]
            for text in texts:
                want = _solver_outcome(reference.parse_solver_output, text, 5)
                assert _solver_outcome(parse_solver_output, text, 5) == want, body[:40]

    def test_b6_model_matches_the_reference(self):
        # The shape a real solver prints: 10,080 signed literals, 20 per line.
        rng = np.random.default_rng(6)
        lits = (np.arange(1, 10_081) * rng.choice([-1, 1], size=10_080)).tolist()
        lines = [" ".join(map(str, lits[k : k + 20])) for k in range(0, len(lits), 20)]
        text = "s SATISFIABLE\n" + "".join(f"v {line}\n" for line in lines) + "v 0\n"
        want = _solver_outcome(reference.parse_solver_output, text, 10_080)
        assert _solver_outcome(parse_solver_output, text, 10_080) == want
        assert want[1][1:] == [lit > 0 for lit in lits]


def _naive_dimacs(num_vars, clauses):
    """Reference DIMACS text, one str.join per clause."""
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {num_vars} {len(clauses)}\n{body}"


def _random_clauses(rng, top):
    """Interleaved runs of equal-width clauses (widths 1-17) over ids up to
    top, drawn from a small pool so that literals repeat within clauses."""
    pool = rng.integers(1, top + 1, size=int(rng.integers(1, 40))).tolist()
    pool.append(top)
    clauses = []
    for _ in range(int(rng.integers(1, 12))):
        width = int(rng.integers(1, 18))
        for _ in range(int(rng.integers(1, 20))):
            ids = rng.choice(pool, size=width).tolist()
            signs = rng.choice([-1, 1], size=width).tolist()
            clauses.append([s * v for s, v in zip(signs, ids)])
    return clauses


class TestDimacsWriter:
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16, pd.sat._SLICE_ROWS])
    def test_matches_naive_writer(self, monkeypatch, chunk):
        monkeypatch.setattr(pd.sat, "_SLICE_ROWS", chunk)
        rng = np.random.default_rng(20261018)
        # Ids up to 1 << 16 take the dense literal table; up to 2**31 - 1
        # (12-byte tokens such as "-2147483647 ") the sparse one.  The widest
        # tokens of 999_999 and 1_000_000, "-999999 " and "-1000000 ", fill
        # an 8-byte slot and need a 16-byte one.
        tops = [1, 9, 999, 2**31 - 1] * 25 + [1 << 16] * 3 + [999_999, 1_000_000] * 5
        for top in tops:
            clauses = _random_clauses(rng, top) + [[-top]]
            cnf = CnfInstance(top, clauses, VarMap())
            assert to_dimacs(cnf) == _naive_dimacs(top, clauses)

    def test_zero_clauses(self):
        assert to_dimacs(CnfInstance(5, [], VarMap())) == "p cnf 5 0\n"
        assert to_dimacs(CnfInstance(0, [], VarMap())) == "p cnf 0 0\n"

    def test_write_dimacs_same_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        for k, top in enumerate([3, 1 << 16, 999_999, 1_000_000, 2**31 - 1]):
            cnf = CnfInstance(top, _random_clauses(rng, top) + [[-top]], VarMap())
            write_dimacs(cnf, tmp_path / f"{k}.cnf")
            assert (tmp_path / f"{k}.cnf").read_bytes() == to_dimacs(cnf).encode()

    @pytest.mark.parametrize("rows", [1, 7, pd.sat._SLICE_ROWS])
    def test_last_slice_partly_fills_the_buffers(self, monkeypatch, rows):
        # A block reuses one index buffer and one slot buffer for all its
        # slices; a last slice shorter than the others must write its own
        # rows only, not those the slice before left in the buffers.
        monkeypatch.setattr(pd.sat, "_SLICE_ROWS", rows)
        rng = np.random.default_rng(rows)
        for top in (9, 2**31 - 1):  # 8-byte slots, a dense table; 16, sparse
            for width in (3, 4):
                ids = rng.integers(1, 10, size=(5_000, width)) * (top // 9)
                clauses = (ids * rng.choice([-1, 1], size=ids.shape)).tolist()
                cnf = CnfInstance(top, clauses, VarMap())
                chunks = list(_dimacs_chunks(cnf))
                assert b"".join(chunks).decode() == _naive_dimacs(top, clauses)
                lines = [chunk.count(b"\n") for chunk in chunks[1:]]  # past the header
                assert set(lines[:-1]) == {lines[0]} and lines[0] <= rows
                assert lines[-1] < lines[0] or rows == 1

    def test_b6_write_peak_bounded(self, tmp_path):
        # Chunk-sized gathers only: the writer walks the instance's blocks,
        # with no int64 width per clause (about 10 MB for B6's 1,287,412
        # clauses).
        cnf = pd.encode_bdim_sat(pd.boolean_lattice(6), 5)
        tracemalloc.start()
        try:
            write_dimacs(cnf, tmp_path / "b6.cnf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_blocks_are_maximal_views(self):
        rng = np.random.default_rng(20261019)
        cases = [[], [[1]], [[1, 2]] * 3] + [_random_clauses(rng, 9) for _ in range(40)]
        for clauses in cases:
            want = [list(group) for _, group in itertools.groupby(clauses, len)]
            arr = ClauseArray.from_lists(clauses)
            assert [block.tolist() for block in arr.blocks] == want
            widths = [block.shape[1] for block in arr.blocks]
            assert all(a != b for a, b in zip(widths, widths[1:]))
            assert all(np.shares_memory(block, arr.lits) for block in arr.blocks)
            assert len(arr) == len(clauses)

    def test_runs_held_as_int_pairs(self):
        # 400,000 clauses of alternating widths 2 and 3 make 400,000 runs;
        # each is held as one (clauses, width) row, not as a view of lits.
        lits = np.tile(np.array([1, -2, -1, 2, 3], np.int32), 200_000)
        runs = np.tile(np.array([[1, 2], [1, 3]]), (200_000, 1))
        tracemalloc.start()
        try:
            cnf = CnfInstance(3, ClauseArray.from_runs(lits, runs), VarMap())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 16 * 2**20 and len(cnf.clauses) == 400_000
        parsed = parse_dimacs("p cnf 3 400000\n" + "1 -2 0\n-1 2 3 0\n" * 200_000)
        assert parsed.clauses == cnf.clauses

    @pytest.mark.parametrize("window", [1, 2, 5, 1 << 16, pd.sat._SLICE_ROWS])
    def test_width_runs_across_windows(self, monkeypatch, window):
        # Slice edges fall inside blocks, at their ends and on one-clause
        # blocks; the text written and the model check must not change.
        monkeypatch.setattr(pd.sat, "_SLICE_ROWS", window)
        rng = np.random.default_rng(window)
        cases = [[], [[1]], [[1, 2]] * 3] + [_random_clauses(rng, 9) for _ in range(40)]
        for clauses in cases:
            cnf = CnfInstance(9, clauses, VarMap())
            want = [list(group) for _, group in itertools.groupby(clauses, len)]
            assert [block.tolist() for block in cnf.clauses.blocks] == want
            lines = [" ".join(map(str, c + [0])) for c in clauses]
            text = "".join(f"{line}\n" for line in [f"p cnf 9 {len(clauses)}"] + lines)
            assert to_dimacs(cnf) == text
            value = rng.integers(0, 2, size=10).astype(bool)
            sat = all(any(value[abs(x)] == (x > 0) for x in c) for c in clauses)
            assert check_model(cnf.clauses, value) == sat

    @pytest.mark.parametrize(
        "spec, d, phi, width",
        [
            ("boolean:3", 2, None, 3),  # transitivity and linking, width 3
            ("boolean:3", 3, "and", 3),
            ("chain:2", 1, "zero_top", 1),  # linking and the conflict units
        ],
    )
    def test_adjacent_runs_of_one_width_merge(self, spec, d, phi, width):
        fixed = None
        if phi == "and":
            fixed = pd.and_function(d)
        elif phi == "zero_top":
            fixed = pd.TruthTable(arity=d, bits=np.array([1, 0], np.uint8))
        cnf = pd.encode_bdim_sat(parse_poset_spec(spec), d, fixed_phi=fixed)
        shapes = [block.shape for block in cnf.clauses.blocks]
        merged = len(cnf.clauses) - (phi is None)  # all but the reflexive unit
        assert shapes[0] == (merged, width) and len(shapes) == 1 + (phi is None)
        parsed = parse_dimacs(to_dimacs(cnf))
        assert parsed.clauses == cnf.clauses


def _script(tmp_path, name, body):
    """Executable Python script that imports the posetdim under test."""
    src = str(Path(pd.__file__).resolve().parent.parent)
    header = f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {src!r})\n"
    path = tmp_path / name
    path.write_text(header + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def _running(pid):
    """Whether pid names a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestExternalSolver:
    def test_launch_failure(self):
        cnf = pd.encode_bdim_sat(pd.chain(2), 1)
        with pytest.raises(SolverLaunchFailed):
            pd.run_external_solver(cnf, "/no/such/solver {cnf}")

    def test_real_model_accepted(self, tmp_path):
        script = _script(
            tmp_path,
            "goodsolver.py",
            """
            import sys
            from posetdim.sat import parse_dimacs, internal_sat_solve
            cnf = parse_dimacs(open(sys.argv[1]).read())
            res = internal_sat_solve(cnf)
            if res.status == "sat":
                lits = [v if res.assignment[v] else -v
                        for v in range(1, cnf.num_vars + 1)]
                print("s SATISFIABLE")
                print("v " + " ".join(map(str, lits)) + " 0")
            else:
                print("s UNSATISFIABLE")
            """,
        )
        p = pd.standard_example(2)
        cnf = pd.encode_bdim_sat(p, 2)
        result = pd.run_external_solver(cnf, f"{sys.executable} {script} {{cnf}}")
        assert result.status == "sat" and result.model_verified
        realizer = pd.decode_model(cnf.varmap, result.assignment, p, 2)
        assert pd.verify(p, realizer).ok

    def test_broken_model_rejected(self, tmp_path):
        script = _script(
            tmp_path,
            "liar.py",
            """
            print("s SATISFIABLE")
            print("v 1 2 0")
            """,
        )
        cnf = CnfInstance(2, [[-1, -2]], VarMap())
        with pytest.raises(ModelCheckFailed):
            pd.run_external_solver(cnf, f"{sys.executable} {script} {{cnf}}")

    @pytest.mark.parametrize("num_vars, clauses", [(1, [[1, 2]]), (3, [[1, 0, 2]])])
    def test_bad_literal_reaches_no_writer_and_no_solver(
        self, monkeypatch, num_vars, clauses
    ):
        # Written out, these were a DIMACS text that parse_dimacs rejects, or
        # one with more clauses than its header; the model check of a sat
        # answer raised IndexError.
        def unreachable(*args, **kwargs):
            raise AssertionError("an instance with a bad literal was written")

        monkeypatch.setattr(pd.sat, "write_dimacs", unreachable)
        monkeypatch.setattr(pd.sat.subprocess, "Popen", unreachable)
        with pytest.raises(BadParameter):
            cnf = CnfInstance(num_vars, clauses, VarMap())
            pd.run_external_solver(cnf, "solver {cnf}")

    def test_unsat_taken_on_trust(self, tmp_path):
        script = _script(tmp_path, "naysayer.py", 'print("s UNSATISFIABLE")\n')
        cnf = CnfInstance(1, [[1]], VarMap())
        result = pd.run_external_solver(cnf, f"{sys.executable} {script} {{cnf}}")
        assert result.status == "unsat" and not result.model_verified

    def test_failed_solver_reports_exit_code_and_stderr(self):
        cnf = CnfInstance(1, [[1]], VarMap())
        with pytest.raises(UnparseableOutput) as info:
            pd.run_external_solver(
                cnf, "sh -c 'echo ignored >&2; echo boom >&2; exit 3'"
            )
        message = str(info.value)
        assert "no recognizable 's' result line" in message
        assert "exit code 3" in message and "'boom'" in message
        assert "ignored" not in message

    def test_garbage_output(self, tmp_path):
        script = _script(tmp_path, "mumbler.py", 'print("hello world")\n')
        cnf = CnfInstance(1, [[1]], VarMap())
        with pytest.raises(UnparseableOutput):
            pd.run_external_solver(cnf, f"{sys.executable} {script} {{cnf}}")

    def test_timeout_stops_the_solver(self, tmp_path):
        script = _script(tmp_path, "sleeper.py", "import time\ntime.sleep(60)\n")
        cnf = CnfInstance(1, [[1]], VarMap())
        command = f"{sys.executable} {script} {{cnf}}"
        started = time.perf_counter()
        with pytest.raises(SolverTimeout, match="timed out after 0.5 s"):
            pd.run_external_solver(cnf, command, timeout=0.5)
        assert time.perf_counter() - started < 30
        with pytest.raises(SolverTimeout):
            pd.search_realizer(pd.chain(2), 1, engine="external",
                               solver_command=command, timeout=0.5)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_timeout_stops_a_wrapped_solver(self, tmp_path):
        # The wrapper shell starts the solver as its child and waits for it.
        pidfile = tmp_path / "child.pid"
        command = f"sh -c 'sleep 30 & echo $! > {pidfile}; wait' {{cnf}}"
        cnf = CnfInstance(1, [[1]], VarMap())
        with pytest.raises(SolverTimeout):
            pd.run_external_solver(cnf, command, timeout=0.5)
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)


class TestSearchRealizer:
    @pytest.mark.parametrize(
        "kwargs",
        [{"engine": "bogus"}, {"engine": "external"}, {"engine": "emit"},
         {"engine": "emit", "emit_path": ""}],
    )
    def test_engine_arguments_checked_before_encoding(self, kwargs):
        # B8 with d = 9 would trip both encoder guards
        with pytest.raises(BadParameter):
            pd.search_realizer(pd.boolean_lattice(8), 9, **kwargs)

    @pytest.mark.parametrize("engine", ["internal", "emit"])
    def test_timeout_needs_the_external_engine(self, tmp_path, engine):
        with pytest.raises(BadParameter, match="timeout"):
            pd.search_realizer(pd.boolean_lattice(8), 9, engine=engine,
                               emit_path=tmp_path / "x.cnf", timeout=1.0)

    def test_s4_free_phi(self):
        p = pd.standard_example(4)
        report = pd.search_realizer(p, 4)
        assert report.status == "sat"
        assert report.realizer.d == 4
        assert pd.verify(p, report.realizer).ok

    def test_b2_d1_unsat(self):
        report = pd.search_realizer(pd.boolean_lattice(2), 1)
        assert report.status == "unsat" and report.unsat_verified
        assert report.conflicts == 1

    def test_chain_d1(self):
        report = pd.search_realizer(pd.chain(3), 1)
        assert report.status == "sat"

    def test_emit_only(self, tmp_path):
        out = tmp_path / "instance.cnf"
        report = pd.search_realizer(
            pd.boolean_lattice(2), 2, engine="emit", emit_path=out
        )
        assert report.status == "emitted"
        cnf = parse_dimacs(out.read_text())
        assert cnf.num_vars == report.num_vars == 16
        sidecar = (tmp_path / "instance.cnf.varmap").read_text().splitlines()
        assert sidecar[0] == "var 1 order 1 before 0 1"
        assert len(sidecar) == 16
        # the emitted instance is solvable and decodes to a verified realizer
        result = internal_sat_solve(cnf)
        assert result.status == "sat"

    def test_emitted_fixed_phi_instance_solves_and_decodes(self, tmp_path):
        p = pd.boolean_lattice(3)
        out = tmp_path / "b3.cnf"
        report = pd.search_realizer(
            p, 3, phi=pd.and_function(3), engine="emit", emit_path=out
        )
        cnf = pd.encode_bdim_sat(p, 3, fixed_phi=pd.and_function(3))
        assert parse_dimacs(out.read_text()).clauses == cnf.clauses
        result = internal_sat_solve(cnf)
        realizer = pd.decode_model(
            cnf.varmap, result.assignment, p, 3, fixed_phi=pd.and_function(3)
        )
        assert pd.verify(p, realizer).ok

    def test_modes_differ_on_antichain(self):
        p = pd.antichain(2)
        assert pd.search_realizer(p, 1, mode=REFLEXIVE_INCLUSIVE).status == "unsat"
        assert pd.search_realizer(p, 1, mode=DISTINCT_ONLY).status == "sat"
