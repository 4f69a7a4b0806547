"""Pinned outputs of the SAT path: emitted DIMACS and varmap bytes, and the
internal solver's answers, conflict counts and models on fixed instances.

The solver's pins come in two groups.  The first holds what any complete
solver must reproduce: the sat or unsat status of each decided instance, with
a checked model on sat.  The second holds what only the DPLL of solver.py
does: its conflict counts, its models, its search tree under clause
reordering and the instances it leaves "unknown" at a conflict budget.  A
solver with another search re-pins the second group and keeps the first.

The digests and trajectories below were recorded from the list-based encoder
and solver load that preceded the array-based ones, except the B6 pin, which
is the only instance large enough to span several DIMACS write chunks and was
recorded from the index-gather writer; any change to them means the
numbering, the clause order or the search order changed.
"""

import hashlib
import itertools
import random

import numpy as np
import pytest

import posetdim as pd
from posetdim import cli
from posetdim.formats import parse_poset_spec
from posetdim.sat import CnfInstance, VarMap, check_model, internal_sat_solve
from posetdim.solver import _branch_order

EMIT_GOLDEN = [
    (
        ["boolean:4", "--d", "3"],
        "edf8e7e238a881b2d012f85e7ac640f7833ff8a1ea4a139257d21d5fea9766b6",
        "014abf9cabfa9c9176c6ef9d01f378d4d389d8a56a4b9919bdd1eb4507bdbb68",
    ),
    (
        ["standard:5", "--d", "4"],
        "9e6b655987dfae243949f983e38d3eba33494f6e78e41dbf639c3a0cb915c594",
        "07671dcd371d74e008b82edf10f9580b0a464604c11d9ce86ff50a7b090562d7",
    ),
    (
        ["boolean:3", "--d", "3", "--phi", "and"],
        "44a836680cee106a9af40c1b9c754f0d1727837ee8bb90f4474b88f236477efe",
        "a9db40f51dde47146e736982861ff4d443c89cd303803ae01bcf7128cb28e323",
    ),
    (
        ["boolean:6", "--d", "5"],
        "e87a9a512e0f0d7a924aa93e7358adc3aa429d1af50b1fdeaab877528ad91d96",
        "52059f17d98288c1294d5b692218f4051fffc0e4d6f9cda9b5f2dc64ad027a7e",
    ),
]


@pytest.mark.parametrize("args, cnf_sha, varmap_sha", EMIT_GOLDEN)
def test_emitted_bytes_pinned(tmp_path, capsys, args, cnf_sha, varmap_sha):
    out = tmp_path / "instance.cnf"
    assert cli.main(["sat", *args, "--engine", "emit", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == cnf_sha
    varmap = tmp_path / "instance.cnf.varmap"
    assert hashlib.sha256(varmap.read_bytes()).hexdigest() == varmap_sha


def _outcome(result):
    """(status, conflicts, model as a list of bools or None) of a result."""
    model = result.assignment
    return result.status, result.conflicts, None if model is None else model.tolist()


def _model_mask(assignment):
    """The model as a bit mask over 1-based variable ids, in hex."""
    return hex(sum(1 << v for v in range(1, len(assignment)) if assignment[v]))


# (spec, d, phi, conflict_limit, status, conflicts, model mask)
TRAJECTORIES = [
    ("chain:3", 1, "free", None, "sat", 0, "0x2e"),
    ("boolean:3", 3, "and", None, "sat", 2, "0x1bd7eafffe67fffffffffe"),
    ("standard:4", 4, "free", None, "sat", 0, "0x1ec5c3ffbce1c0cf7ffe4effffe7ffffe"),
    ("boolean:2", 2, "free", None, "sat", 0, "0x11bfe"),
    ("boolean:3", 2, "free", None, "unsat", 56, None),
    ("standard:4", 3, "and", None, "unsat", 4108, None),
    ("standard:5", 5, "and", 2000, "unknown", 2001, None),
]

# The rows any complete solver decides: sat or unsat, with no budget.
DECIDED = [row[:5] for row in TRAJECTORIES if row[4] != "unknown"]


def _trajectory(spec, d, phi, limit):
    """The internal solver's result on a TRAJECTORIES row's instance."""
    fixed = None if phi == "free" else pd.and_function(d)
    cnf = pd.encode_bdim_sat(parse_poset_spec(spec), d, fixed_phi=fixed)
    return internal_sat_solve(cnf, conflict_limit=limit)


def _random_cnf(rng):
    """A small CNF that often holds duplicate literals, tautologies and unit
    clauses."""
    nv = rng.randint(1, 8)
    clauses = []
    for _ in range(rng.randint(1, 20)):
        width = rng.choice((1, 1, 2, 3, 3, 4, 5))
        clause = [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(width)]
        if rng.random() < 0.15:
            clause.append(clause[0])
        if rng.random() < 0.1:
            clause.append(-clause[0])
        clauses.append(clause)
    return nv, clauses


def _reference_dpll(nv, clauses, varmap):
    """(status, conflicts, assignment) of a naive recursive DPLL with the
    internal solver's rules: each clause taken as its literal set,
    tautologies dropped; complementary unit clauses give unsat with no
    conflict; unit propagation rescans every clause to a fixpoint; branching
    follows _branch_order over the variables left, True first; a variable
    that is never assigned is True in the model."""
    sets = [s for s in map(set, clauses) if not any(-lit in s for lit in s)]
    units = {lit for s in sets if len(s) == 1 for lit in s}
    if any(-lit in units for lit in units):
        return "unsat", 0, None
    used = np.array(sorted({abs(lit) for s in sets for lit in s}), dtype=np.int64)
    order = _branch_order(varmap, used)
    conflicts = 0

    def search(true):  # true: the set of literals assigned True
        nonlocal conflicts
        while True:  # unit propagation by full clause scans
            new = set()
            for s in sets:
                if not s & true:
                    free = {lit for lit in s if -lit not in true}
                    if not free:
                        conflicts += 1
                        return None
                    if len(free) == 1:
                        new |= free
            if not new:
                break
            if any(-lit in new for lit in new):
                conflicts += 1
                return None
            true = true | new
        var = next((v for v in order if v not in true and -v not in true), None)
        if var is None:
            return true
        return search(true | {var}) or search(true | {-var})

    true = search(units)
    if true is None:
        return "unsat", conflicts, None
    return "sat", conflicts, [False, *(-v not in true for v in range(1, nv + 1))]


def _reference_cases():
    """(num_vars, clauses, varmap) of the brute-force test's instances, then
    of B3 at d = 2."""
    rng = random.Random(20261018)  # the brute-force test's instances
    cases = [(*_random_cnf(rng), VarMap()) for _ in range(400)]
    b3 = pd.encode_bdim_sat(pd.boolean_lattice(3), 2)  # pinned above: 56 conflicts
    b3_clauses = [row for block in b3.clauses.blocks for row in block.tolist()]
    cases.append((b3.num_vars, b3_clauses, b3.varmap))
    return cases


# ---------------------------------------------------------------------------
# What any complete solver must reproduce


@pytest.mark.parametrize("spec, d, phi, limit, status", DECIDED)
def test_solver_status_pinned(spec, d, phi, limit, status):
    result = _trajectory(spec, d, phi, limit)
    assert result.status == status


def test_solver_agrees_with_brute_force_on_messy_clauses():
    rng = random.Random(20261018)
    seen_marked = seen_units = 0
    for trial in range(400):
        nv, clauses = _random_cnf(rng)
        seen_marked += any(len(set(map(abs, c))) < len(c) for c in clauses)
        seen_units += any(len(c) == 1 for c in clauses)
        result = internal_sat_solve(CnfInstance(nv, clauses, VarMap()))
        brute_sat = any(
            check_model(clauses, [False, *bits])
            for bits in itertools.product((False, True), repeat=nv)
        )
        assert result.status == ("sat" if brute_sat else "unsat"), (trial, clauses)
        if brute_sat:
            assert check_model(clauses, result.assignment)
    assert seen_marked > 100 and seen_units > 100


def test_solver_status_matches_reference_dpll():
    for trial, (nv, clauses, varmap) in enumerate(_reference_cases()):
        result = internal_sat_solve(CnfInstance(nv, clauses, varmap))
        want = _reference_dpll(nv, clauses, varmap)
        assert result.status == want[0], (trial, clauses)


# ---------------------------------------------------------------------------
# What only this DPLL does: conflict counts, models, the search tree under
# clause reordering, and answers within a conflict budget


@pytest.mark.parametrize("spec, d, phi, limit, status, conflicts, mask", TRAJECTORIES)
def test_solver_trajectory_pinned(spec, d, phi, limit, status, conflicts, mask):
    result = _trajectory(spec, d, phi, limit)
    if status == "unknown":  # budget-bound: another search may decide it
        assert result.status == status
    assert result.conflicts == conflicts
    if mask is None:
        assert result.assignment is None
    else:
        assert _model_mask(result.assignment) == mask


def test_solver_matches_reference_dpll():
    seen_conflicts = 0
    for trial, (nv, clauses, varmap) in enumerate(_reference_cases()):
        result = internal_sat_solve(CnfInstance(nv, clauses, varmap))
        want = _reference_dpll(nv, clauses, varmap)
        assert _outcome(result)[1:] == want[1:], (trial, clauses)
        seen_conflicts += result.conflicts > 0
    assert seen_conflicts > 25 and result.conflicts == 56


def _wide_cnf(rng):
    """A small CNF with clause widths 1-8, so many clauses hold literals
    beyond their two watches."""
    nv = rng.randint(3, 10)
    widths = (1, 2, 3, 3, 3, 4, 5, 6, 7, 8)
    return nv, [
        [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(rng.choice(widths))]
        for _ in range(rng.randint(2, 6 * nv))
    ]


def _doubled(rng, clauses):
    """Every clause twice: the copy with its literals shuffled, and the
    copies interleaved at random with the originals."""
    copies = [rng.sample(c, len(c)) for c in clauses]
    sources = [iter(clauses), iter(copies)]
    picks = [0] * len(clauses) + [1] * len(copies)
    rng.shuffle(picks)
    return [next(sources[k]) for k in picks]


def _shuffled(rng, clauses):
    """The clauses in random order, each with its literals shuffled."""
    return rng.sample([rng.sample(c, len(c)) for c in clauses], len(clauses))


def _assert_same_search(rng, make_cnf, transform):
    # A chronological DPLL with fixed branching visits the same tree whatever
    # the clause multiset and order, because unit propagation reaches one
    # fixpoint, or a conflict, in any order.
    cases = [(*make_cnf(rng), VarMap()) for _ in range(300)]
    b3 = pd.encode_bdim_sat(pd.boolean_lattice(3), 2)  # pinned above: 56 conflicts
    b3_clauses = [row for block in b3.clauses.blocks for row in block.tolist()]
    cases.append((b3.num_vars, b3_clauses, b3.varmap))
    seen_conflicts = 0
    for trial, (nv, clauses, varmap) in enumerate(cases):
        once = internal_sat_solve(CnfInstance(nv, clauses, varmap))
        again = internal_sat_solve(CnfInstance(nv, transform(rng, clauses), varmap))
        assert _outcome(again) == _outcome(once), (trial, clauses)
        seen_conflicts += once.conflicts > 0
    assert seen_conflicts > 25 and once.conflicts == 56


def test_repeated_clauses_leave_the_search_unchanged():
    _assert_same_search(random.Random(20261019), _random_cnf, _doubled)


def test_literal_and_clause_order_leave_the_search_unchanged():
    _assert_same_search(random.Random(20261020), _wide_cnf, _shuffled)


def test_benchmark_question_pinned():
    # The paper's search: a 5-order realizer of B6 with the threshold phi, at
    # the 2,000-conflict budget the benchmark gives it.
    phi = pd.threshold_at_most_one_zero(5)
    cnf = pd.encode_bdim_sat(pd.boolean_lattice(6), 5, fixed_phi=phi)
    result = internal_sat_solve(cnf, conflict_limit=2000)
    got = (result.status, result.conflicts, result.assignment)
    assert got == ("unknown", 2001, None)
