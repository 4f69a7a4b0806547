"""The internal SAT solver: a small complete DPLL for desk-scale instances.

internal_sat_solve decides a CnfInstance of sat.py and returns a SatResult;
search_realizer calls it through sat's namespace, where
``posetdim.sat.internal_sat_solve`` is bound to the same function.  This
module reads the CNF types, the helpers it shares with the DIMACS writer
(_literal_table, _largest_id, _row_slices) and the model check from sat at
call time, so either module may be imported first, and a patch of sat's
names (``sat._SLICE_ROWS``, ``sat.check_model``) reaches the solver.

What the solver keeps, whatever its search:

- the load (_solver_clauses) renumbers the variables the clauses use to
  1..k, so that the search's lists span those variables, not the largest
  id, and skips the clause copies the encoder marks (CnfInstance.copies);
  hand-built CNFs carry no mask and are loaded without comparing clauses
  with each other.  It works a slice of rows at a time, so its
  temporaries are the size of a slice, apart from its keep mask of one bool
  per clause;
- clause c watches c[0] and c[1];
- value and watches are lists indexed by literal, value[-v] being the
  complement of value[v] (negative indices wrap);
- the cyclic garbage collector is paused for the whole solve (_gc_paused);
- a sat model, a bool array indexed by variable id, is post-checked against
  every clause of the instance, copies included, before it is returned;
- exceeding conflict_limit gives status "unknown".
"""

from __future__ import annotations

import functools
import gc

import numpy as np

from . import sat


def _branch_order(varmap: sat.VarMap, used: np.ndarray) -> list[int]:
    """Deterministic branching order for the DPLL search over the variables
    in used (ascending ids).

    For realizer instances, order variables are taken pair-major (all orders
    for pair (0,1), then pair (0,2), ...) so that each pair's complete query
    tuple is decided early and the linking clauses propagate truth-table bits
    right away; the remaining variables follow in index order, which is all
    there is on instances without a varmap.
    """
    pair_major = varmap.order_ids().T.ravel()
    rest = used[used > len(pair_major)]
    return [*pair_major[np.isin(pair_major, used)].tolist(), *rest.tolist()]


def _solver_clauses(
    cnf: sat.CnfInstance,
) -> tuple[list[list[int]], list[int], np.ndarray]:
    """(clauses with two or more literals, unit literals, ascending ids of the
    variables in them), with the literals renumbered: variable used[k - 1]
    becomes k, so that the search's lists span the variables it uses, not
    the largest id.

    Clauses marked in cnf.copies are left out, and no clause is compared
    with another: an unmarked duplicate is loaded again, which changes
    neither the search nor its model.  A repeated literal is kept once (its
    first occurrence) and a tautology is dropped, so a variable that occurs
    only in tautologies is not used.

    Two passes over each block of equal width, a slice of rows at a time
    (see sat._row_slices), so each allocates per slice.  The first sorts the
    |literals| of a slice's unmarked rows to find those with a repeat, which
    are reduced on a Python path and left out of a per-clause keep mask,
    and marks the variables used.  The second gathers the kept rows as
    lists that share one int object per literal value; a block's reduced
    rows follow its other rows.  The first two literals of each list are
    its watches (see internal_sat_solve).
    """
    top = sat._largest_id(cnf.clauses.lits)
    used = np.zeros(top + 1, dtype=bool)
    keep = ~cnf.copies  # loaded as it stands
    reduced = []  # per block, its rows with a repeated variable, reduced
    end = 0  # the clause index after the block
    for block in cnf.clauses.blocks:
        end += len(block)
        reduced.append([])
        slices = zip(
            sat._row_slices(block), sat._row_slices(keep[end - len(block) : end])
        )
        for rows, keep_rows in slices:
            rows = rows[keep_rows]
            ids = np.sort(np.abs(rows), axis=1)
            repeats = (ids[:, 1:] == ids[:, :-1]).any(axis=1)
            if repeats.any():
                for row in rows[repeats].tolist():
                    lits = list(dict.fromkeys(row))
                    if not any(-lit in lits for lit in lits):  # else a tautology
                        reduced[-1].append(lits)
                        used[np.abs(lits)] = True
                keep_rows[np.flatnonzero(keep_rows)[repeats]] = False
                rows = rows[~repeats]
            used[np.abs(rows)] = True
    used = np.flatnonzero(used)
    values, position = sat._literal_table(cnf.clauses.lits)
    renumbered = np.searchsorted(used, np.abs(values)) + 1
    shared = np.where(values < 0, -renumbered, renumbered).astype(object)
    kept: list[list[int]] = []
    units: list[int] = []
    end = 0
    for block, block_reduced in zip(cnf.clauses.blocks, reduced):
        end += len(block)
        slices = zip(
            sat._row_slices(block), sat._row_slices(keep[end - len(block) : end])
        )
        for rows, keep_rows in slices:
            loaded = shared[position(rows[keep_rows])]
            if block.shape[1] == 1:  # no repeats in a single literal
                units.extend(loaded[:, 0].tolist())
            else:
                kept.extend(loaded.tolist())
        for lits in block_reduced:
            row = shared[position(np.array(lits))].tolist()
            if len(row) == 1:
                units.append(row[0])
            else:
                kept.append(row)
    return kept, units, used


def _watch_lists(clauses: list[list[int]], top: int) -> list[list[list[int]]]:
    """Watch lists indexed like the solver's value list: entry lit, for
    -top <= lit <= top (negative indices wrap), holds the clauses whose
    first two literals include lit, in clause order."""
    watches: list[list[list[int]]] = [[] for _ in range(2 * top + 1)]
    for c in clauses:
        watches[c[0]].append(c)
        watches[c[1]].append(c)
    return watches


def _gc_paused(fn):
    """Run fn with the cyclic garbage collector paused.

    The solver builds millions of small lists and makes no reference cycles
    per step, so full collections over its growing heap are pure overhead
    that grows with the instance.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


@_gc_paused
def internal_sat_solve(
    cnf: sat.CnfInstance, conflict_limit: int | None = None
) -> sat.SatResult:
    """Complete DPLL with two watched literals and chronological backtracking.

    The search runs on the clauses of _solver_clauses, so the copies the
    encoder marks are loaded once, and in its numbering, so its lists span
    the variables in those clauses, not the largest id.  Clause c watches
    c[0] and c[1]: a falsified watch is swapped into c[1] and, unless c[0]
    is true, replaced from c[2:] by a literal that is not false; failing
    that, c[0] is unit or in conflict.  value[lit] is the value of literal
    lit, so value[-v] is its complement, and watches[lit] (see _watch_lists)
    holds the clause lists themselves.
    Branching is deterministic: the variables that occur in those clauses,
    in the _branch_order sequence, True first.  The scan for the next branch
    variable never restarts: after a conflict it resumes at the position of
    the decision it flips, since every variable before that position was
    assigned before the decision and survives the backtrack.  A variable
    that occurs in no clause is set True in the model, the value that
    decision would give it.  A sat model, a bool array indexed by id, is
    post-checked against every clause of cnf, copies included, before being
    returned; exceeding conflict_limit yields status "unknown".
    """
    nvars = cnf.num_vars
    clauses, units, used = _solver_clauses(cnf)
    top = len(used)

    value = [0] * (2 * top + 1)  # value[lit]: 0 unassigned, +1 true, -1 false
    watches = _watch_lists(clauses, top)

    trail: list[int] = []
    qhead = 0
    # (trail mark, position in branch_order, flipped) of each open decision
    decisions: list[tuple[int, int, bool]] = []
    conflicts = 0
    branch_order = np.searchsorted(used, _branch_order(cnf.varmap, used)) + 1
    branch_order = branch_order.tolist()
    nbranch = len(branch_order)

    def enqueue(lit: int) -> bool:
        if value[lit]:
            return value[lit] == 1
        value[lit], value[-lit] = 1, -1
        trail.append(lit)
        return True

    for u in units:
        if not enqueue(u):
            return sat.SatResult(status="unsat")

    def propagate() -> bool:
        nonlocal qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            pending = iter(watches[falsified])
            keep = watches[falsified] = []
            for c in pending:
                if c[0] == falsified:
                    c[0], c[1] = c[1], falsified
                if value[c[0]] == 1:
                    keep.append(c)
                    continue
                for j in range(2, len(c)):
                    if value[c[j]] != -1:
                        c[1], c[j] = c[j], falsified
                        watches[c[1]].append(c)
                        break
                else:
                    keep.append(c)
                    if not enqueue(c[0]):
                        keep.extend(pending)
                        return False
        return True

    pos = 0
    while True:
        if propagate():
            while pos < nbranch and value[branch_order[pos]]:
                pos += 1
            if pos == nbranch:
                model = np.ones(nvars + 1, dtype=bool)
                model[0] = False
                model[used] = np.array(value[1 : top + 1]) != -1
                if not sat.check_model(cnf.clauses, model):
                    raise AssertionError("internal solver produced a bad model")
                return sat.SatResult(status="sat", assignment=model, conflicts=conflicts)
            decisions.append((len(trail), pos, False))
            enqueue(branch_order[pos])
        else:
            conflicts += 1
            if conflict_limit is not None and conflicts > conflict_limit:
                return sat.SatResult(status="unknown", conflicts=conflicts)
            while decisions:
                mark, pos, flipped = decisions.pop()
                for done in trail[mark:]:
                    value[done] = value[-done] = 0
                del trail[mark:]
                qhead = mark
                if not flipped:
                    decisions.append((mark, pos, True))
                    enqueue(-branch_order[pos])
                    break
            else:
                return sat.SatResult(status="unsat", conflicts=conflicts)
