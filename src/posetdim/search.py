"""Exact dimension and Boolean dimension as the least d at which the SAT
encoding of sat.py is satisfiable.

dim asks with phi fixed to AND: under AND, d orders realize p exactly when
they are linear extensions whose intersection is p.  bdim asks with phi
free.  Each d goes to the internal solver, which is complete without a
conflict budget, so an unsat answer is final; each witness comes out of
decode_model, which verifies it exhaustively.  The guards here keep a
question small enough to answer in milliseconds, and ``force=True`` lifts
them; the encoder's own guards (sat.MAX_SAT_ELEMENTS, sat.MAX_SAT_D) always
hold, so a forced search never allocates a CNF past them.
"""

from __future__ import annotations

from .errors import GuardExceeded
from .poset import LinearOrder, Poset, linear_extensions
from .realizer import (
    REFLEXIVE_INCLUSIVE,
    BooleanRealizer,
    _check_mode,
    and_function,
)
from .sat import search_realizer

MAX_DIM_ELEMENTS = 10
MAX_DIM_EXTENSIONS = 2000
MAX_BDIM_ELEMENTS = 5
MAX_BDIM_D = 3


def exact_dim(
    p: Poset, d_max: int | None = None, force: bool = False
) -> tuple[int, list[LinearOrder]] | None:
    """Smallest d such that d linear extensions intersect to exactly p,
    together with a witness family; None if d_max cuts the search short.

    The guards (MAX_DIM_ELEMENTS elements, MAX_DIM_EXTENSIONS extensions)
    fail loudly; ``force=True`` lifts both.  The extensions are counted up
    to the guard even then: the count bounds d, since all extensions
    together realize p, and a count cut at the guard still lies past
    sat.MAX_SAT_D, where the encoder stops the search.  A chain has one
    extension, which is its witness without any encoding; any other poset
    needs two orders at least, so the search starts at d = 2.
    """
    if not force and p.n > MAX_DIM_ELEMENTS:
        raise GuardExceeded(
            f"|P| = {p.n} exceeds the {MAX_DIM_ELEMENTS}-element guard"
        )
    extensions, truncated = linear_extensions(p, limit=MAX_DIM_EXTENSIONS)
    if truncated and not force:
        raise GuardExceeded(f"more than {MAX_DIM_EXTENSIONS} linear extensions")
    top = len(extensions) if d_max is None else min(d_max, len(extensions))
    if len(extensions) == 1:
        return (1, extensions) if top >= 1 else None
    for d in range(2, top + 1):
        report = search_realizer(p, d, phi=and_function(d))
        if report.status == "sat":
            return d, list(report.realizer.orders)
    return None


def exact_bdim(
    p: Poset,
    d_max: int = MAX_BDIM_D,
    mode: str = REFLEXIVE_INCLUSIVE,
    force: bool = False,
) -> tuple[int, BooleanRealizer] | None:
    """Smallest d <= d_max admitting d linear orders and a phi that realize p,
    with a verified witness; None if not found.

    The orders range over all linear orders of the ground set, not only
    linear extensions, and phi is free.  The guards (MAX_BDIM_ELEMENTS
    elements, d_max <= MAX_BDIM_D) fail loudly; ``force=True`` lifts both.
    """
    _check_mode(mode)
    if not force and p.n > MAX_BDIM_ELEMENTS:
        raise GuardExceeded(
            f"|P| = {p.n} exceeds the {MAX_BDIM_ELEMENTS}-element guard"
        )
    if not force and d_max > MAX_BDIM_D:
        raise GuardExceeded(f"d_max = {d_max} exceeds the guard of {MAX_BDIM_D}")
    for d in range(1, d_max + 1):
        report = search_realizer(p, d, mode=mode)
        if report.status == "sat":
            return d, report.realizer
    return None
