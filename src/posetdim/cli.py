"""Batch command-line interface.

Results go to stdout and are byte-deterministic across runs; timings and
progress go to stderr.  Exit codes: 0 success/verified, 1 verification
failed or unsat where sat was required, 2 usage error, 3 I/O or parse
error, 4 guard exceeded, solver failure or solver timeout.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import bounds as bounds_mod
from .errors import (
    DecodeInconsistent,
    GuardExceeded,
    ModelCheckFailed,
    ParseError,
    SizeMismatch,
    SolverLaunchFailed,
    SolverTimeout,
    ToolkitError,
    UnparseableOutput,
    UsageError,
)
from .formats import (
    family_grid_params,
    parse_poset_spec,
    parse_realizer_spec,
    serialize_poset,
    serialize_realizer,
)
from .poset import boolean_lattice, element_label
from .realizer import (
    DISTINCT_ONLY,
    REFLEXIVE_INCLUSIVE,
    and_function,
    from_extensions,
    upper_bound_realizer,
    verify,
)
from .search import MAX_BDIM_D, exact_bdim, exact_dim
from .sat import search_realizer

_MODE_FLAGS = {"reflexive": REFLEXIVE_INCLUSIVE, "distinct": DISTINCT_ONLY}


def _bits(query: tuple[int, ...]) -> str:
    return "".join(str(b) for b in query)


def _elapsed(t0: float) -> None:
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        start, end = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected A or A:B") from exc
    if end < start:
        raise UsageError(f"range {text!r} ends below its start")
    return range(start, end + 1)


def cmd_verify(args: argparse.Namespace) -> int:
    p = parse_poset_spec(args.poset)
    r = parse_realizer_spec(args.realizer)
    mode = _MODE_FLAGS[args.mode]
    t0 = time.perf_counter()
    outcome = verify(p, r, mode=mode, threads=args.threads)
    _elapsed(t0)
    if outcome.ok:
        print(f"ok: {outcome.pairs_checked} ordered pairs checked (mode={mode})")
        return 0
    c = outcome.counterexample
    print(
        f"counterexample: x={c.x} ({element_label(p, c.x)}) "
        f"y={c.y} ({element_label(p, c.y)}) "
        f"tuple={_bits(c.query)} expected={int(c.expected)} got={int(c.got)}"
    )
    return 1


def cmd_build_upper(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    r = upper_bound_realizer(args.n)
    outcome = verify(boolean_lattice(args.n), r)
    _elapsed(t0)
    if not outcome.ok:
        print(f"verification failed: {outcome.counterexample}")
        return 1
    _write_out(serialize_realizer(r), args.out)
    if args.out is not None:
        print(f"n={args.n} d={r.d} verified=ok out={args.out}")
    else:
        print(f"n={args.n} d={r.d} verified=ok", file=sys.stderr)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    n_range = _parse_range(args.n)
    m_range = _parse_range(args.m)
    # _parse_range returns no empty range; checked before the header, so a
    # usage error prints nothing
    if n_range[0] < 1:
        raise UsageError("bounds need n >= 1")
    if m_range[0] < 1:
        raise UsageError("bounds need m >= 1")
    header = (
        f"{'n':>4} {'m':>4} {'|D|':>6} {'raw_bound':>12} "
        f"{'int_bound':>9}  {'formula':<12} {'min_m':>8}"
    )
    print(header)
    for n in n_range:
        min_m = str(bounds_mod.min_multiplicity_for_target(n, n)) if n >= 2 else "-"
        for m in m_range:
            report = (
                bounds_mod.lat_lower_bound(n)
                if m == 2
                else bounds_mod.mn_lower_bound(n, m)
            )
            d_size = n * (m - 1)
            print(
                f"{n:>4} {m:>4} {d_size:>6} {report.raw:>12.6f} "
                f"{report.integer_bound:>9}  {report.formula:<12} {min_m:>8}"
            )
    return 0


def cmd_signatures(args: argparse.Namespace) -> int:
    p = parse_poset_spec(args.poset)
    r = parse_realizer_spec(args.realizer)
    if r.n != p.n:
        raise SizeMismatch(f"realizer on {r.n} elements vs poset on {p.n}")
    if args.dset == "singletons":
        params = family_grid_params(args.poset)
        if params is None:
            raise UsageError(
                "--dset singletons needs a boolean:<n> or grid:<n>x<m> poset spec"
            )
        d_set = bounds_mod.singletons_of_grid(*params)
    elif args.dset.strip() == "":
        d_set = []
    else:
        try:
            d_set = [int(tok) for tok in args.dset.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --dset {args.dset!r}") from exc

    if not d_set:
        print("degenerate: empty distinguishing set; all signatures empty")
        return 1
    sig = bounds_mod.signature_map(list(r.orders), d_set)
    collision = bounds_mod.signature_collision(sig)
    if collision is None:
        print(f"injective ({p.n} distinct signatures, |D|={len(set(d_set))})")
        return 0
    x, y = collision
    sig_text = "(" + ",".join(str(v) for v in sig[x]) + ")"
    print(
        f"collision: x={x} ({element_label(p, x)}) "
        f"y={y} ({element_label(p, y)}) signature={sig_text}"
    )
    return 1


def cmd_exact(args: argparse.Namespace) -> int:
    if args.d_max is not None and args.d_max < 0:
        raise UsageError(f"--d-max must be >= 0: {args.d_max}")
    p = parse_poset_spec(args.poset)
    mode = _MODE_FLAGS[args.mode]
    t0 = time.perf_counter()
    if args.what == "dim":
        d_max = args.d_max
        result = exact_dim(p, d_max=d_max, force=args.force)
    else:
        d_max = args.d_max if args.d_max is not None else MAX_BDIM_D
        result = exact_bdim(p, d_max=d_max, mode=mode, force=args.force)
    _elapsed(t0)
    if result is None:
        print(f"not found within d_max={d_max}")
        return 1
    d, witness = result
    print(f"{args.what}={d}")
    if args.out is not None:
        realizer = from_extensions(p, witness) if args.what == "dim" else witness
        _write_out(serialize_realizer(realizer), args.out)
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        raise UsageError(f"--timeout must be a positive number: {args.timeout}")
    p = parse_poset_spec(args.poset)
    mode = _MODE_FLAGS[args.mode]
    phi = "free" if args.phi == "free" else and_function(args.d)
    t0 = time.perf_counter()
    report = search_realizer(
        p,
        args.d,
        phi=phi,
        engine=args.engine,
        solver_command=args.solver,
        emit_path=args.out if args.engine == "emit" else None,
        mode=mode,
        force=args.force,
        timeout=args.timeout,
    )
    _elapsed(t0)
    if report.status == "emitted":
        print(
            f"emitted: vars={report.num_vars} clauses={report.num_clauses} "
            f"cnf={report.cnf_path} varmap={report.varmap_path}"
        )
        return 0
    if report.status == "sat":
        print(f"sat: d={args.d} verified realizer")
        if args.engine != "emit" and args.out:
            _write_out(serialize_realizer(report.realizer), args.out)
        return 0
    if report.status == "unsat":
        note = "" if report.unsat_verified else " (external answer, unverified)"
        print(f"unsat: d={args.d}{note}")
        return 1
    print("unknown: solver gave no answer")
    return 4


def cmd_dump(args: argparse.Namespace) -> int:
    if args.name.startswith("builtin:"):
        text = serialize_realizer(parse_realizer_spec(args.name))
    else:
        text = serialize_poset(parse_poset_spec(args.name))
    _write_out(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetdim",
        description="Finite posets, Boolean realizers, bounds, and realizer search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p_: argparse.ArgumentParser) -> None:
        p_.add_argument(
            "--mode",
            choices=sorted(_MODE_FLAGS),
            default="reflexive",
            help="verification mode (default: reflexive)",
        )

    p_verify = sub.add_parser("verify", help="check a realizer against a poset")
    p_verify.add_argument("poset", help="family spec (boolean:6, ...) or file path")
    p_verify.add_argument("realizer", help="builtin:b6 or a realizer file path")
    add_mode(p_verify)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_build = sub.add_parser(
        "build-upper", help="build the ceil(5n/6)-order Boolean-lattice realizer"
    )
    p_build.add_argument("n", type=int)
    p_build.add_argument("--out", default=None, help="realizer file path")
    p_build.set_defaults(func=cmd_build_upper)

    p_bounds = sub.add_parser("bounds", help="print the lower-bound table")
    p_bounds.add_argument("--n", required=True, help="range A or A:B")
    p_bounds.add_argument("--m", default="2", help="range A or A:B (default 2)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sig = sub.add_parser("signatures", help="signature injectivity report")
    p_sig.add_argument("poset")
    p_sig.add_argument("realizer")
    p_sig.add_argument(
        "--dset",
        default="singletons",
        help="'singletons' or a comma-separated index list (default: singletons)",
    )
    p_sig.set_defaults(func=cmd_signatures)

    p_exact = sub.add_parser("exact", help="brute-force exact dim or bdim")
    p_exact.add_argument("poset")
    p_exact.add_argument("what", choices=("dim", "bdim"))
    p_exact.add_argument("--d-max", type=int, default=None)
    add_mode(p_exact)
    p_exact.add_argument("--force", action="store_true", help="lift search guards")
    p_exact.add_argument("--out", default=None, help="write the witness realizer")
    p_exact.set_defaults(func=cmd_exact)

    p_sat = sub.add_parser("sat", help="SAT-based realizer search")
    p_sat.add_argument("poset")
    p_sat.add_argument("--d", type=int, required=True)
    p_sat.add_argument("--phi", choices=("free", "and"), default="free")
    p_sat.add_argument(
        "--engine", choices=("internal", "external", "emit"), default="internal"
    )
    p_sat.add_argument("--solver", default=None, help="command with {cnf} placeholder")
    p_sat.add_argument(
        "--timeout", type=float, default=None, help="seconds the external solver may run"
    )
    p_sat.add_argument("--out", default=None, help="realizer path, or CNF path for emit")
    add_mode(p_sat)
    p_sat.add_argument("--force", action="store_true", help="lift encoder guards")
    p_sat.set_defaults(func=cmd_sat)

    p_dump = sub.add_parser("dump", help="export a builtin realizer or named poset")
    p_dump.add_argument("name", help="builtin:b6 or a poset family spec")
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(func=cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, SizeMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        GuardExceeded,
        SolverLaunchFailed,
        SolverTimeout,
        UnparseableOutput,
        ModelCheckFailed,
        DecodeInconsistent,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ToolkitError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
