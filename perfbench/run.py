"""posetdim benchmark: closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload lattice|cnf|decide --seed N \
        --seconds S --trace 0|1

Run from the repository root.  One client runs one job at a time.  Each pass
over the workload's job list runs in a fresh process; passes repeat while
one more fits in S seconds, and at least twice.  Every job's exit code, stdout bytes,
verdict and written files are checked against answers that do not come from
the code under test (see workloads.py and oracle.py).

With --trace 0 the last stdout line carries the end-to-end metrics: each
job's time is its median over the passes, and a metric sums the job times it
covers.  With --trace 1, untraced and traced passes alternate and
it carries the per-layer metrics of the traced passes, the tracing overhead
and the share of the pass no layer span covers.  Inputs, per-run records and
spans go under .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_PASSES = 2
#: Set-up probes before the passes and after them; setup_s is their median.
#: They run outside the measured seconds, so that passes get all of them.
SETUP_PROBES = 4

#: What every CLI call pays before its work starts: importing the CLI and
#: loading the bundled B6 realizer, in a fresh interpreter.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import posetdim.cli
from posetdim.formats import parse_realizer_spec
parse_realizer_spec("builtin:b6")
print(time.perf_counter() - t0)
"""

#: Per-workload names of the primary and secondary job groups.
GROUP_NAMES = {
    "lattice": ("build_upper_s", "verify_s"),
    "cnf": ("emit_s", "external_s"),
    "decide": ("hard_s", "other_s"),
}

RATES = {
    "realizer.verify.pairs_per_s": ("realizer.verify.pairs", "realizer.verify.s", 1),
    "sat.encode.clauses_per_s": ("sat.encode.clauses", "sat.encode.s", 1),
    "sat.dimacs.mb_per_s": ("sat.dimacs.bytes", "sat.dimacs.s", 1e-6),
    "sat.solve.conflicts_per_s": ("sat.solve.conflicts", "sat.solve.s", 1),
}
COUNTS = ("realizer.verify.pairs", "sat.encode.clauses", "sat.solve.conflicts")


class Context:
    """What a workload needs to prepare inputs and name files."""

    def __init__(self, seed: int, run_dir: Path, env: dict) -> None:
        self.seed = seed
        self.src = SRC
        self.prep = run_dir / "prep"
        self.prep.mkdir()
        self.env = env

    def run_prep_job(self, argv: list[str]) -> None:
        """Run one CLI call of the program to make an input; not timed."""
        job = {"id": "prep", "kind": "cli", "argv": argv}
        record = run_pass([job], False, self.prep, self.env)["jobs"][0]
        if record.get("rc") != 0:
            raise RuntimeError(f"input preparation {argv} failed: {record}")


def run_pass(jobs: list[dict], traced: bool, work: Path, env: dict) -> dict:
    manifest = {
        "src": str(SRC),
        "trace": traced,
        "spans_out": str(work / "spans.json"),
        "jobs": [{k: v for k, v in job.items() if k != "expect"} for job in jobs],
    }
    manifest_path, result_path = work / "manifest.json", work / "result.json"
    manifest_path.write_text(json.dumps(manifest))
    subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(manifest_path), str(result_path)],
        env=env, check=True, timeout=170,
    )
    return json.loads(result_path.read_text())


def probe_setup(env: dict, times: list[float]) -> None:
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(proc.stdout))


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians of self times over traced passes, counts of
    the first traced pass, rates from both."""
    from tracing import LAYERS

    def key(layer: str) -> str:
        return "cli.self.s" if layer == "cli" else f"{layer}.s"

    metrics = {
        key(layer): statistics.median(p["layer_self_s"].get(layer, 0.0) for p in traced)
        for layer in LAYERS
    }
    counts = traced[0]["counts"]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["formats.bytes"] = counts.get("formats.poset_text.bytes", 0) + counts.get(
        "formats.realizer_text.bytes", 0
    )
    for name, (count, seconds, scale) in RATES.items():
        busy = metrics[seconds]
        metrics[name] = counts.get(count, 0) * scale / busy if busy > 0 else 0.0
    run_traced = statistics.median(p["pass_s"] for p in traced)
    metrics["trace.overhead_s"] = run_traced - statistics.median(p["pass_s"] for p in untraced)
    metrics["trace.uncovered_share"] = statistics.median(
        (p["pass_s"] - p["covered_s"]) / p["pass_s"] for p in traced
    )
    return metrics


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lattice", "cnf", "decide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posetdim" / "__init__.py").is_file():
        print(f"perfbench: no posetdim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tmp = run_dir / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp))

    setup_times: list[float] = []
    probe_setup(env, setup_times)
    ctx = Context(args.seed, run_dir, env)
    workload.prepare(ctx)

    passes, works, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    last_pass_s = 0.0

    def another_fits() -> bool:
        return time.perf_counter() - start + last_pass_s <= args.seconds

    while len(passes) < MIN_PASSES or another_fits():
        pass_start = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        work = run_dir / f"pass{len(passes)}"
        work.mkdir()
        jobs = workload.jobs(ctx, work)
        result = run_pass(jobs, traced, work, env)
        result["traced"] = traced
        decided = 0
        for job, record in zip(jobs, result["jobs"], strict=True):
            attempted += 1
            problem = workloads.check_job(job, record)
            if problem is not None:
                failures.append(f"pass {len(passes)} {job['id']}: {problem}")
            elif record.get("status") in ("sat", "unsat"):
                decided += 1
        result["decided"] = decided
        passes.append(result)
        works.append(work)
        last_pass_s = time.perf_counter() - pass_start
    probe_setup(env, setup_times)
    try:
        failures += workload.check_files(ctx, works)
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed output
        failures.append(f"written files: {exc!r}")

    plain = [p for p in passes if not p["traced"]]
    decided_counts = {p["decided"] for p in passes}
    if len(decided_counts) != 1:
        failures.append(f"decided count differs between passes: {sorted(decided_counts)}")
    decided = min(decided_counts)

    # A job's time is its median over the passes, so a slow spell that hits
    # one job in one pass does not move the sums below.
    job_s = {
        job["id"]: statistics.median(r["wall_s"] for p in plain for r in p["jobs"]
                                     if r["id"] == job["id"])
        for job in jobs
    }

    def group_s(group: str) -> float:
        return sum(job_s[job["id"]] for job in jobs if job["group"] == group)

    first, second = GROUP_NAMES[args.workload]
    units = declared_units()
    summary = {
        "setup_s": statistics.median(setup_times),
        "run_s": sum(job_s.values()),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "primary_s": group_s("primary"),
        "secondary_s": group_s("secondary"),
    }
    summary = {k: (v, units[k]) for k, v in summary.items()}
    named = {
        first: (summary["primary_s"][0], "s"),
        second: (summary["secondary_s"][0], "s"),
        "decided": (decided, "count"),
        "ops_failed": (len(failures) / attempted, "share"),
    }
    if args.trace:
        values = layer_metrics([p for p in passes if p["traced"]], plain)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "conflict_budgets": {"cnf": workloads.CNF_CONFLICT_BUDGET,
                             "decide": workloads.DECIDE_CONFLICT_BUDGET},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in (summary | named).items()},
        "metrics": metrics,
        "failures": failures,
        "passes": [
            {"traced": p["traced"], "pass_s": p["pass_s"], "peak_rss_mb": p["peak_rss_mb"],
             "jobs": {r["id"]: r["wall_s"] for r in p["jobs"]}}
            for p in passes
        ],
    }
    OUT.joinpath("results").mkdir(exist_ok=True)
    (OUT / "results" / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1))
    for work in works:
        if (work / "spans.json").exists():
            (work / "spans.json").replace(OUT / "results" / f"{run_dir.name}-{work.name}-spans.json")
    shutil.rmtree(run_dir, ignore_errors=True)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    shown = metrics if args.trace else record["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']}: "
          + ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in shown.items()))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
