"""One pass over a workload's job list, in a fresh process.

    python3 perfbench/passrun.py MANIFEST.json RESULT.json

The manifest names the source tree, the jobs and whether to trace.  CLI jobs
call ``posetdim.cli.main(argv)`` in process with stdout captured; search
jobs call ``search_realizer`` with a fixed conflict budget.  The result file
gets each job's wall time, exit code, stdout and verdict, the process's peak
RSS, and with tracing the spans and per-layer totals.  Checking the answers
is left to the caller, which does not trust this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_cli(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue()}


def _run_search(job: dict) -> dict:
    from posetdim import formats, realizer, sat

    p = formats.parse_poset_spec(job["poset"])
    d = job["d"]
    phi = {
        "free": lambda: "free",
        "and": lambda: realizer.and_function(d),
        "threshold": lambda: realizer.threshold_at_most_one_zero(d),
    }[job["phi"]]()
    report = sat.search_realizer(p, d, phi=phi, conflict_limit=job["conflict_limit"])
    result = {"status": report.status}
    if report.realizer is not None:
        result["certificate"] = {
            "orders": [o.sequence().tolist() for o in report.realizer.orders],
            "phi": report.realizer.phi.bits.tolist(),
        }
    return result


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    src = Path(manifest["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import posetdim
    from posetdim import cli

    if Path(posetdim.__file__).resolve().parent != src / "posetdim":
        raise SystemExit(f"posetdim imported from {posetdim.__file__}, not {src}")

    tracer = None
    if manifest["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer, layer_totals

        tracer = Tracer()

    results = []
    with tracer or contextlib.nullcontext():
        pass_start = time.perf_counter()
        for job in manifest["jobs"]:
            if tracer is not None:
                tracer.job = job["id"]
            t0 = time.perf_counter()
            try:
                if job["kind"] == "cli":
                    record = _run_cli(cli, job["argv"])
                else:
                    record = _run_search(job)
            except Exception:  # a crash is a failed job, not a failed pass
                record = {"error": traceback.format_exc(limit=3)}
            record["wall_s"] = time.perf_counter() - t0
            record["id"] = job["id"]
            results.append(record)
        pass_s = time.perf_counter() - pass_start

    out = {
        "jobs": results,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        self_s, counts, covered = layer_totals(tracer.spans)
        out.update(layer_self_s=self_s, counts=counts, covered_s=covered)
        Path(manifest["spans_out"]).write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
