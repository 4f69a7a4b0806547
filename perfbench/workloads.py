"""The three workloads: their inputs, job lists and expected answers.

A workload writes its inputs once per run from the seed (``prepare``), gives
the job list of one pass with every job's expected answer (``jobs``), and
checks the files the passes wrote (``check_files``).  Expected answers come
from ``oracle``, never from the code under test.  Jobs in the ``primary``
and ``secondary`` groups are timed separately; the groups are named in each
workload's docstring.
"""

from __future__ import annotations

import hashlib
import random
import shlex
import sys
from pathlib import Path

import numpy as np

import oracle

#: Conflict budgets of the internal solver.  Fixed so that runs compare.
CNF_CONFLICT_BUDGET = 2000
DECIDE_CONFLICT_BUDGET = 20000

#: Random posets per decide pass, and the cap on their linear extensions
#: that keeps brute-force exact dimension to milliseconds.  Only posets of
#: dimension 2 are kept: the DPLL solver does not decide some 3-dimensional
#: ones at d = 3 within the budget, which would make the decided count depend
#: on the seed.  The fixed hard instances carry the undecided questions.
RANDOM_POSETS = 4
RANDOM_MAX_EXTENSIONS = 48

#: Search questions, as (poset, d, phi), that this version of the solver does
#: not decide within its budget.  Every other search question must be
#: answered: "unknown" on it is a failed job, so a solver that gives up
#: earlier cannot pass.  A solver that also answers these still passes.
UNDECIDED = frozenset({
    ("boolean:6", 5, "threshold"),
    ("standard:5", 5, "and"), ("standard:6", 6, "and"), ("standard:7", 7, "and"),
    ("standard:8", 8, "and"), ("boolean:4", 4, "and"), ("standard:5", 4, "and"),
})


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_job(job_id: str, argv: list[str], stdout: str, rc: int = 0, group=None) -> dict:
    return {"id": job_id, "kind": "cli", "argv": argv, "group": group,
            "expect": {"rc": rc, "stdout": stdout}}


def search_job(job_id: str, poset: str, d: int, phi: str, budget: int, answer: str,
               leq: np.ndarray, group=None) -> dict:
    """A search_realizer question whose answer ("sat" or "unsat") is known;
    leq is the reference relation a sat certificate must realize."""
    return {"id": job_id, "kind": "search", "poset": poset, "d": d, "phi": phi,
            "conflict_limit": budget, "group": group,
            "expect": {"answer": answer, "leq": leq,
                       "may_be_unknown": (poset, d, phi) in UNDECIDED}}


def check_job(job: dict, record: dict) -> str | None:
    """Why the job's outcome is wrong, or None when it is right."""
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    want = job["expect"]
    if job["kind"] == "cli":
        if record["rc"] != want["rc"] or record["stdout"] != want["stdout"]:
            return f"rc={record['rc']} stdout={record['stdout'][:200]!r}"
        return None
    status = record["status"]
    if status not in ("sat", "unsat", "unknown"):
        return f"status {status!r}"
    if status == "unknown":
        if want["may_be_unknown"]:
            return None
        return f"undecided within {job['conflict_limit']} conflicts"
    if status != want["answer"]:
        return f"answered {status}, known answer is {want['answer']}"
    if status == "sat":
        cert = record["certificate"]
        phi = np.array(cert["phi"], dtype=np.uint8)
        d = job["d"]
        fixed = {"and": oracle.and_bits, "threshold": oracle.threshold_bits}
        if job["phi"] in fixed and not np.array_equal(phi, fixed[job["phi"]](d)):
            return "certificate phi differs from the fixed phi"
        leq = want["leq"]
        seqs = [np.array(s) for s in cert["orders"]]
        if len(seqs) != d or not oracle.realizes(
            leq.shape[0], oracle.matrix_rows(leq), seqs, phi
        ):
            return "certificate does not realize the poset"
    return None


#: (spec, what, extra flags, answer) of the ``exact`` CLI jobs, each a few
#: milliseconds: dim from theory; in reflexive mode bdim is 1 exactly for
#: chains and at most dim; with distinct pairs only, one order and a
#: constant-0 phi realize an antichain.
EXACT = (
    ("standard:3", "dim", (), 3), ("boolean:3", "dim", (), 3),
    ("grid:2x3", "dim", (), 2), ("chain:5", "dim", (), 1),
    ("antichain:4", "dim", (), 2), ("boolean:2", "bdim", (), 2),
    ("chain:3", "bdim", (), 1), ("antichain:2", "bdim", (), 2),
    ("antichain:2", "bdim", ("--mode", "distinct"), 1),
    ("standard:2", "bdim", (), 2),
)


def exact_jobs() -> list[dict]:
    return [cli_job(f"exact-{spec}-{what}{''.join(flags)}", ["exact", spec, what, *flags],
                    f"{what}={answer}\n")
            for spec, what, flags, answer in EXACT]


class Lattice:
    """One user session on Boolean lattices through the CLI.

    primary: ``build-upper 13``; secondary: the verify jobs.  The ``exact``
    jobs of ``decide`` ride along, so that the ``search`` layer is measured
    by the workloads BENCHMARK.json lists.
    """

    name = "lattice"

    def prepare(self, ctx) -> None:
        rng = random.Random(f"lattice-{ctx.seed}")
        b12 = ctx.prep / "b12.realizer"
        ctx.run_prep_job(["build-upper", "12", "--out", str(b12)])
        n, seqs, phi = oracle.parse_realizer_text(b12.read_text())
        if not oracle.realizes(n, oracle.lattice_rows(12), seqs, phi):
            raise ValueError("build-upper 12 wrote a realizer that fails the reference check")
        self.b12_sha = _sha(b12)

        relabel = list(range(n))
        rng.shuffle(relabel)
        perm = np.array(relabel)
        (ctx.prep / "b12_relabelled.poset").write_text(oracle.lattice_poset_text(12, relabel))
        (ctx.prep / "b12_relabelled.realizer").write_text(
            oracle.realizer_text([perm[s] for s in seqs], phi)
        )
        tampered, self.counterexample = oracle.tamper_adjacent_swaps(12, seqs, phi, rng)
        (ctx.prep / "b12_tampered.realizer").write_text(oracle.realizer_text(tampered, phi))
        self.dump_sha = hashlib.sha256(oracle.lattice_poset_text(12).encode()).hexdigest()

    def jobs(self, ctx, work: Path) -> list[dict]:
        ok = oracle.verify_ok_line
        jobs = []
        for n in (11, 12, 13):
            out = str(work / f"b{n}.realizer")
            jobs.append(cli_job(
                f"build-upper-{n}", ["build-upper", str(n), "--out", out],
                f"n={n} d={oracle.ceil_5n_6(n)} verified=ok out={out}\n",
                group="primary" if n == 13 else None,
            ))
        b13 = str(work / "b13.realizer")
        jobs += [
            cli_job("verify-b6", ["verify", "boolean:6", "builtin:b6"], ok(64),
                    group="secondary"),
            cli_job("verify-b13-t1", ["verify", "boolean:13", b13, "--threads", "1"],
                    ok(8192), group="secondary"),
            cli_job("verify-b13-t2", ["verify", "boolean:13", b13, "--threads", "2"],
                    ok(8192), group="secondary"),
            cli_job("verify-b12-relabelled",
                    ["verify", str(ctx.prep / "b12_relabelled.poset"),
                     str(ctx.prep / "b12_relabelled.realizer")],
                    ok(4096), group="secondary"),
        ]
        for threads in (1, 2):
            jobs.append(cli_job(
                f"verify-b12-tampered-t{threads}",
                ["verify", "boolean:12", str(ctx.prep / "b12_tampered.realizer"),
                 "--threads", str(threads)],
                self.counterexample, rc=1, group="secondary",
            ))
        jobs += [
            cli_job("dump-b12", ["dump", "boolean:12", "--out", str(work / "b12.poset")], ""),
            cli_job("signatures-b12",
                    ["signatures", "boolean:12", str(work / "b12.realizer")],
                    "injective (4096 distinct signatures, |D|=12)\n"),
        ]
        return jobs + exact_jobs()

    def check_files(self, ctx, works: list[Path]) -> list[str]:
        problems = []
        first = works[0]
        for n in (11, 13):
            size, seqs, phi = oracle.parse_realizer_text((first / f"b{n}.realizer").read_text())
            if len(seqs) != oracle.ceil_5n_6(n) or not oracle.realizes(
                size, oracle.lattice_rows(n), seqs, phi
            ):
                problems.append(f"b{n}.realizer fails the reference check")
        want = {
            "b11.realizer": _sha(first / "b11.realizer"),
            "b12.realizer": self.b12_sha,
            "b13.realizer": _sha(first / "b13.realizer"),
            "b12.poset": self.dump_sha,
        }
        for work in works:
            for name, sha in want.items():
                if _sha(work / name) != sha:
                    problems.append(f"{work.name}/{name} differs from the expected bytes")
        return problems


class Cnf:
    """boolean:6 with d=5 through the emit, external and internal engines.

    primary: the emit job; secondary: the external round trip.
    """

    name = "cnf"
    n, d = 64, 5

    def prepare(self, ctx) -> None:
        seqs = oracle.load_b6_orders(ctx.src)
        self.num_vars, self.num_clauses = oracle.cnf_size(self.n, self.d)
        self.header = f"p cnf {self.num_vars} {self.num_clauses}"
        self.model = oracle.realizer_model(self.n, seqs, oracle.threshold_bits(self.d))
        model_path = ctx.prep / "b6.model"
        model_path.write_text(" ".join(map(str, self.model)) + "\n")
        standin = Path(__file__).resolve().parent / "standin_solver.py"
        self.solver = " ".join(
            shlex.quote(str(a)) for a in (sys.executable, standin, self.header, model_path)
        ) + " {cnf}"
        self.varmap_sha = hashlib.sha256(
            oracle.varmap_text(self.n, self.d, free_phi=True).encode()
        ).hexdigest()

    def jobs(self, ctx, work: Path) -> list[dict]:
        cnf = str(work / "b6d5.cnf")
        return [
            cli_job("sat-emit",
                    ["sat", "boolean:6", "--d", "5", "--engine", "emit", "--out", cnf],
                    f"emitted: vars={self.num_vars} clauses={self.num_clauses} "
                    f"cnf={cnf} varmap={cnf}.varmap\n",
                    group="primary"),
            cli_job("sat-external",
                    ["sat", "boolean:6", "--d", "5", "--engine", "external",
                     "--solver", self.solver],
                    "sat: d=5 verified realizer\n", group="secondary"),
            search_job("search-internal-b6", "boolean:6", 5, "threshold",
                       CNF_CONFLICT_BUDGET, "sat", oracle.family_leq("boolean:6")),
        ]

    def check_files(self, ctx, works: list[Path]) -> list[str]:
        problems = []
        first = works[0] / "b6d5.cnf"
        ok, header, count = oracle.model_satisfies(first.read_bytes(), self.model)
        if header != self.header or count != self.num_clauses or not ok:
            problems.append("emitted CNF: wrong header or clause count, or the B6 "
                            "realizer's model violates a clause")
        cnf_sha = _sha(first)
        for work in works:
            if _sha(work / "b6d5.cnf") != cnf_sha:
                problems.append(f"{work.name}/b6d5.cnf differs from the first pass")
            if _sha(work / "b6d5.cnf.varmap") != self.varmap_sha:
                problems.append(f"{work.name}/b6d5.cnf.varmap differs from the pinned numbering")
        return problems


class Decide:
    """Many small dimension questions.

    primary: the four hard instances, which the DPLL solver does not decide
    within the budget; secondary: every other search job.  Of these,
    ``standard:7`` and ``standard:8`` with and-phi at d = dim are undecided
    too; every question outside ``UNDECIDED`` must be answered.
    """

    name = "decide"
    families = ("standard:4", "standard:5", "standard:6", "standard:7", "standard:8",
                "boolean:2", "boolean:3", "boolean:4", "grid:2x3", "grid:3x3")
    #: and-phi at d = dim - 1, unsat and decided quickly
    below_dim = ("boolean:2", "boolean:3", "grid:2x3", "grid:3x3", "standard:4")
    #: (spec, d) with and-phi; sat exactly when d >= dim
    hard = (("standard:5", 5), ("standard:6", 6), ("boolean:4", 4), ("standard:5", 4))

    def prepare(self, ctx) -> None:
        rng = random.Random(f"decide-{ctx.seed}")
        self.random = []
        while len(self.random) < RANDOM_POSETS:
            n, edges, leq = oracle.random_poset(rng, RANDOM_MAX_EXTENSIONS)
            if oracle.brute_force_dim(leq) != 2:
                continue
            path = ctx.prep / f"random{len(self.random)}.poset"
            path.write_text(oracle.relation_poset_text(n, edges))
            self.random.append((str(path), leq))

    def jobs(self, ctx, work: Path) -> list[dict]:
        budget = DECIDE_CONFLICT_BUDGET
        hard = set(self.hard)
        jobs = []

        def question(spec, d, phi, leq, dim, name=None):
            group = "primary" if phi == "and" and (spec, d) in hard else "secondary"
            answer = "sat" if d >= dim else "unsat"
            jobs.append(search_job(f"search-{name or spec}-d{d}-{phi}", spec, d, phi,
                                   budget, answer, leq, group))

        for spec in self.families:
            leq, dim = oracle.family_leq(spec), oracle.family_dim(spec)
            question(spec, dim, "and", leq, dim)
            question(spec, dim, "free", leq, dim)
            if spec in self.below_dim:
                question(spec, dim - 1, "and", leq, dim)
        for spec, d in self.hard:
            if d != oracle.family_dim(spec):
                question(spec, d, "and", oracle.family_leq(spec), oracle.family_dim(spec))
        for k, (path, leq) in enumerate(self.random):
            jobs.append(cli_job(f"exact-random{k}", ["exact", path, "dim"], "dim=2\n"))
            for d, phi in ((2, "and"), (1, "and"), (2, "free")):
                question(path, d, phi, leq, 2, name=f"random{k}")
        return jobs + exact_jobs()

    def check_files(self, ctx, works: list[Path]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Lattice(), Cnf(), Decide())}
