"""Stand-in for an external SAT solver, for one known instance.

    python3 perfbench/standin_solver.py HEADER MODEL_FILE CNF_FILE

It checks that the CNF's header line equals HEADER and then prints, in
SAT-competition format, the model stored in MODEL_FILE (signed literals,
whitespace separated).  posetdim still re-checks the model against every
clause, decodes it and verifies the realizer, so the path it measures is
DIMACS write, subprocess, output parsing, model check, decode and verify,
with no SAT search.  Exits 1 without an answer on a header mismatch.
"""

import sys


def main(header: str, model_path: str, cnf_path: str) -> int:
    with open(cnf_path, encoding="ascii") as handle:
        first = handle.readline().strip()
    if first != header:
        print(f"c header {first!r} is not {header!r}", file=sys.stderr)
        return 1
    with open(model_path, encoding="ascii") as handle:
        lits = handle.read().split()
    print("s SATISFIABLE")
    for k in range(0, len(lits), 20):
        print("v " + " ".join(lits[k : k + 20]))
    print("v 0")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
