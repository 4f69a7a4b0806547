"""Command-line surface: outputs, exit statuses, and determinism."""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import posetdim as pd
from posetdim import b6_data
from posetdim import cli
from posetdim.cli import main
from posetdim.errors import ToolkitError
from posetdim.formats import (
    parse_poset_spec,
    parse_realizer,
    parse_realizer_spec,
    serialize_realizer,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_b6_builtin_ok(self, capsys):
        code, out, err = run(capsys, "verify", "boolean:6", "builtin:b6")
        assert code == 0
        assert "ok: 4032 ordered pairs checked" in out
        assert "elapsed:" in err and "elapsed:" not in out

    def test_and_phi_fails(self, capsys, tmp_path):
        b6 = pd.b6_realizer()
        broken = pd.BooleanRealizer(n=64, orders=b6.orders, phi=pd.and_function(5))
        path = tmp_path / "broken.realizer"
        path.write_text(serialize_realizer(broken))
        code, out, _ = run(capsys, "verify", "boolean:6", str(path))
        assert code == 1
        assert out.startswith("counterexample:")
        assert "expected=" in out and "got=" in out

    def test_lattice_counterexample_builds_no_labels(
        self, capsys, tmp_path, monkeypatch
    ):
        # The two labels printed are formatted from the elements' bits, so
        # none of the 4,096 labels of B12 is built.
        made = []

        def spec(text):
            made.append(parse_poset_spec(text))
            return made[-1]

        monkeypatch.setattr(cli, "parse_poset_spec", spec)
        r = pd.upper_bound_realizer(12)
        bits = r.phi.bits ^ (np.arange(1 << r.d) == 5)
        tampered = pd.BooleanRealizer(
            n=r.n, orders=r.orders, phi=pd.TruthTable(arity=r.d, bits=bits)
        )
        path = tmp_path / "b12.realizer"
        path.write_text(serialize_realizer(tampered))
        code, out, _ = run(capsys, "verify", "boolean:12", str(path))
        assert code == 1
        assert out == (
            "counterexample: x=9 ({1,4}) y=2 ({2}) "
            "tuple=1010000000 expected=0 got=1\n"
        )
        assert "labels" not in vars(made[0])

    def test_size_mismatch_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "r.realizer"
        path.write_text(serialize_realizer(pd.canonical_grid_realizer(2, 2)))
        code, _, err = run(capsys, "verify", "chain:3", str(path))
        assert code == 3 and "error:" in err

    def test_distinct_mode_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "boolean:6", "builtin:b6", "--mode", "distinct"
        )
        assert code == 0 and "mode=distinct_only" in out

    def test_wrong_size_builtin_is_io_error(self, capsys):
        code, _, err = run(capsys, "verify", "boolean:3", "builtin:b6")
        assert code == 3

    def test_corrupt_bundled_b6_is_io_error(self, capsys, monkeypatch):
        seqs = list(b6_data.B6_ORDER_SEQUENCES)
        seqs[0], seqs[1] = seqs[1], seqs[0]
        monkeypatch.setattr(b6_data, "B6_ORDER_SEQUENCES", tuple(seqs))
        code, out, err = run(capsys, "verify", "boolean:6", "builtin:b6")
        assert code == 3 and out == "" and "checksum" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "cube:3", "builtin:b6")
        assert code == 2 and "usage error" in err

    def test_threads_flag_output_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "boolean:6", "builtin:b6", "--threads", "1")
        _, out2, _ = run(capsys, "verify", "boolean:6", "builtin:b6", "--threads", "3")
        assert out1 == out2


class TestBuildUpperCommand:
    def test_n6(self, capsys, tmp_path):
        out_path = tmp_path / "b6.realizer"
        code, out, _ = run(capsys, "build-upper", "6", "--out", str(out_path))
        assert code == 0
        assert "n=6 d=5 verified=ok" in out
        r = parse_realizer(out_path.read_text())
        assert pd.verify(pd.boolean_lattice(6), r).ok

    def test_n7_d6(self, capsys, tmp_path):
        out_path = tmp_path / "b7.realizer"
        code, out, _ = run(capsys, "build-upper", "7", "--out", str(out_path))
        assert code == 0 and "d=6" in out

    def test_stdout_mode_keeps_result_stream_clean(self, capsys):
        code, out, err = run(capsys, "build-upper", "3")
        assert code == 0
        assert out.startswith("realizer v1")
        assert "d=3" in err


class TestBoundsCommand:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "1:6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "n", "m", "|D|", "raw_bound", "int_bound", "formula", "min_m",
        ]
        row3 = lines[3].split()
        assert row3[:3] == ["3", "2", "3"]
        assert row3[3] == "1.500000"
        assert row3[4] == "2" and row3[6] == "8"
        row1 = lines[1].split()
        assert row1[:3] == ["1", "2", "1"] and row1[4] == "1" and row1[6] == "-"
        row6 = lines[6].split()
        assert row6[4] == "3"

    def test_n200_row_pinned(self, capsys):
        # The row as the exact bisection printed it (21 s); SHA-256 of stdout.
        code, out, _ = run(capsys, "bounds", "--n", "200")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "d22a881e850437c773bfee8817a85027c2b60392fe938fcb394e9c99c3c63662"
        )

    def test_m_range(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2", "--m", "2:4")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["2", "3", "4"]
        assert rows[1][5] == "mn(2,3)" and rows[0][5] == "lat(2)"

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "bounds", "--n", "1:8", "--m", "2:4")
        _, out2, _ = run(capsys, "bounds", "--n", "1:8", "--m", "2:4")
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "x:y")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "0"],
            ["--n", "3", "--m", "0"],
            ["--n", "0:3"],
            ["--n", "5:3"],
            ["--n", "3", "--m", "4:2"],
        ],
    )
    def test_out_of_range_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 2 and out == "" and err.startswith("usage error:")


class TestSignaturesCommand:
    def test_lattice_collision_labels_from_bits(self, capsys, monkeypatch):
        made = []

        def spec(text):
            made.append(parse_poset_spec(text))
            return made[-1]

        monkeypatch.setattr(cli, "parse_poset_spec", spec)
        code, out, _ = run(
            capsys, "signatures", "boolean:6", "builtin:b6", "--dset", "1"
        )
        labels = pd.boolean_lattice(6).labels
        x, y = pd.signature_collision(
            pd.signature_map(list(pd.b6_realizer().orders), [1])
        )
        assert code == 1
        assert out.startswith(f"collision: x={x} ({labels[x]}) y={y} ({labels[y]}) ")
        assert "labels" not in vars(made[0])

    def test_b6_injective(self, capsys):
        code, out, _ = run(capsys, "signatures", "boolean:6", "builtin:b6")
        assert code == 0
        assert "injective (64 distinct signatures, |D|=6)" in out

    def test_single_order_collision(self, capsys, tmp_path):
        order = pd.some_linear_extension(pd.boolean_lattice(2))
        r = pd.BooleanRealizer(
            n=4,
            orders=(order,),
            phi=pd.TruthTable(arity=1, bits=np.array([0, 1], np.uint8)),
        )
        path = tmp_path / "single.realizer"
        path.write_text(serialize_realizer(r))
        code, out, _ = run(capsys, "signatures", "boolean:2", str(path))
        assert code == 1
        assert out.startswith("collision:") and "signature=" in out

    def test_empty_dset_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "signatures", "boolean:6", "builtin:b6", "--dset", ""
        )
        assert code == 1 and "degenerate" in out

    def test_explicit_indices(self, capsys):
        code, out, _ = run(
            capsys, "signatures", "boolean:6", "builtin:b6",
            "--dset", "1,2,4,8,16,32",
        )
        assert code == 0 and "injective" in out

    def test_singletons_need_grid_family(self, capsys):
        code, _, err = run(capsys, "signatures", "standard:3", "builtin:b6")
        assert code == 3  # size mismatch reported before the d-set is built


class TestExactCommand:
    def test_dim_b3(self, capsys):
        code, out, _ = run(capsys, "exact", "boolean:3", "dim")
        assert code == 0 and out.strip() == "dim=3"

    def test_bdim_b2(self, capsys):
        code, out, _ = run(capsys, "exact", "boolean:2", "bdim")
        assert code == 0 and out.strip() == "bdim=2"

    def test_guard_exceeded(self, capsys):
        code, _, err = run(capsys, "exact", "boolean:4", "dim")
        assert code == 4 and "error:" in err

    def test_force_lifts_guard(self, capsys):
        code, out, _ = run(capsys, "exact", "antichain:7", "dim", "--force")
        assert code == 0 and out.strip() == "dim=2"

    def test_long_chain_needs_no_deep_recursion(self, capsys):
        # 1,200 elements placed one per level: the extension walk holds its
        # levels on an explicit stack, not on the call stack.
        code, out, _ = run(capsys, "exact", "chain:1200", "dim", "--force")
        assert code == 0 and out.strip() == "dim=1"

    def test_bdim_d_max_guard(self, capsys):
        code, out, err = run(capsys, "exact", "chain:3", "bdim", "--d-max", "4")
        assert code == 4 and out == "" and "error:" in err

    def test_force_lifts_bdim_d_max_guard(self, capsys):
        code, out, _ = run(
            capsys, "exact", "chain:3", "bdim", "--d-max", "4", "--force"
        )
        assert code == 0 and out.strip() == "bdim=1"

    def test_not_found(self, capsys):
        code, out, _ = run(capsys, "exact", "boolean:2", "bdim", "--d-max", "1")
        assert code == 1 and "not found" in out

    @pytest.mark.parametrize("what", ["dim", "bdim"])
    def test_negative_d_max_is_a_usage_error(self, capsys, tmp_path, what):
        # checked before the poset is parsed: a missing file is not reached
        for poset in ("chain:3", str(tmp_path / "missing.poset")):
            code, out, err = run(capsys, "exact", poset, what, "--d-max", "-1")
            assert code == 2 and out == "" and err.startswith("usage error:")
        code, out, _ = run(capsys, "exact", "chain:3", what, "--d-max", "0")
        assert code == 1 and out == "not found within d_max=0\n"

    def test_witness_out(self, capsys, tmp_path):
        path = tmp_path / "w.realizer"
        code, _, _ = run(
            capsys, "exact", "boolean:2", "bdim", "--out", str(path)
        )
        assert code == 0
        r = parse_realizer(path.read_text())
        assert pd.verify(pd.boolean_lattice(2), r).ok


class TestSatCommand:
    def test_standard4(self, capsys, tmp_path):
        path = tmp_path / "s4.realizer"
        code, out, _ = run(
            capsys, "sat", "standard:4", "--d", "4", "--out", str(path)
        )
        assert code == 0 and "sat: d=4 verified realizer" in out
        r = parse_realizer(path.read_text())
        assert pd.verify(pd.standard_example(4), r).ok

    def test_unsat_b2_d1(self, capsys):
        code, out, _ = run(capsys, "sat", "boolean:2", "--d", "1")
        assert code == 1 and out.strip() == "unsat: d=1"

    def test_phi_and(self, capsys):
        code, out, _ = run(capsys, "sat", "boolean:3", "--d", "3", "--phi", "and")
        assert code == 0

    def test_emit(self, capsys, tmp_path):
        path = tmp_path / "out.cnf"
        code, out, _ = run(
            capsys, "sat", "boolean:2", "--d", "2", "--engine", "emit",
            "--out", str(path),
        )
        assert code == 0 and "emitted:" in out
        assert path.exists() and path.with_suffix(".cnf.varmap").exists()

    def test_emit_needs_out(self, capsys):
        code, _, err = run(capsys, "sat", "boolean:2", "--d", "2", "--engine", "emit")
        assert code == 2

    def test_failing_external_solver(self, capsys):
        code, out, err = run(
            capsys, "sat", "chain:2", "--d", "1", "--engine", "external",
            "--solver", "sh -c 'echo boom >&2; exit 3'",
        )
        assert code == 4 and out == ""
        assert "no recognizable 's' result line" in err
        assert "exit code 3" in err and "boom" in err

    def test_solver_timeout_exits_4(self, capsys):
        sleeper = f"{sys.executable} -c 'import time; time.sleep(60)' {{cnf}}"
        started = time.perf_counter()
        code, out, err = run(
            capsys, "sat", "chain:2", "--d", "1", "--engine", "external",
            "--solver", sleeper, "--timeout", "0.5",
        )
        assert code == 4 and out == ""
        assert "timed out after 0.5 s" in err and "could not run" not in err
        assert time.perf_counter() - started < 30

    @pytest.mark.parametrize(
        "extra",
        [
            ("--engine", "external", "--solver", "true", "--timeout", value)
            for value in ("0", "-1", "nan", "inf")
        ] + [("--timeout", "5"), ("--engine", "emit", "--out", "x.cnf", "--timeout", "5")],
    )
    def test_bad_timeout_is_usage_error(self, capsys, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "sat", "chain:2", "--d", "1", *extra)
        assert code == 2 and out == "" and err.startswith("usage error:")
        assert "timeout" in err and not (tmp_path / "x.cnf").exists()

    def test_external_needs_solver(self, capsys):
        code, _, _ = run(
            capsys, "sat", "boolean:2", "--d", "2", "--engine", "external"
        )
        assert code == 2

    def test_guard_exceeded(self, capsys):
        code, _, _ = run(capsys, "sat", "boolean:2", "--d", "9")
        assert code == 4

    def test_force_lifts_d_guard(self, capsys, tmp_path):
        path = tmp_path / "c2d9.cnf"
        code, out, _ = run(
            capsys, "sat", "chain:2", "--d", "9", "--force", "--engine", "emit",
            "--out", str(path),
        )
        assert code == 0
        assert out == (
            f"emitted: vars=521 clauses=1025 cnf={path} varmap={path}.varmap\n"
        )

    def test_force_keeps_arity_cap(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("d = 17 must be rejected before solving")

        monkeypatch.setattr(pd.sat, "internal_sat_solve", no_solve)
        code, out, err = run(capsys, "sat", "chain:2", "--d", "17", "--force")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "Traceback" not in err


class TestDumpCommand:
    def test_dump_b6_matches_builtin(self, capsys, tmp_path):
        path = tmp_path / "b6.realizer"
        code, _, _ = run(capsys, "dump", "builtin:b6", "--out", str(path))
        assert code == 0
        assert path.read_text() == serialize_realizer(pd.b6_realizer())

    def test_dump_poset_to_stdout(self, capsys):
        code, out, _ = run(capsys, "dump", "chain:3")
        assert code == 0 and out.startswith("poset v1")

    def test_dump_round_trip(self, capsys, tmp_path):
        from posetdim.formats import parse_poset

        path = tmp_path / "g.poset"
        code, _, _ = run(capsys, "dump", "grid:2x3", "--out", str(path))
        assert code == 0
        assert parse_poset(path.read_text()) == pd.multiset_grid(2, 3)


class TestSizeCapIsUsageError:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "boolean:20000", "builtin:b6"),
            ("dump", "grid:20000x3"),
            ("dump", "grid:30000000x1"),
            ("dump", "boolean:" + "9" * 5000),
        ],
        ids=["boolean-20000", "grid-20000x3", "grid-30000000x1", "digits-5000"],
    )
    def test_exit_2_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "Traceback" not in err


class TestDumpCovers:
    def test_chain_300_has_consecutive_covers(self, capsys):
        code, out, _ = run(capsys, "dump", "chain:300")
        assert code == 0
        rel = [ln for ln in out.splitlines() if ln.startswith("rel ")]
        assert rel == [f"rel {i} {i + 1}" for i in range(299)]

    def test_standard_300_dump_pinned(self, capsys):
        # 89,700 covers in per-element blocks of 299 rel lines.
        code, out, _ = run(capsys, "dump", "standard:300")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "c680b71319c16f8fae30abf55946990d50b690a4c2e02bbd7abcc34c3e1e5651"
        )


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "verify", "boolean:6", "builtin:b6")
            outs.add(out)
        assert len(outs) == 1

    def test_dump_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "dump", "builtin:b6")
        _, out2, _ = run(capsys, "dump", "builtin:b6")
        assert out1 == out2


# ---------------------------------------------------------------------------
# malformed input: every subcommand exits 2, 3 or 4, never with a traceback


def _no_n_line(text):
    return all(ln.strip().partition(" ")[0] != "n" for ln in text.splitlines())


def _edited(draw, lines):
    """lines with up to two dropped and up to two junk lines added (no junk
    line is an "n" line, so nothing large is sized), joined by newlines."""
    for _ in range(draw(st.integers(0, 2))):
        if lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.text(max_size=12).filter(_no_n_line))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@st.composite
def poset_texts(draw):
    """A poset document on at most 6 elements, often broken."""
    idx = st.integers(-1, 7)
    lines = ["poset v1", f"n {draw(st.integers(-1, 6))}"]
    lines.append(draw(st.sampled_from(["mode covers", "mode relation", "mode x"])))
    lines += draw(st.lists(st.builds("rel {} {}".format, idx, idx), max_size=8))
    lines += draw(
        st.lists(st.builds("label {} {}".format, idx, st.text(max_size=3)), max_size=2)
    )
    return _edited(draw, lines)


@st.composite
def realizer_texts(draw):
    """A realizer document on at most 6 elements and 3 orders, often broken."""
    n, d = draw(st.integers(-1, 6)), draw(st.integers(-1, 3))
    lines = ["realizer v1", f"n {n}", f"d {d}"]
    for i in range(1, d + 1):
        seq = draw(
            st.one_of(
                st.permutations(range(max(n, 0))),
                st.lists(st.integers(-1, 7), max_size=7),
            )
        )
        lines.append(f"order {i}: " + " ".join(map(str, seq)))
    width = 1 << max(d, 0)
    bits = st.one_of(
        st.text("01", min_size=width, max_size=width), st.text("012 ", max_size=9)
    )
    lines.append("phi " + draw(bits))
    return _edited(draw, lines)


_CLI_SPEC_PARTS = ["boolean", "grid", "standard", "chain", "antichain", "builtin",
                   "b6", ":", "x", "-", " ", "\0", "٣"]


@st.composite
def cli_specs(draw):
    """A family spec with a number from -1 to 4 (so every family that
    resolves has at most 256 elements), or a text of family names,
    separators, one-digit numbers and free text, with no "/" and no two
    digits in a row."""
    number = st.integers(-1, 4)
    families = st.sampled_from(["boolean", "standard", "chain", "antichain"])
    well_formed = st.one_of(
        st.builds("{}:{}".format, families, number),
        st.builds("grid:{}x{}".format, number, number),
    )
    parts = st.one_of(
        st.sampled_from(_CLI_SPEC_PARTS),
        st.integers(0, 4).map(str),
        st.text(max_size=3).filter(lambda t: "/" not in t),
    )
    spec = draw(st.one_of(well_formed, st.lists(parts, max_size=5).map("".join)))
    assume(not re.search(r"\d\d", spec))
    return spec


def _resolves(name, realizer=False):
    parse = parse_realizer_spec if realizer else parse_poset_spec
    try:
        parse(name)
    except ToolkitError:
        return False
    return True


def _exit_code(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's own usage
    error, raised for a name that looks like a flag, counts as its exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestMalformedInput:
    @settings(max_examples=150)
    @given(
        st.sampled_from(["verify", "signatures", "exact", "sat", "dump"]),
        st.one_of(cli_specs(), st.just("p.poset")),
        st.one_of(cli_specs(), st.just("r.realizer"), st.just("builtin:b6")),
        poset_texts(),
        realizer_texts(),
        st.sampled_from(["dim", "bdim"]),
        st.integers(0, 3),
        st.booleans(),
    )
    # Within every guard but the subset one, which stops it before the
    # C(720, 3) triples of S4's linear extensions; past them it ran an hour.
    @example("exact", "standard:4", "builtin:b6", "", "", "dim", 0, True)
    def test_exit_code_never_traceback(
        self, command, poset, realizer, poset_text, realizer_text, what, d, dump_poset
    ):
        # The documents sit in p.poset and r.realizer of an empty working
        # directory, where a spec that names no family is read as a path.
        if command in ("verify", "signatures"):
            argv = [command, poset, realizer]
        elif command == "exact":
            argv = [command, poset, what]
        elif command == "sat":
            argv = [command, poset, "--d", str(d), "--engine", "emit", "--out", "o.cnf"]
        else:
            argv = [command, poset if dump_poset else realizer]
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with open("p.poset", "w", encoding="utf-8") as fh:
                    fh.write(poset_text)
                with open("r.realizer", "w", encoding="utf-8") as fh:
                    fh.write(realizer_text)
                if command == "dump":
                    ok = _resolves(argv[1], argv[1].startswith("builtin:"))
                else:
                    ok = _resolves(poset)
                    if command in ("verify", "signatures"):
                        ok = ok and _resolves(realizer, True)
                code, out, err = _exit_code(argv)
            finally:
                os.chdir(here)
        assert code in (0, 1, 2, 3, 4), (argv, err)
        if not ok:
            assert code in (2, 3, 4) and err.startswith(("usage", "error:")), argv
