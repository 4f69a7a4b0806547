"""Pinned bytes of ``dump`` for named families and one parsed poset.

The digests were recorded from the cover computation that squared a dense
copy of the strict relation; any change to them means the cover pairs, their
order or the labels changed.
"""

import hashlib

import numpy as np
import pytest

import posetdim as pd
from posetdim import cli
from posetdim.formats import parse_poset, parse_poset_spec, serialize_poset
from posetdim.poset import upper_covers

DUMP_GOLDEN = {
    "boolean:12": "2a460d0577a8bf3a06b7b5cde8c1516e54d0f1c874537770d7cfa35be7ded9d5",
    "chain:300": "4dc665257dbbc757f4ffb1c18399e10517ed7844fadb2f10fa49da0fdbf32267",
    "grid:4x5": "40e15c01874df0415b053352c8476cd048a94bf30b5569e093c4f541fe39435e",
    "standard:20": "0fa7fed60b24e15b07a8c0ec18f5211451c79a55a562bc635b4766b9c921b335",
}

RELABELLED_GOLDEN = (
    "83008f3eee043e3b9c4ad6690366a9a542a5e8e7cb2778181768f3ba6482c181"
)


def relabelled_random_text(n=60, seed=20261018):
    """A random order on n elements, written in relation mode under a seeded
    random relabelling, so index order is not a linear extension."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08]
    lines = ["poset v1", f"n {n}", "mode relation"]
    lines += [f"rel {perm[i]} {perm[j]}" for i, j in pairs]
    return "\n".join(lines) + "\n"


def digest(p):
    return hashlib.sha256(serialize_poset(p).encode("ascii")).hexdigest()


@pytest.mark.parametrize("spec", sorted(DUMP_GOLDEN))
def test_family_dump_pinned(spec):
    assert digest(parse_poset_spec(spec)) == DUMP_GOLDEN[spec]


def test_relabelled_random_dump_pinned():
    p = parse_poset(relabelled_random_text())
    assert pd.some_linear_extension(p) != pd.LinearOrder.from_sequence(range(p.n))
    assert digest(p) == RELABELLED_GOLDEN


def test_lattice_dump_builds_no_relation(tmp_path, monkeypatch):
    # A lattice's covers come from the subset encoding, so dump never reads
    # (and builds) its relation matrix, 16 MB as bool for B12.
    made = []

    def spec(text):
        made.append(parse_poset_spec(text))
        return made[-1]

    monkeypatch.setattr(cli, "parse_poset_spec", spec)
    out = tmp_path / "b12.poset"
    assert cli.main(["dump", "boolean:12", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_GOLDEN["boolean:12"]
    assert "leq" not in vars(made[0])


def test_parsed_dump_builds_no_relation(tmp_path, monkeypatch):
    # The covers of a parsed file come from its packed rows, a block of
    # rows at a time, so dump never unpacks its (n, n) matrix.
    made = []

    def spec(text):
        made.append(parse_poset_spec(text))
        return made[-1]

    monkeypatch.setattr(cli, "parse_poset_spec", spec)
    first, second = tmp_path / "b12.poset", tmp_path / "again.poset"
    assert cli.main(["dump", "boolean:12", "--out", str(first)]) == 0
    assert cli.main(["dump", str(first), "--out", str(second)]) == 0
    assert made[1]._packed is not None and "leq" not in vars(made[1])
    assert hashlib.sha256(second.read_bytes()).hexdigest() == DUMP_GOLDEN["boolean:12"]


@pytest.mark.parametrize("n", range(9))
def test_lattice_covers_match_the_matrix_walk(n):
    p = pd.boolean_lattice(n)
    dense = pd.Poset(p.n, p.leq, p.labels)
    assert list(upper_covers(p)) == list(upper_covers(dense))
