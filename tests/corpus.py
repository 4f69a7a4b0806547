"""Small named posets shared across the test modules."""

import posetdim as pd


def _p(n, pairs):
    return pd.from_relation_pairs(n, None, pairs)


def four_element_posets():
    return [
        ("chain4", pd.chain(4)),
        ("antichain4", pd.antichain(4)),
        ("diamond", pd.boolean_lattice(2)),
        ("two_disjoint_chains", pd.standard_example(2)),
        ("n_poset", _p(4, [(0, 2), (1, 2), (1, 3)])),
        ("vee_plus_point", _p(4, [(0, 1), (0, 2)])),
        ("claw", _p(4, [(0, 1), (0, 2), (0, 3)])),
        ("co_claw", _p(4, [(0, 3), (1, 3), (2, 3)])),
        ("two_plus_two", _p(4, [(0, 1), (2, 3)])),
    ]


def five_element_posets():
    return [
        ("chain5", pd.chain(5)),
        ("antichain5", pd.antichain(5)),
        ("k22_plus_point", _p(5, [(0, 2), (0, 3), (1, 2), (1, 3)])),
        ("diamond_plus_point", _p(5, [(0, 1), (0, 2), (1, 3), (2, 3)])),
        ("w_poset", _p(5, [(0, 1), (2, 1), (2, 3), (4, 3)])),
        ("chain2_plus_chain3", _p(5, [(0, 1), (2, 3), (3, 4)])),
    ]


def dim_corpus():
    """Posets of at most 8 elements with modest linear-extension counts."""
    grid23 = pd.product(pd.chain(2), pd.chain(3))
    grid24 = pd.product(pd.chain(2), pd.chain(4))
    return [
        ("chain3", pd.chain(3)),
        ("antichain3", pd.antichain(3)),
        ("diamond", pd.boolean_lattice(2)),
        ("two_plus_two", _p(4, [(0, 1), (2, 3)])),
        ("n_poset", _p(4, [(0, 2), (1, 2), (1, 3)])),
        ("claw", _p(4, [(0, 1), (0, 2), (0, 3)])),
        ("grid_2x3", grid23),
        ("grid_2x4", grid24),
        ("s3", pd.standard_example(3)),
        ("b3", pd.boolean_lattice(3)),
    ]
