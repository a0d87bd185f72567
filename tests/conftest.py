"""Shared fixtures: the worked examples every test file leans on."""

import pytest

pytest.register_assert_rewrite("oracles")

from germclosure import Lattice, Poset  # noqa: E402

TWELVE_RELATIONS = [
    ("bot", "H"),
    ("bot", "I"),
    ("bot", "E"),
    ("bot", "G"),
    ("H", "M"),
    ("I", "M"),
    ("M", "F"),
    ("E", "C"),
    ("F", "C"),
    ("F", "D"),
    ("G", "D"),
    ("C", "A"),
    ("D", "B"),
    ("A", "top"),
    ("B", "top"),
]


@pytest.fixture
def vee() -> Poset:
    """Two minimal elements under a common top: a < c, b < c."""
    return Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])


@pytest.fixture
def wedge() -> Poset:
    """One minimum under two tops: c < a, c < b."""
    return Poset.from_relations(["a", "b", "c"], [("c", "a"), ("c", "b")])


@pytest.fixture
def npos() -> Poset:
    """The four-element N: z < x, w < x, w < y."""
    return Poset.from_relations(
        ["x", "y", "z", "w"], [("z", "x"), ("w", "x"), ("w", "y")]
    )


@pytest.fixture
def twelve() -> Lattice:
    """A twelve-element lattice with three germs (bot, M, top) and seven
    join irreducibles."""
    labels = ["bot", "H", "I", "M", "E", "F", "G", "C", "D", "A", "B", "top"]
    return Lattice.from_poset(Poset.from_relations(labels, TWELVE_RELATIONS))
