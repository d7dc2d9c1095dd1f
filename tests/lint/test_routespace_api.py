"""The public RouteSpace set algebra: union/intersect/complement/
difference, the cross-universe guard, witnesses, and the documented
over-approximation contract's observable consequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import TRUE
from repro.config.model import Prefix
from repro.lint.routespace import (
    ADDR_BITS,
    LEN_BITS,
    RouteSpace,
    RouteSpaceUniverse,
)


@pytest.fixture(scope="module")
def universe():
    return RouteSpaceUniverse(communities=["65000:1", "65000:2"])


def atom(universe, text):
    return universe.space(universe.prefix_atom(Prefix(text)))


class TestSetAlgebra:
    def test_union(self, universe):
        a = atom(universe, "10.0.0.0/8")
        b = atom(universe, "192.168.0.0/16")
        merged = a.union(b)
        assert merged.contains_prefix(Prefix("10.0.0.0/8"))
        assert merged.contains_prefix(Prefix("192.168.0.0/16"))
        assert not merged.contains_prefix(Prefix("172.16.0.0/12"))

    def test_intersect(self, universe):
        under = universe.space(universe.address_under(Prefix("10.0.0.0/8")))
        a = atom(universe, "10.1.0.0/16")
        assert not under.intersect(a).is_empty()
        outside = atom(universe, "192.168.0.0/16")
        assert under.intersect(outside).is_empty()

    def test_complement_and_difference(self, universe):
        a = atom(universe, "10.0.0.0/8")
        inverse = a.complement()
        assert a.intersect(inverse).is_empty()
        assert a.union(inverse).bdd == universe.full().bdd
        # difference(x) == intersect(complement(x)) for exact spaces.
        b = atom(universe, "192.168.0.0/16")
        both = a.union(b)
        assert both.difference(b).canonical() == a.canonical()
        assert (
            both.intersect(b.complement()).canonical() == a.canonical()
        )

    def test_involution(self, universe):
        a = atom(universe, "10.0.0.0/8")
        assert a.complement().complement().bdd == a.bdd

    def test_empty_and_full(self, universe):
        assert universe.empty().is_empty()
        assert not universe.full().is_empty()
        assert universe.full().complement().is_empty()


class TestUniverseGuard:
    def test_cross_universe_operands_rejected(self, universe):
        other = RouteSpaceUniverse(communities=["65000:1", "65000:2"])
        ours = atom(universe, "10.0.0.0/8")
        theirs = atom(other, "10.0.0.0/8")
        for operation in ("union", "intersect", "difference"):
            with pytest.raises(ValueError, match="different universes"):
                getattr(ours, operation)(theirs)

    def test_identity_not_equality(self, universe):
        # The guard is identity-based on purpose: equal fingerprints do
        # not make BDD node ids interchangeable between engines.
        clone = RouteSpaceUniverse(communities=["65000:1", "65000:2"])
        assert clone.fingerprint() == universe.fingerprint()
        with pytest.raises(ValueError):
            atom(universe, "10.0.0.0/8").union(atom(clone, "10.0.0.0/8"))


class TestWitnesses:
    def test_example_from_empty_is_none(self, universe):
        assert universe.empty().example() is None

    def test_example_reports_communities(self, universe):
        space = universe.space(
            universe.engine.and_(
                universe.prefix_atom(Prefix("10.1.0.0/16")),
                universe.community("65000:1"),
            )
        )
        prefix, communities = space.example()
        assert str(prefix) == "10.1.0.0/16"
        assert "65000:1" in communities

    def test_contains_prefix_is_exact_length(self, universe):
        a = atom(universe, "10.0.0.0/8")
        assert a.contains_prefix(Prefix("10.0.0.0/8"))
        # The atom pins the length: a more specific prefix under the
        # same address is a different route.
        assert not a.contains_prefix(Prefix("10.0.0.0/16"))


class TestOverApproximationContract:
    def test_operations_preserve_supersets(self, universe):
        """union/intersect of supersets are supersets: the algebra the
        soundness argument in the docstring leans on."""
        exact = atom(universe, "10.1.0.0/16")
        widened = exact.union(atom(universe, "10.2.0.0/16"))  # a superset
        other = universe.space(universe.address_under(Prefix("10.0.0.0/8")))
        assert widened.union(other).intersect(exact).canonical() == (
            exact.canonical()
        )
        assert not widened.intersect(other).is_empty()
        # Emptiness of an intersection of supersets soundly proves
        # concrete emptiness.
        disjoint = atom(universe, "192.168.0.0/16")
        assert widened.intersect(disjoint).is_empty()

    def test_canonical_comparable_across_engines(self, universe):
        clone = RouteSpaceUniverse(communities=["65000:1", "65000:2"])
        ours = atom(universe, "10.0.0.0/8").union(
            atom(universe, "192.168.0.0/16")
        )
        theirs = atom(clone, "192.168.0.0/16").union(
            atom(clone, "10.0.0.0/8")
        )
        assert ours.canonical() == theirs.canonical()


# ----------------------------------------------------------------------
# The cubes are built node by node from the last variable up; the
# `and_` chain they used to be is kept here as the reference.


def _chain(universe, pinned):
    """AND of one literal per (level, bit), top variable first."""
    engine = universe.engine
    bdd = TRUE
    for level, bit in pinned:
        bdd = engine.and_(bdd, engine.var(level) if bit else engine.nvar(level))
    return bdd


def _length_chain(universe, value):
    return _chain(
        universe,
        [
            (ADDR_BITS + bit, (value >> (LEN_BITS - 1 - bit)) & 1)
            for bit in range(LEN_BITS)
        ],
    )


def _address_chain(universe, prefix, bits):
    return _chain(
        universe, [(bit, prefix.network.bit(bit)) for bit in range(bits)]
    )


_alphabets = st.lists(
    st.sampled_from(["65000:1", "65000:2", "65001:7", "no-export", "64512:99"]),
    unique=True,
)
_prefixes = st.builds(
    Prefix, st.integers(0, 2**32 - 1), st.integers(0, 32)
)


class TestCubesMatchTheAndChain:
    @settings(max_examples=200, deadline=None)
    @given(_alphabets, st.lists(st.sampled_from(["redist", "seen"]), unique=True),
           _prefixes, st.integers(0, 2**LEN_BITS - 1))
    def test_same_canonical_functions(self, communities, flags, prefix, length):
        universe = RouteSpaceUniverse(communities=communities, flags=flags)
        engine = universe.engine
        assert universe.length_eq(length) == _length_chain(universe, length)
        assert universe.address_under(prefix) == _address_chain(
            universe, prefix, prefix.length
        )
        assert universe.prefix_atom(prefix) == engine.and_(
            _length_chain(universe, prefix.length),
            _address_chain(universe, prefix, ADDR_BITS),
        )
        assert universe.without_communities() == _chain(
            universe,
            [(level, 0) for level in
             universe.community_levels() + universe.flag_levels()],
        )

    def test_one_node_per_variable(self):
        universe = RouteSpaceUniverse(communities=["65000:1"], flags=["redist"])
        before = universe.engine.num_nodes()
        universe.prefix_atom(Prefix("10.20.30.0/24"))
        assert universe.engine.num_nodes() - before == ADDR_BITS + LEN_BITS
        assert universe.address_under(Prefix("0.0.0.0/0")) == TRUE
