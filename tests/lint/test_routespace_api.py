"""The route-space universe's primitives: witnesses, the set of routes
that can exist, and the cubes against the ``and_`` chains they
replace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Prefix
from repro.routing.routespace import ADDR_BITS, LEN_BITS, RouteSpaceUniverse


@pytest.fixture(scope="module")
def universe():
    return RouteSpaceUniverse(communities=["65000:1", "65000:2"])


class TestWitnesses:
    def test_example_from_empty_is_none(self, universe):
        assert universe.example(FALSE) is None

    def test_example_reports_communities(self, universe):
        space = universe.engine.and_(
            universe.prefix_atom(Prefix("10.1.0.0/16")),
            universe.community("65000:1"),
        )
        prefix, communities = universe.example(space)
        assert str(prefix) == "10.1.0.0/16"
        assert "65000:1" in communities

    def test_contains_prefix_is_exact_length(self, universe):
        engine = universe.engine
        atom = universe.prefix_atom(Prefix("10.0.0.0/8"))
        assert engine.and_(atom, universe.prefix_atom(Prefix("10.0.0.0/8"))) != FALSE
        # The atom pins the length: a more specific prefix under the
        # same address is a different route.
        assert engine.and_(atom, universe.prefix_atom(Prefix("10.0.0.0/16"))) == FALSE

    def test_example_within_routes_is_a_prefix(self, universe):
        # The 6-bit length field spells 33..63 too; routes() excludes them.
        band = universe.length_in_range(20, 2**LEN_BITS - 1)
        space = universe.engine.and_(universe.routes(), band)
        prefix, communities = universe.example(space)
        assert 20 <= prefix.length <= 32 and not communities


class TestRoutes:
    def test_lengths_past_32_and_host_bits_are_outside(self, universe):
        engine = universe.engine
        routes = universe.routes()
        for length in range(33, 2**LEN_BITS):
            assert engine.and_(routes, universe.length_eq(length)) == FALSE
        # 10.0.0.1 announced as a /8 has host bits set: no such route.
        host_bits = engine.pinned(
            range(ADDR_BITS), 0x0A000001, below=universe.length_eq(8)
        )
        assert engine.and_(routes, host_bits) == FALSE

    @pytest.mark.parametrize("communities", [[], ["65000:1", "65000:2"]])
    def test_routes_is_the_union_of_one_cube_per_length(self, communities):
        universe = RouteSpaceUniverse(communities=communities, flags=["redist"])
        engine = universe.engine
        reference = engine.or_all(
            [
                engine.pinned(range(length, ADDR_BITS), 0, below=universe.length_eq(length))
                for length in range(ADDR_BITS + 1)
            ]
        )
        assert universe.routes() == reference

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_every_prefix_is_a_route(self, address, length):
        universe = RouteSpaceUniverse(communities=["65000:1"])
        atom = universe.prefix_atom(Prefix(address, length))
        assert universe.engine.and_(atom, universe.routes()) == atom


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
