"""Property tests for the n-ary BDD kernels (or_all / and_all).

The balanced-tree reduction must compute exactly the same canonical node
as the naive binary left fold, for any operand multiset — including
duplicates, terminals, empty input, and arbitrary order.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE, TRUE, BddEngine

NUM_VARS = 6


@pytest.fixture
def engine():
    return BddEngine(num_vars=NUM_VARS)


def _build_operand(engine, spec):
    """One random BDD: a conjunction of literals, or a terminal."""
    if spec == "true":
        return TRUE
    if spec == "false":
        return FALSE
    node = TRUE
    for var_index, polarity in spec:
        literal = engine.var(var_index) if polarity else engine.nvar(var_index)
        node = engine.and_(node, literal)
    return node


_literal = st.tuples(st.integers(0, NUM_VARS - 1), st.booleans())
_operand_spec = st.one_of(
    st.just("true"),
    st.just("false"),
    st.lists(_literal, min_size=1, max_size=4),
)
_operand_lists = st.lists(_operand_spec, min_size=0, max_size=12)


@settings(max_examples=200, deadline=None)
@given(specs=_operand_lists)
def test_or_all_equals_binary_fold(specs):
    engine = BddEngine(num_vars=NUM_VARS)
    operands = [_build_operand(engine, spec) for spec in specs]
    expected = functools.reduce(engine.or_, operands, FALSE)
    assert engine.or_all(operands) == expected


@settings(max_examples=200, deadline=None)
@given(specs=_operand_lists)
def test_and_all_equals_binary_fold(specs):
    engine = BddEngine(num_vars=NUM_VARS)
    operands = [_build_operand(engine, spec) for spec in specs]
    expected = functools.reduce(engine.and_, operands, TRUE)
    assert engine.and_all(operands) == expected


@settings(max_examples=100, deadline=None)
@given(specs=_operand_lists)
def test_nary_is_order_insensitive(specs):
    engine = BddEngine(num_vars=NUM_VARS)
    operands = [_build_operand(engine, spec) for spec in specs]
    assert engine.or_all(operands) == engine.or_all(list(reversed(operands)))
    assert engine.and_all(operands) == engine.and_all(list(reversed(operands)))


class TestEdgeCases:
    def test_empty_identities(self, engine):
        assert engine.or_all([]) == FALSE
        assert engine.and_all([]) == TRUE

    def test_single_operand(self, engine):
        node = engine.var(2)
        assert engine.or_all([node]) == node
        assert engine.and_all([node]) == node

    def test_terminal_short_circuit(self, engine):
        node = engine.var(0)
        assert engine.or_all([node, TRUE, engine.var(1)]) == TRUE
        assert engine.and_all([node, FALSE, engine.var(1)]) == FALSE

    def test_duplicates_are_idempotent(self, engine):
        node = engine.and_(engine.var(0), engine.nvar(3))
        assert engine.or_all([node] * 5) == node
        assert engine.and_all([node] * 5) == node

    def test_complement_pair(self, engine):
        assert engine.or_all([engine.var(1), engine.nvar(1)]) == TRUE
        assert engine.and_all([engine.var(1), engine.nvar(1)]) == FALSE

