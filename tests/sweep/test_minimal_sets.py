"""Property-based checks for minimal-failing-set extraction.

The satellite contract: every reported minimal set actually breaks the
property, and every enumerated proper subset of it does not — both on
randomized subset lattices (routing is not monotone, so failure labels
are arbitrary booleans) and cross-checked against brute-force
simulation on a small registry network.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import Session
from repro.sweep import minimal_failing_sets, sweep_session
from repro.sweep.validate import brute_force_verdicts
from repro.synth.networks import network_by_name

ELEMENTS = ("a", "b", "c", "d", "e")


class _Outcome:
    """The duck type minimal_failing_sets consumes."""

    def __init__(self, elements, holds):
        self.elements = tuple(sorted(elements))
        self.verdict = type("V", (), {"holds": holds})()


def _universe(k):
    subsets = []
    for size in range(1, k + 1):
        subsets.extend(itertools.combinations(ELEMENTS, size))
    return subsets


@st.composite
def labeled_lattices(draw):
    """A k<=3 subset universe with arbitrary holds/fails labels —
    deliberately NOT monotone, like real routing under failures."""
    k = draw(st.integers(min_value=1, max_value=3))
    subsets = _universe(k)
    labels = draw(
        st.lists(
            st.booleans(), min_size=len(subsets), max_size=len(subsets)
        )
    )
    return [
        _Outcome(subset, holds)
        for subset, holds in zip(subsets, labels)
    ]


@given(labeled_lattices())
@settings(max_examples=200, deadline=None)
def test_minimal_sets_match_brute_force_definition(outcomes):
    reported = minimal_failing_sets(outcomes, base_holds=True)

    failing = {
        frozenset(o.elements) for o in outcomes if not o.verdict.holds
    }
    # 1. every reported set breaks the property
    for s in reported:
        assert frozenset(s) in failing
    # 2. no enumerated proper subset of a reported set fails
    for s in reported:
        for other in failing:
            assert not other < frozenset(s)
    # 3. completeness: every failing set with no failing proper subset
    #    is reported, exactly once
    expected = {
        f for f in failing if not any(o < f for o in failing)
    }
    assert {frozenset(s) for s in reported} == expected
    assert len(reported) == len(expected)
    # 4. deterministic order: by size, then lexicographically
    keys = [(len(s), tuple(sorted(s))) for s in reported]
    assert keys == sorted(keys)


@given(labeled_lattices())
@settings(max_examples=50, deadline=None)
def test_broken_base_dominates_everything(outcomes):
    assert minimal_failing_sets(outcomes, base_holds=False) == []


def test_cross_check_against_brute_force_on_registry_network():
    """On NET1 the sweep's minimal sets must agree with an independent
    from-scratch simulation of every enumerated scenario."""
    configs = network_by_name("NET1").generate(1)
    session = Session.from_texts(configs, cache=False)
    result = sweep_session(
        session, k=2, kinds=("link",), max_elements=5
    )
    assert not result.base_broken
    brute = brute_force_verdicts(configs, result.prop, 2, ("link",), 5)

    failing_ids = {
        frozenset(o.elements): o.scenario_id
        for o in result.outcomes
        if not o.verdict.holds
    }
    for minimal in result.minimal_failing_sets:
        key = frozenset(minimal)
        # the reported set itself fails under brute-force simulation
        assert brute[failing_ids[key]].holds is False
        # every enumerated proper subset holds
        for outcome in result.outcomes:
            subset = frozenset(outcome.elements)
            if subset < key:
                assert brute[outcome.scenario_id].holds, (
                    f"{sorted(subset)} fails yet {sorted(key)} was "
                    "reported minimal"
                )
