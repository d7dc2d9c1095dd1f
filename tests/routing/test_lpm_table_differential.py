"""The hash-by-length LPM table against the binary trie it replaced
(``binary_trie_reference.py``): the same random sequence of writes
drives both, and every read — down to the BDD node ids that
``lpm_partition`` builds — must come out equal."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.hdr.ip import MAX_IP, Prefix
from repro.routing.prefix_trie import PrefixTrie
from repro.synth.networks import network_by_name

from .binary_trie_reference import PrefixTrie as BinaryTrie

#: Networks close enough together that random prefixes nest, collide and
#: fork at every depth; the fully random draw beside them covers the rest.
_ANCHORS = (0, 0x0A000000, 0x0A010000, 0x0A010100, 0x80000000, MAX_IP)


@st.composite
def _prefix(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    if draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=MAX_IP))
    else:
        value = draw(st.sampled_from(_ANCHORS)) ^ (
            draw(st.integers(min_value=0, max_value=7))
            << draw(st.integers(min_value=0, max_value=29))
        )
    return Prefix(value, length)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(("add", "add", "replace", "remove", "remove_prefix")),
        _prefix(),
        st.lists(st.sampled_from("abc"), max_size=3),
    ),
    max_size=30,
)


def _apply(table, op, prefix, values):
    if op == "add":
        return [table.add(prefix, value) for value in values]
    if op == "replace":
        return table.replace(prefix, values)
    if op == "remove":
        return [table.remove(prefix, value) for value in values]
    return table.remove_prefix(prefix)


def _probes(prefixes):
    probes = {0, MAX_IP}
    for prefix in prefixes:
        first, last = prefix.first_ip.value, prefix.last_ip.value
        probes.update((first, last, max(first - 1, 0), min(last + 1, MAX_IP)))
    return sorted(probes)


def _assert_same_reads(table, reference, prefixes):
    assert len(table) == len(reference)
    assert list(table.items()) == list(reference.items())
    for prefix in prefixes:
        assert table.get(prefix) == reference.get(prefix)
        for covered in (prefix, Prefix(prefix.first_ip, 32), Prefix(prefix.last_ip, 32)):
            assert table.covering_prefixes(covered) == reference.covering_prefixes(covered)
    for probe in _probes(prefixes):
        assert table.longest_match(probe) == reference.longest_match(probe), probe


def _replaces(values, _inherited):
    """A table of routes only: the longest match is the state."""
    return tuple(values)


def _itself(state):
    return state


def _partition(table, join, full, empty):
    """``lpm_partition`` with no marker entry and every state a class of
    its own — what the binary trie's fold computes."""
    if isinstance(table, BinaryTrie):
        return table.lpm_partition(tuple, join, full, empty, default=())
    return table.lpm_partition(_replaces, _itself, join, full, empty, default=())


def _bdd_classes(table, engine):
    return _partition(table, lambda depth, lo, hi: engine.mk(depth, lo, hi), TRUE, FALSE)


@given(_OPS)
@settings(max_examples=150, deadline=None)
def test_same_writes_same_reads(ops):
    table, reference = PrefixTrie(), BinaryTrie()
    engine = BddEngine(32)
    touched = [Prefix(0, 0), Prefix(MAX_IP, 32)]
    _assert_same_reads(table, reference, touched)  # both empty
    for op, prefix, values in ops:
        assert _apply(table, op, prefix, values) == _apply(reference, op, prefix, values)
        touched.append(prefix)
        _assert_same_reads(table, reference, touched)
        # One hash-consed engine: equal ids are equal address sets. The
        # class order matters too — `destination_labels` unions in it.
        assert list(_bdd_classes(table, engine).items()) == list(
            _bdd_classes(reference, engine).items()
        )
    for prefix in touched:  # emptied again
        assert table.remove_prefix(prefix) == reference.remove_prefix(prefix)
    _assert_same_reads(table, reference, touched)
    assert table == PrefixTrie()
    assert _bdd_classes(table, engine) == _bdd_classes(reference, engine) == {(): TRUE}


@given(st.lists(_prefix(), max_size=30))
@settings(max_examples=150, deadline=None)
def test_partition_makes_the_same_join_calls_in_the_same_order(prefixes):
    """The jump over single-child levels is not a shortcut through the
    algebra: on a table that only grew (a FIB), the fold over the sorted
    entries calls ``join`` exactly as the fold over the explicit trie
    does, so a BDD engine creates the same nodes in the same order. The
    generalised fold (PR 23: states handed down, classes read off them)
    with no marker entry is still that fold, call for call."""

    def calls_of(table):
        calls = []

        def join(depth, lo, hi):
            calls.append((depth, lo, hi))
            return (depth, lo, hi)

        classes = _partition(table, join, True, None)
        return calls, list(classes.items())

    table, reference = PrefixTrie(), BinaryTrie()
    for prefix in prefixes:
        table.add(prefix, str(prefix))
        reference.add(prefix, str(prefix))
    assert calls_of(table) == calls_of(reference)


_ALL = "all"  # every address below a node, whatever its depth


def _suffixes(part, bits):
    return range(1 << bits) if part is _ALL else part


def _join_8bit(depth, lo, hi):
    """Sets of 8-bit addresses as frozensets of the bits from ``depth``
    down."""
    below = 7 - depth
    return frozenset(_suffixes(lo, below)) | frozenset(
        (1 << below) | suffix for suffix in _suffixes(hi, below)
    )


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 8)), max_size=20))
@settings(max_examples=150, deadline=None)
def test_partition_agrees_with_brute_force_lpm_over_8_bit_addresses(pairs):
    table = PrefixTrie()
    stored = {}
    for address, length in pairs:
        prefix = Prefix(address << 24, length)
        table.add(prefix, str(prefix))
        stored.setdefault(prefix, []).append(str(prefix))
    expected = {}
    for address in range(256):
        covering = [p for p in stored if p.contains_ip(address << 24)]
        cls = tuple(stored[max(covering, key=lambda p: p.length)]) if covering else ()
        expected.setdefault(cls, set()).add(address)
    classes = _partition(table, _join_8bit, _ALL, frozenset())
    assert {cls: set(_suffixes(part, 8)) for cls, part in classes.items()} == expected


# -- what the swap must not move -----------------------------------------
# (`rib_golden.json`, `test_exchange_counts.py` and `test_layering.py`
# hold the rest.)


def _configs(name):
    return network_by_name(name).generate(1)


def test_net10_builds_the_parents_bdd_nodes():
    """Node for node: the engine as the graph build leaves it. A change
    that is not meant to touch what the build constructs keeps these
    three numbers. PR 23 is the one allowed to move them (24 490 /
    24 488 / 38 569 while own addresses, neighbours and subnets were
    carved out of the FIB's action spaces with ``and_``/``diff``): it
    builds every destination label in the fold itself, so the cubes and
    the intermediates of that algebra are never made."""
    engine = Session.from_texts(_configs("NET10")).analyzer.encoder.engine
    assert engine.stats() == {
        "nodes": 17286, "unique_table": 17284, "ops_cached": 10135,
    }


def test_net3_routing_still_does_216_lookups(monkeypatch):
    """One IGP-cost LPM per session and BGP run — through
    ``PrefixTrie.longest_match``, where ``test_exchange_counts.py``
    patches it."""
    lookups = []
    longest_match = PrefixTrie.longest_match
    monkeypatch.setattr(
        PrefixTrie, "longest_match",
        lambda self, ip: lookups.append(ip) or longest_match(self, ip),
    )
    Session.from_texts(_configs("NET3")).dataplane
    assert len(lookups) == 216
