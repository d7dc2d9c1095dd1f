"""Tests for the LPM prefix trie, including a property-based comparison
against linear-scan longest-prefix matching."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdr.ip import Ip, Prefix
from repro.routing.prefix_trie import PrefixTrie


class TestBasics:
    def test_empty(self):
        trie = PrefixTrie()
        assert len(trie) == 0
        assert trie.longest_match(Ip("1.2.3.4")) is None
        assert trie.get(Prefix("10.0.0.0/8")) == []

    def test_add_and_get(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "a")
        trie.add(Prefix("10.0.0.0/8"), "b")
        assert trie.get(Prefix("10.0.0.0/8")) == ["a", "b"]
        assert len(trie) == 1

    def test_longest_match_picks_most_specific(self):
        trie = PrefixTrie()
        trie.add(Prefix("0.0.0.0/0"), "default")
        trie.add(Prefix("10.0.0.0/8"), "eight")
        trie.add(Prefix("10.1.0.0/16"), "sixteen")
        prefix, values = trie.longest_match(Ip("10.1.2.3"))
        assert prefix == Prefix("10.1.0.0/16")
        assert values == ["sixteen"]
        prefix, values = trie.longest_match(Ip("10.9.9.9"))
        assert prefix == Prefix("10.0.0.0/8")
        prefix, values = trie.longest_match(Ip("192.168.0.1"))
        assert prefix == Prefix("0.0.0.0/0")

    def test_host_route(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.1/32"), "host")
        trie.add(Prefix("10.0.0.0/24"), "net")
        assert trie.longest_match(Ip("10.0.0.1"))[1] == ["host"]
        assert trie.longest_match(Ip("10.0.0.2"))[1] == ["net"]

    def test_remove(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "a")
        trie.add(Prefix("10.0.0.0/8"), "b")
        assert trie.remove(Prefix("10.0.0.0/8"), "a")
        assert trie.get(Prefix("10.0.0.0/8")) == ["b"]
        assert not trie.remove(Prefix("10.0.0.0/8"), "zzz")
        assert trie.remove(Prefix("10.0.0.0/8"), "b")
        assert len(trie) == 0

    def test_remove_prefix(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "a")
        assert trie.remove_prefix(Prefix("10.0.0.0/8"))
        assert not trie.remove_prefix(Prefix("10.0.0.0/8"))

    def test_replace(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "a")
        trie.replace(Prefix("10.0.0.0/8"), ["x", "y"])
        assert trie.get(Prefix("10.0.0.0/8")) == ["x", "y"]
        trie.replace(Prefix("10.0.0.0/8"), [])
        assert len(trie) == 0

    def test_items_sorted(self):
        trie = PrefixTrie()
        prefixes = [Prefix("10.0.0.0/8"), Prefix("9.0.0.0/8"), Prefix("10.0.0.0/16")]
        for p in prefixes:
            trie.add(p, str(p))
        listed = [p for p, _ in trie.items()]
        assert listed == sorted(prefixes)

    def test_covering_prefixes(self):
        trie = PrefixTrie()
        trie.add(Prefix("0.0.0.0/0"), "d")
        trie.add(Prefix("10.0.0.0/8"), "a")
        trie.add(Prefix("10.1.0.0/16"), "b")
        covering = trie.covering_prefixes(Prefix("10.1.2.0/24"))
        assert covering == [
            Prefix("0.0.0.0/0"),
            Prefix("10.0.0.0/8"),
            Prefix("10.1.0.0/16"),
        ]

    def test_zero_length_prefix(self):
        trie = PrefixTrie()
        trie.add(Prefix("0.0.0.0/0"), "default")
        assert trie.longest_match(Ip("255.255.255.255"))[0] == Prefix("0.0.0.0/0")
        assert [p for p, _ in trie.items()] == [Prefix("0.0.0.0/0")]


def _partition(trie):
    """lpm_partition in a plain decision-tree algebra: a set is True
    (everything below), None (nothing) or (depth, lo, hi)."""
    return trie.lpm_partition(
        lambda values, _inherited: tuple(values),
        lambda state: state,
        lambda depth, lo, hi: (depth, lo, hi),
        True, None, default=(),
    )


def _member(tree, address: int) -> bool:
    while isinstance(tree, tuple):
        depth, lo, hi = tree
        tree = hi if (address >> (31 - depth)) & 1 else lo
    return tree is True


class TestLpmPartition:
    def test_empty_trie_is_all_default(self):
        assert _partition(PrefixTrie()) == {(): True}

    def test_nested_prefixes_never_subtract(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "a")
        trie.add(Prefix("10.1.0.0/16"), "b")
        trie.add(Prefix("10.1.0.0/16"), "c")  # ECMP: one class of two
        classes = _partition(trie)
        assert set(classes) == {(), ("a",), ("b", "c")}
        assert _member(classes[("b", "c")], Ip("10.1.2.3").value)
        assert _member(classes[("a",)], Ip("10.2.0.1").value)
        assert not _member(classes[("a",)], Ip("10.1.2.3").value)
        assert _member(classes[()], Ip("11.0.0.1").value)

    def test_fully_shadowed_and_removed_prefixes_have_no_class(self):
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "shadowed")
        trie.add(Prefix("10.0.0.0/9"), "low")
        trie.add(Prefix("10.128.0.0/9"), "high")
        trie.add(Prefix("12.0.0.0/8"), "gone")
        trie.remove_prefix(Prefix("12.0.0.0/8"))
        assert set(_partition(trie)) == {(), ("low",), ("high",)}

    def test_a_marker_refines_and_a_route_replaces_around_it(self):
        """State = (route, marks): a route keeps the marks it inherits, a
        marker keeps the route, and states with one class are one set."""
        trie = PrefixTrie()
        trie.add(Prefix("10.0.0.0/8"), "a")
        trie.add(Prefix("10.1.0.0/16"), "*")  # marker inside route a
        trie.add(Prefix("10.1.1.0/24"), "b")  # route inside the marker
        trie.add(Prefix("10.1.1.7/32"), "c")  # both at one prefix
        trie.add(Prefix("10.1.1.7/32"), "*")

        def state_of(values, inherited):
            route, marked = inherited
            routes = [value for value in values if value != "*"]
            return (routes[-1] if routes else route, marked or "*" in values)

        def partition(class_of):
            return trie.lpm_partition(
                state_of, class_of, lambda depth, lo, hi: (depth, lo, hi),
                True, None, default=(None, False),
            )

        classes = partition(lambda state: state)
        assert set(classes) == {
            (None, False), ("a", False), ("a", True), ("b", True), ("c", True),
        }
        assert _member(classes[("a", True)], Ip("10.1.2.3").value)
        assert _member(classes[("b", True)], Ip("10.1.1.9").value)
        assert _member(classes[("c", True)], Ip("10.1.1.7").value)
        assert not _member(classes[("a", False)], Ip("10.1.2.3").value)
        # Keyed by the mark alone, the five states are two sets.
        marked = partition(lambda state: state[1])
        assert set(marked) == {False, True}
        for address in ("10.1.2.3", "10.1.1.9", "10.1.1.7"):
            assert _member(marked[True], Ip(address).value)
        for address in ("10.2.0.1", "11.0.0.1", "10.0.255.255"):
            assert _member(marked[False], Ip(address).value)

    def test_same_class_on_both_sides_merges(self):
        trie = PrefixTrie()
        trie.add(Prefix("0.0.0.0/1"), "x")
        trie.add(Prefix("128.0.0.0/1"), "x")
        assert trie.lpm_partition(
            lambda values, _inherited: values[0],
            lambda state: state,
            lambda depth, lo, hi: lo if lo == hi else (depth, lo, hi),
            True, None, default="none",
        ) == {"x": True}


@st.composite
def _prefix(draw):
    value = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    length = draw(st.integers(min_value=0, max_value=32))
    return Prefix(value, length)


class TestPartitionUnderAndDifferences:
    @given(
        st.lists(st.tuples(_prefix(), st.sampled_from("abc")), max_size=20),
        _prefix(),
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=20),
    )
    @settings(max_examples=200)
    def test_the_partition_under_a_prefix_is_the_whole_one_there(
        self, entries, under, probes
    ):
        trie = PrefixTrie()
        for prefix, value in entries:
            trie.add(prefix, value)
        whole = _partition(trie)
        below = trie.lpm_partition_under(
            under,
            lambda values, _inherited: tuple(values),
            lambda state: state,
            lambda depth, lo, hi: (depth, lo, hi),
            True, None, default=(),
        )
        span = (1 << (32 - under.length)) - 1
        for probe in probes + [prefix.network_value for prefix, _ in entries]:
            address = under.network_value | (probe & span)
            assert {c for c, tree in whole.items() if _member(tree, address)} == {
                c for c, tree in below.items() if _member(tree, address)
            }

    @given(
        st.lists(st.tuples(_prefix(), st.sampled_from("abc")), max_size=20),
        st.lists(st.tuples(_prefix(), st.sampled_from("abcx")), max_size=5),
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=20),
    )
    @settings(max_examples=200)
    def test_outside_the_differences_every_lookup_agrees(self, entries, edits, probes):
        mine, theirs = PrefixTrie(), PrefixTrie()
        for prefix, value in entries:
            mine.add(prefix, value)
            theirs.add(prefix, value)
        for prefix, value in edits:  # "x" removes the prefix
            theirs.replace(prefix, [] if value == "x" else [value, value])
        found = mine.differences(theirs, frozenset)
        assert found == sorted(found, key=lambda p: (p.network_value, p.length))
        for one in found:
            assert not any(o != one and o.contains_prefix(one) for o in found)

        def looked_up(trie, address):
            match = trie.longest_match(address)
            return match and (match[0], frozenset(match[1]))

        def keyed(trie):
            return {prefix: frozenset(values) for prefix, values in trie.items()}

        assert (not found) == (keyed(mine) == keyed(theirs))
        for address in probes + [prefix.network_value for prefix, _ in entries + edits]:
            if not any(prefix.contains_ip(address) for prefix in found):
                assert looked_up(mine, address) == looked_up(theirs, address)


class TestAgainstLinearScan:
    @given(st.lists(_prefix(), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=200)
    def test_longest_match_matches_linear(self, prefixes, probe):
        trie = PrefixTrie()
        for p in prefixes:
            trie.add(p, str(p))
        expected = None
        for p in prefixes:
            if p.contains_ip(Ip(probe)):
                if expected is None or p.length > expected.length:
                    expected = p
        result = trie.longest_match(probe)
        if expected is None:
            assert result is None
        else:
            assert result[0] == expected

    @given(st.lists(_prefix(), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_items_roundtrip(self, prefixes):
        trie = PrefixTrie()
        for p in prefixes:
            trie.add(p, "v")
        assert {p for p, _ in trie.items()} == set(prefixes)

    @given(st.lists(_prefix(), min_size=0, max_size=25),
           st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    min_size=1, max_size=20))
    @settings(max_examples=150)
    def test_partition_agrees_with_longest_match(self, prefixes, probes):
        trie = PrefixTrie()
        for p in prefixes:
            trie.add(p, str(p))
        classes = _partition(trie)
        # Probe the edges of every prefix too: that is where a wrong
        # inheritance would show.
        probes = probes + [p.network.value for p in prefixes]
        probes += [p.network.value | (0xFFFFFFFF >> p.length) for p in prefixes]
        for probe in probes:
            match = trie.longest_match(probe)
            expected = tuple(match[1]) if match else ()
            holders = [cls for cls, tree in classes.items() if _member(tree, probe)]
            assert holders == [expected]
