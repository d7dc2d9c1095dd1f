"""A longest-prefix-match table over IPv4 prefixes: one hash table per
populated prefix length, keyed by the network address as an int.

Used by RIBs (the best-route store; resolve a next hop), FIBs (forward a
concrete packet), and the BDD dataflow-graph builder
(:meth:`PrefixTrie.lpm_partition`: with destination-address bits as
consecutive BDD variables, the ``(network, length)``-sorted table is an
implicit binary trie, and that trie is the skeleton of the device's
forwarding BDDs).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.hdr.ip import MAX_IP, Ip, Prefix

V = TypeVar("V")
S = TypeVar("S")  # what a stored prefix hands down to the prefixes inside it
C = TypeVar("C", bound=Hashable)  # a class of addresses
A = TypeVar("A")  # a set of addresses in the caller's algebra

#: ``_MASKS[length]`` keeps the first ``length`` bits of an address.
_MASKS = tuple((MAX_IP << (32 - length)) & MAX_IP for length in range(33))

_EVERY_ADDRESS = Prefix(0, 0)


class PrefixTrie(Generic[V]):
    """Maps prefixes to lists of values with longest-prefix-match lookup.

    Two tables are equal when they hold equal value lists under the same
    prefixes.
    """

    __slots__ = ("_by_length",)

    def __init__(self):
        #: length -> {network: values}, longest length first (the probe
        #: order of :meth:`longest_match`); no length maps to an empty
        #: table.
        self._by_length: Dict[int, Dict[int, List[V]]] = {}

    def __len__(self) -> int:
        """Number of distinct prefixes present."""
        return sum(map(len, self._by_length.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixTrie):
            return NotImplemented
        return self._by_length == other._by_length

    def value_count(self) -> int:
        """Number of values across all prefixes."""
        return sum(
            len(values)
            for table in self._by_length.values()
            for values in table.values()
        )

    def add(self, prefix: Prefix, value: V) -> None:
        """Append ``value`` under ``prefix`` (duplicates allowed)."""
        self._table(prefix.length).setdefault(prefix.network_value, []).append(value)

    def replace(self, prefix: Prefix, values: List[V]) -> None:
        """Replace all values under ``prefix`` (empty list removes it)."""
        if not values:
            self.remove_prefix(prefix)
            return
        self._table(prefix.length)[prefix.network_value] = list(values)

    def remove(self, prefix: Prefix, value: V) -> bool:
        """Remove one occurrence of ``value`` under ``prefix``.

        Returns True if it was present.
        """
        table = self._by_length.get(prefix.length, {})
        values = table.get(prefix.network_value, ())
        if value not in values:
            return False
        values.remove(value)
        if not values:
            self.remove_prefix(prefix)
        return True

    def remove_prefix(self, prefix: Prefix) -> bool:
        """Remove the prefix and all its values."""
        table = self._by_length.get(prefix.length)
        if table is None or table.pop(prefix.network_value, None) is None:
            return False
        if not table:
            del self._by_length[prefix.length]
        return True

    def copy(self) -> "PrefixTrie[V]":
        """A table with the same prefixes and its own value lists."""
        clone: PrefixTrie[V] = PrefixTrie()
        clone._by_length = {
            length: {network: list(values) for network, values in table.items()}
            for length, table in self._by_length.items()
        }
        return clone

    def get(self, prefix: Prefix) -> List[V]:
        """Exact-match lookup (no LPM)."""
        table = self._by_length.get(prefix.length, {})
        return list(table.get(prefix.network_value, ()))

    def longest_match(self, ip: "Ip | int") -> Optional[Tuple[Prefix, List[V]]]:
        """Longest-prefix match for an address.

        Returns ``(matched_prefix, values)`` or ``None``.
        """
        value = ip.value if isinstance(ip, Ip) else ip
        for length, table in self._by_length.items():
            network = value & _MASKS[length]
            values = table.get(network)
            if values is not None:
                return Prefix(network, length), list(values)
        return None

    def items(self) -> Iterator[Tuple[Prefix, List[V]]]:
        """Iterate (prefix, values) pairs in lexicographic prefix order."""
        for network, length, values in self._sorted_entries():
            yield Prefix(network, length), list(values)

    def covering_prefixes(self, prefix: Prefix) -> List[Prefix]:
        """All stored prefixes that contain ``prefix`` (themselves
        included), shortest first."""
        value = prefix.network_value
        return [
            Prefix(value, length)
            for length in reversed(self._by_length)
            if length <= prefix.length
            and value & _MASKS[length] in self._by_length[length]
        ]

    def differences(
        self, other: "PrefixTrie[V]", key: Callable[[List[V]], Hashable]
    ) -> List[Prefix]:
        """The prefixes stored in one table only, or whose values' ``key``
        differs between the two, that no other such prefix contains; in
        ``(network, length)`` order. An address outside all of them lies
        under the same stored prefixes, with values of the same keys, in
        both tables."""
        kept: Dict[int, Set[int]] = {}
        for length in sorted(self._by_length.keys() | other._by_length.keys()):
            mine = self._by_length.get(length, {})
            theirs = other._by_length.get(length, {})
            if mine == theirs:  # equal values have equal keys
                continue
            for network in mine.keys() | theirs.keys():
                values, others = mine.get(network), theirs.get(network)
                if values is not None and others is not None and (
                    values == others or key(values) == key(others)
                ):
                    continue
                if not any(
                    network & _MASKS[shorter] in networks
                    for shorter, networks in kept.items()
                ):
                    kept.setdefault(length, set()).add(network)
        return [
            Prefix(network, length)
            for network, length in sorted(
                (network, length)
                for length, networks in kept.items()
                for network in networks
            )
        ]

    def lpm_partition(
        self,
        state_of: Callable[[List[V], S], S],
        class_of: Callable[[S], C],
        join: Callable[[int, A, A], A],
        full: A,
        empty: A,
        default: S,
    ) -> Dict[C, A]:
        """The partition of the address space that the stored prefixes
        induce, as one bottom-up fold over their binary trie.

        Every address lies under a chain of stored prefixes, shortest
        first, or under none. ``state_of(values, inherited)`` is the
        state of a stored prefix's addresses given the state they would
        have without it — ignore ``inherited`` and the longest match
        *replaces* (a route), build on it and the prefix *refines* (a
        marker) — starting from ``default``, and ``class_of(state)``
        names the class of the addresses whose chain ends there. Returns
        ``{class: set}`` with the sets built by the caller's algebra:
        ``full``/``empty`` are all/none of the addresses below a node,
        and ``join(depth, lo, hi)`` is the set whose addresses with bit
        ``depth`` (0 = most significant) clear are in ``lo`` and set are
        in ``hi``. A child that is absent inherits the state of the
        longest stored prefix above it, so no set is ever subtracted
        from another. The classes of the result are pairwise disjoint
        and cover the space; classes that no address falls in are left
        out.

        The trie is implicit in the ``(network, length)`` order: the
        prefixes below a node are a contiguous run, a prefix that ends at
        the node is the run's first entry, and the node has two children
        exactly where the run's first and last network diverge. The
        ``join`` calls are those of a fold over the explicit trie, in the
        same order.
        """
        return self.lpm_partition_under(
            _EVERY_ADDRESS, state_of, class_of, join, full, empty, default
        )

    def lpm_partition_under(
        self,
        prefix: Prefix,
        state_of: Callable[[List[V], S], S],
        class_of: Callable[[S], C],
        join: Callable[[int, A, A], A],
        full: A,
        empty: A,
        default: S,
    ) -> Dict[C, A]:
        """:meth:`lpm_partition` of the addresses under ``prefix`` alone:
        the same fold, started at depth ``prefix.length`` from the state
        the stored prefixes around ``prefix`` hand down, its sets rooted
        there (``join`` is called at that depth and below). Of two tables
        that differ only under ``prefix``, the partitions differ only
        there: the longest match of an address outside it sees the same
        stored prefixes with the same values."""
        root, depth = prefix.network_value, prefix.length
        inherited = default
        for length in reversed(self._by_length):
            if length >= depth:
                break
            values = self._by_length[length].get(root & _MASKS[length])
            if values is not None:
                inherited = state_of(values, inherited)
        entries = sorted(
            (network, length, values)
            for length, table in self._by_length.items()
            if length >= depth
            for network, values in table.items()
            if network & _MASKS[depth] == root
        )
        networks = [network for network, _, _ in entries]

        def join_level(depth: int, lo: Dict[C, A], hi: Dict[C, A]) -> Dict[C, A]:
            joined = {
                cls: join(depth, part, hi.get(cls, empty))
                for cls, part in lo.items()
            }
            for cls, part in hi.items():
                if cls not in lo:
                    joined[cls] = join(depth, empty, part)
            return joined

        def fold(first: int, end: int, depth: int, inherited: S) -> Dict[C, A]:
            """The partition below the trie node ``depth`` bits deep that
            ``entries[first:end]`` (not empty) lie under."""
            network, length, values = entries[first]
            if length == depth:
                inherited = state_of(values, inherited)
                first += 1
                if first == end:
                    return {class_of(inherited): full}
                network, length, _ = entries[first]
            last = networks[end - 1]
            # The next depth at which a prefix ends or the run forks.
            stop = min(length, 32 - (network ^ last).bit_length())
            if stop == depth:
                fork = bisect_left(networks, last & _MASKS[depth + 1], first, end)
                return join_level(
                    depth,
                    fold(first, fork, depth + 1, inherited),
                    fold(fork, end, depth + 1, inherited),
                )
            # Nodes from here down to ``stop`` have one child each; the
            # absent sibling inherits.
            below = fold(first, end, stop, inherited)
            beside = {class_of(inherited): full}
            for level in range(stop - 1, depth - 1, -1):
                if (network >> (31 - level)) & 1:
                    below = join_level(level, beside, below)
                else:
                    below = join_level(level, below, beside)
            return below

        if not entries:
            return {class_of(inherited): full}
        return fold(0, len(entries), depth, inherited)

    # -- internals -------------------------------------------------------

    def _table(self, length: int) -> Dict[int, List[V]]:
        """The table of one prefix length, created in probe order."""
        table = self._by_length.get(length)
        if table is None:
            self._by_length[length] = table = {}
            self._by_length = dict(sorted(self._by_length.items(), reverse=True))
        return table

    def _sorted_entries(self) -> List[Tuple[int, int, List[V]]]:
        """``(network, length, values)`` in lexicographic prefix order."""
        return sorted(
            (network, length, values)
            for length, table in self._by_length.items()
            for network, values in table.items()
        )
