"""The bit-per-node binary trie that :class:`repro.routing.prefix_trie.
PrefixTrie` was until PR 22, kept unchanged as a test-only reference.

RIBs, FIBs and the forwarding-graph builder now sit on one hash table
per prefix length whose ``lpm_partition`` folds the *implicit* trie of
its sorted entries; this is the explicit trie (one ``_Node`` per bit of
every prefix) that the table must agree with call for call
(``test_lpm_table_differential.py``). Nothing in ``src`` imports it.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.hdr.ip import Ip, Prefix

V = TypeVar("V")
C = TypeVar("C", bound=Hashable)  # a class of addresses
A = TypeVar("A")  # a set of addresses in the caller's algebra


class _Node(Generic[V]):
    __slots__ = ("children", "values")

    def __init__(self):
        self.children: List[Optional[_Node[V]]] = [None, None]
        self.values: Optional[List[V]] = None  # None = no prefix ends here


class PrefixTrie(Generic[V]):
    """Maps prefixes to lists of values with longest-prefix-match lookup."""

    def __init__(self):
        self._root: _Node[V] = _Node()
        self._len = 0

    def __len__(self) -> int:
        """Number of distinct prefixes present."""
        return self._len

    def add(self, prefix: Prefix, value: V) -> None:
        """Append ``value`` under ``prefix`` (duplicates allowed)."""
        node = self._walk_create(prefix)
        if node.values is None:
            node.values = []
            self._len += 1
        node.values.append(value)

    def replace(self, prefix: Prefix, values: List[V]) -> None:
        """Replace all values under ``prefix`` (empty list removes it)."""
        if not values:
            self.remove_prefix(prefix)
            return
        node = self._walk_create(prefix)
        if node.values is None:
            self._len += 1
        node.values = list(values)

    def remove(self, prefix: Prefix, value: V) -> bool:
        """Remove one occurrence of ``value`` under ``prefix``.

        Returns True if it was present.
        """
        node = self._walk(prefix)
        if node is None or node.values is None:
            return False
        try:
            node.values.remove(value)
        except ValueError:
            return False
        if not node.values:
            node.values = None
            self._len -= 1
        return True

    def remove_prefix(self, prefix: Prefix) -> bool:
        """Remove the prefix and all its values."""
        node = self._walk(prefix)
        if node is None or node.values is None:
            return False
        node.values = None
        self._len -= 1
        return True

    def get(self, prefix: Prefix) -> List[V]:
        """Exact-match lookup (no LPM)."""
        node = self._walk(prefix)
        if node is None or node.values is None:
            return []
        return list(node.values)

    def longest_match(self, ip: "Ip | int") -> Optional[Tuple[Prefix, List[V]]]:
        """Longest-prefix match for an address.

        Returns ``(matched_prefix, values)`` or ``None``.
        """
        value = ip.value if isinstance(ip, Ip) else ip
        node = self._root
        best: Optional[Tuple[int, int, List[V]]] = None
        depth = 0
        network = 0
        while node is not None:
            if node.values is not None:
                best = (depth, network, list(node.values))
            if depth == 32:
                break
            bit = (value >> (31 - depth)) & 1
            node = node.children[bit]
            network = (network << 1) | bit
            depth += 1
        if best is None:
            return None
        length, network, values = best
        return Prefix(network << (32 - length) if length else 0, length), values

    def items(self) -> Iterator[Tuple[Prefix, List[V]]]:
        """Iterate (prefix, values) pairs in lexicographic prefix order."""
        stack: List[Tuple[_Node[V], int, int]] = [(self._root, 0, 0)]
        collected: List[Tuple[Prefix, List[V]]] = []
        while stack:
            node, network, depth = stack.pop()
            if node.values is not None:
                prefix = Prefix(network << (32 - depth) if depth else 0, depth)
                collected.append((prefix, list(node.values)))
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, (network << 1) | bit, depth + 1))
        collected.sort(key=lambda pair: pair[0])
        yield from collected

    def covering_prefixes(self, prefix: Prefix) -> List[Prefix]:
        """All stored prefixes that contain ``prefix`` (themselves
        included), shortest first."""
        result: List[Prefix] = []
        node = self._root
        value = prefix.network.value
        for depth in range(prefix.length + 1):
            if node.values is not None:
                result.append(Prefix(value, depth))
            if depth == prefix.length:
                break
            bit = (value >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
        return result

    def lpm_partition(
        self,
        class_of: Callable[[List[V]], C],
        join: Callable[[int, A, A], A],
        full: A,
        empty: A,
        default: C,
    ) -> Dict[C, A]:
        """The longest-prefix-match partition of the address space, as
        one bottom-up fold over the trie.

        Every address matches exactly one stored prefix (its longest) or
        none; ``class_of(values)`` names the class of a stored prefix's
        addresses and ``default`` the class of unmatched ones. Returns
        ``{class: set}`` with the sets built by the caller's algebra:
        ``full``/``empty`` are all/none of the addresses below a node,
        and ``join(depth, lo, hi)`` is the set whose addresses with bit
        ``depth`` (0 = most significant) clear are in ``lo`` and set are
        in ``hi``. A child that is absent inherits the class of the
        longest stored prefix above it, so no set is ever subtracted
        from another. The classes of the result are pairwise disjoint
        and cover the space; classes that no address falls in are left
        out.
        """

        def fold(node: _Node[V], depth: int, inherited: C) -> Dict[C, A]:
            if node.values is not None:
                inherited = class_of(node.values)
            zero, one = node.children
            if zero is None and one is None:
                return {inherited: full}
            below = depth + 1
            lo = {inherited: full} if zero is None else fold(zero, below, inherited)
            hi = {inherited: full} if one is None else fold(one, below, inherited)
            joined = {
                cls: join(depth, part, hi.get(cls, empty))
                for cls, part in lo.items()
            }
            for cls, part in hi.items():
                if cls not in lo:
                    joined[cls] = join(depth, empty, part)
            return joined

        return fold(self._root, 0, default)

    # -- internals -------------------------------------------------------

    def _walk_create(self, prefix: Prefix) -> _Node[V]:
        return self._walk(prefix, create=True)

    def _walk(self, prefix: Prefix, create: bool = False) -> Optional[_Node[V]]:
        node = self._root
        value = prefix.network.value
        for depth in range(prefix.length):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                if not create:
                    return None
                child = _Node()
                node.children[bit] = child
            node = child
        return node
