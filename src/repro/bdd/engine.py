"""A reduced, ordered binary decision diagram (ROBDD) engine.

This is the substrate for the data-plane verification engine (§4.2 of the
paper). It is written from scratch because the analysis needs operations
that generic packages do not expose efficiently:

* a fused relational product (``and_exists``) used to apply packet
  transformations (NAT) in a single pass over the operand diagrams,
* order-preserving variable renaming to map transformed (output) variables
  back onto primary (input) variables,
* preference-guided satisfying-assignment selection for picking "likely"
  example packets (§4.4.3).

Design: nodes are hash-consed into parallel lists (level / lo / hi) and
identified by integer ids. Ids ``0`` and ``1`` are the FALSE and TRUE
terminals. Reduction invariants (no redundant node, no duplicate node)
are enforced by :meth:`BddEngine.mk`, making every function canonical:
two BDDs are semantically equal iff their ids are equal. All binary
operations are memoized in operation caches keyed by operand ids, which
exploits that canonicity (the paper: "we exploit canonicity to
short-circuit full BDD traversals using identity-based operation caches").

Every table key is one int that packs its operands into fixed-width bit
fields (:func:`unique_key` for the unique table, the same arithmetic
inline in each operation): a node id takes ``ID_BITS`` bits, a variable level
or cube position ``LEVEL_BITS``, and the one field with no bound (the
first node id, cube or rename-map id) the high end. Levels are bounded
at construction and ids where a node is allocated
(:class:`BddCapacityError`), so no field overflows into its neighbour
and each key names exactly one operand tuple. An int key takes about
half the bytes of the tuple it replaces and is not an object the
garbage collector tracks.

Recursion depth is bounded by the number of variables (a few hundred for
a packet header), so plain recursive formulations are safe and fast.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

FALSE = 0
TRUE = 1

# Terminals live "below" all variables so level comparisons work uniformly.
_LEAF_LEVEL = 1 << 30

#: Bits of a packed table key that hold one node id, and one variable
#: level or cube position; see :func:`unique_key`.
ID_BITS = 32
LEVEL_BITS = 12


class BddCapacityError(ValueError):
    """A variable count or node id past what a packed table key holds:
    refused, where a wider value would make two keys collide."""


def unique_key(level: int, lo: int, hi: int) -> int:
    """The unique table's key of the node ``(level, lo, hi)``: the bits
    of ``lo << 44 | hi << 12 | level``, injective while
    ``hi < 2**ID_BITS`` and ``level < 2**LEVEL_BITS``, which the engine
    holds for every node (``BddEngine._mk`` computes the same key
    inline).

    Each key's small fields are put together with ``*`` and ``+``
    first (one-digit ints, CPython's fast path) and the key is finished
    with ``|``, which allocates the int at its exact size; a final
    ``+`` allocates a spare digit in every stored key. Both choices
    were measured (DESIGN.md, "Packed BDD table keys")."""
    return (lo << 44) | (hi * 4096 + level)


#: Each operation cache by attribute name, with the number of node ids
#: packed into the low ``ID_BITS``-wide fields of its keys and whether
#: its values are node ids (``_sat_count``'s are counts): what
#: :meth:`BddEngine.fork` reads to drop an entry naming a node the twin
#: does not hold.
_CACHES: Tuple[Tuple[str, int, bool], ...] = (
    ("_and_cache", 2, True),
    ("_or_cache", 2, True),
    ("_xor_cache", 2, True),
    ("_not_cache", 1, True),
    ("_ite_cache", 3, True),
    ("_exists_cache", 1, True),
    ("_rename_cache", 1, True),
    ("_andex_cache", 2, True),
    ("_count_cache", 1, False),
)
_ID_MASK = (1 << ID_BITS) - 1


def _names_only_ids_below(key: int, value: int, ids: int, value_is_id: bool, n: int) -> bool:
    """Whether a cache entry whose key packs ``ids`` node ids in its low
    fields names only ids below ``n``."""
    if value_is_id and value >= n:
        return False
    for _ in range(ids):
        if key & _ID_MASK >= n:
            return False
        key >>= ID_BITS
    return True


class BddEngine:
    """Manager for a universe of BDD nodes over ``num_vars`` variables.

    Variables are identified by *level* (0 is the root-most / first tested
    variable). The variable order is fixed at construction; choosing it
    well is the caller's job (see :mod:`repro.hdr.fields` for the packet
    ordering heuristic from §4.2.2 of the paper).
    """

    def __init__(self, num_vars: int):
        if num_vars <= 0:
            raise ValueError("num_vars must be positive")
        if num_vars >= 1 << LEVEL_BITS:
            raise BddCapacityError(
                f"{num_vars} variables; a table key holds levels below "
                f"{1 << LEVEL_BITS}"
            )
        self.num_vars = num_vars
        # Node store. Index = node id.
        self._level: List[int] = [_LEAF_LEVEL, _LEAF_LEVEL]
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        # unique_key(level, lo, hi) -> node id.
        self._unique: Dict[int, int] = {}
        # Operation caches (identity-keyed thanks to canonicity), each
        # keyed by its operands packed into one int (see unique_key).
        self._and_cache: Dict[int, int] = {}
        self._or_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        self._not_cache: Dict[int, int] = {}
        self._ite_cache: Dict[int, int] = {}
        self._exists_cache: Dict[int, int] = {}
        self._rename_cache: Dict[int, int] = {}
        self._andex_cache: Dict[int, int] = {}
        self._count_cache: Dict[int, int] = {}
        # Interned quantification cubes and rename maps (id -> payload).
        self._cubes: Dict[Tuple[int, ...], int] = {}
        self._cube_list: List[Tuple[int, ...]] = []
        self._maps: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._map_list: List[Dict[int, int]] = []
        # Cached single-variable nodes.
        self._var_nodes: Dict[int, int] = {}
        self._nvar_nodes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Node construction

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Find-or-create the node ``(level, lo, hi)``, enforcing reduction."""
        if lo == hi:
            return lo
        key = (lo << 44) | (hi * 4096 + level)  # unique_key(level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            if node >> ID_BITS:
                raise BddCapacityError(
                    f"node id {node} does not fit a table key's {ID_BITS} bits"
                )
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def mk(self, level: int, lo: int, hi: int) -> int:
        """The function ``if variable level then hi else lo``.

        The public node constructor, for builders that already know the
        shape of their diagram (a prefix cube, a FIB trie) and would
        otherwise spend ``and_``/``or_`` calls rediscovering it. The
        result is canonical like any other: equal cofactors collapse,
        equal nodes are shared. ``level`` must come before every
        variable ``lo`` and ``hi`` test, which is what keeps the diagram
        ordered; a violation raises :class:`ValueError`.
        """
        levels = self._level
        if not (0 <= level < self.num_vars and level < levels[lo] and level < levels[hi]):
            raise ValueError(
                f"variable level {level} is out of range or not above "
                "its cofactors' levels"
            )
        return self._mk(level, lo, hi)

    def pinned(self, levels: Sequence[int], value: int, below: int = TRUE) -> int:
        """The cube "the variables ``levels`` (ascending) spell the low
        ``len(levels)`` bits of ``value``, most significant first",
        conjoined with ``below`` — a function of later variables only.

        A cube is a chain, so it is built with :meth:`mk` from the last
        variable up, one node per variable; ``and_``-ing one literal at
        a time onto a growing chain walks the chain again at every step.
        """
        mk = self.mk
        node = below
        for shift, level in enumerate(reversed(levels)):
            if (value >> shift) & 1:
                node = mk(level, FALSE, node)
            else:
                node = mk(level, node, FALSE)
        return node

    def graft(self, a: int, levels: Sequence[int], value: int, sub: int) -> int:
        """``a`` with its part under the cube ``pinned(levels, value)``
        replaced by ``sub``: the function equal to ``sub`` where the
        variables ``levels`` (ascending) spell ``value`` and to ``a``
        elsewhere. ``sub`` is a function of later variables only, and
        ``a`` tests no variable above the last of ``levels`` that is not
        one of them.

        The path of the cube through ``a`` is rebuilt with :meth:`mk`
        from the bottom up, one node per variable, keeping each sibling
        off the path; ``a`` itself where its part under the cube already
        is ``sub``. By canonicity the result is the node any other
        construction of the same function returns.
        """
        shifts = range(len(levels) - 1, -1, -1)
        node, level_of = a, self._level
        for shift, level in zip(shifts, levels):
            if node <= TRUE:
                break
            if level_of[node] == level:
                node = self._hi[node] if (value >> shift) & 1 else self._lo[node]
        if node == sub:
            return a
        path = []
        node = a
        for shift, level in zip(shifts, levels):
            lo, hi = self._cofactors(node, level)
            bit = (value >> shift) & 1
            path.append((level, lo, hi, bit))
            node = hi if bit else lo
        mk = self.mk
        for level, lo, hi, bit in reversed(path):
            sub = mk(level, lo, sub) if bit else mk(level, sub, hi)
        return sub

    def var(self, level: int) -> int:
        """The function that is true iff variable ``level`` is 1."""
        node = self._var_nodes.get(level)
        if node is None:
            self._check_level(level)
            node = self._mk(level, FALSE, TRUE)
            self._var_nodes[level] = node
        return node

    def nvar(self, level: int) -> int:
        """The function that is true iff variable ``level`` is 0."""
        node = self._nvar_nodes.get(level)
        if node is None:
            self._check_level(level)
            node = self._mk(level, TRUE, FALSE)
            self._nvar_nodes[level] = node
        return node

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_vars:
            raise ValueError(
                f"variable level {level} out of range [0, {self.num_vars})"
            )

    def num_nodes(self) -> int:
        """Total nodes ever allocated (includes both terminals)."""
        return len(self._level)

    def fork(self) -> "BddEngine":
        """A private engine that starts where this one stands: every
        node, the unique table, every operation cache, the interned
        cubes and rename maps and the variable nodes, copied.

        Ids are handed out in order and a node only points to lower ids,
        so every id of the twin names the function it names here, and
        every copied cache entry is exact in the twin: an operation
        whose operands did not change finds its answer. The two then
        grow apart.

        No lock is taken: another thread may be querying this engine
        meanwhile. The twin holds the ``n`` nodes the store had when the
        fork began (``_hi``, the list ``_mk`` writes last, bounds ``n``,
        so each of them is complete); its unique table maps exactly
        those ids, and every cache entry and variable node it holds
        names only them. ``_mk`` enters a node in the unique table after
        the three lists, and a cache entry is written after the nodes it
        names, so the copies break that only where the store grew while
        they were taken, or a ``_mk`` was between the lists and the
        table: only then are they repaired (:meth:`_trim_to`).
        """
        n = len(self._hi)
        twin = BddEngine(self.num_vars)
        twin._level, twin._lo, twin._hi = self._level[:n], self._lo[:n], self._hi[:n]
        # Each dict copy is one C-level call.
        twin._unique = self._unique.copy()
        for name, _ids, _value_is_id in _CACHES:
            setattr(twin, name, getattr(self, name).copy())
        twin._var_nodes = self._var_nodes.copy()
        twin._nvar_nodes = self._nvar_nodes.copy()
        # Cubes and maps are read after the caches: an entry names only
        # a cube or map interned before it was written. Interning writes
        # the list last, so the lookups are rebuilt from the lists.
        twin._cube_list = list(self._cube_list)
        twin._cubes = {key: i for i, key in enumerate(twin._cube_list)}
        twin._map_list = list(self._map_list)
        twin._maps = {
            tuple(sorted(m.items())): i for i, m in enumerate(twin._map_list)
        }
        end = len(self._hi)
        if end != n or len(twin._unique) != n - 2:
            twin._trim_to(self, n, end)
        return twin

    def _trim_to(self, original: "BddEngine", n: int, end: int) -> None:
        """Repair this fork's copies of ``original``, taken while another
        thread grew it from ``n`` to ``end`` nodes: the unique keys of
        ids ``n … end - 1`` popped, every cache entry and variable node
        naming one of them dropped, and any node below ``n`` whose
        unique entry the copy missed (its ``_mk`` was between the lists
        and the table) entered again."""
        unique = self._unique
        levels, los, his = original._level, original._lo, original._hi
        for node in range(n, end):
            unique.pop(unique_key(levels[node], los[node], his[node]), None)
        levels, los, his = self._level, self._lo, self._hi
        for node in range(n - 1, 1, -1):
            if len(unique) == n - 2:
                break
            unique.setdefault(unique_key(levels[node], los[node], his[node]), node)
        if end == n:
            return
        for name, ids, value_is_id in _CACHES:
            setattr(self, name, {
                key: value
                for key, value in getattr(self, name).items()
                if _names_only_ids_below(key, value, ids, value_is_id, n)
            })
        for name in ("_var_nodes", "_nvar_nodes"):
            setattr(self, name, {
                level: node for level, node in getattr(self, name).items() if node < n
            })

    def stats(self) -> Dict[str, int]:
        """Engine size counters for telemetry: allocated nodes, the
        unique-table population, and total memoized operation-cache
        entries across all operation kinds."""
        ops_cached = sum(len(getattr(self, name)) for name, _, _ in _CACHES)
        return {
            "nodes": self.num_nodes(),
            "unique_table": len(self._unique),
            "ops_cached": ops_cached,
        }

    # ------------------------------------------------------------------
    # Boolean connectives

    def and_(self, a: int, b: int) -> int:
        """Conjunction — set intersection."""
        if a == b:
            return a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a > b:
            a, b = b, a
        key = a << 32 | b
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        level_a, level_b = self._level[a], self._level[b]
        if level_a == level_b:
            lo = self.and_(self._lo[a], self._lo[b])
            hi = self.and_(self._hi[a], self._hi[b])
            top = level_a
        elif level_a < level_b:
            lo = self.and_(self._lo[a], b)
            hi = self.and_(self._hi[a], b)
            top = level_a
        else:
            lo = self.and_(a, self._lo[b])
            hi = self.and_(a, self._hi[b])
            top = level_b
        result = self._mk(top, lo, hi)
        self._and_cache[key] = result
        return result

    def or_(self, a: int, b: int) -> int:
        """Disjunction — set union."""
        if a == b:
            return a
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a > b:
            a, b = b, a
        key = a << 32 | b
        cached = self._or_cache.get(key)
        if cached is not None:
            return cached
        level_a, level_b = self._level[a], self._level[b]
        if level_a == level_b:
            lo = self.or_(self._lo[a], self._lo[b])
            hi = self.or_(self._hi[a], self._hi[b])
            top = level_a
        elif level_a < level_b:
            lo = self.or_(self._lo[a], b)
            hi = self.or_(self._hi[a], b)
            top = level_a
        else:
            lo = self.or_(a, self._lo[b])
            hi = self.or_(a, self._hi[b])
            top = level_b
        result = self._mk(top, lo, hi)
        self._or_cache[key] = result
        return result

    def xor(self, a: int, b: int) -> int:
        """Exclusive or — symmetric set difference."""
        if a == b:
            return FALSE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == TRUE:
            return self.not_(b)
        if b == TRUE:
            return self.not_(a)
        if a > b:
            a, b = b, a
        key = a << 32 | b
        cached = self._xor_cache.get(key)
        if cached is not None:
            return cached
        level_a, level_b = self._level[a], self._level[b]
        if level_a == level_b:
            lo = self.xor(self._lo[a], self._lo[b])
            hi = self.xor(self._hi[a], self._hi[b])
            top = level_a
        elif level_a < level_b:
            lo = self.xor(self._lo[a], b)
            hi = self.xor(self._hi[a], b)
            top = level_a
        else:
            lo = self.xor(a, self._lo[b])
            hi = self.xor(a, self._hi[b])
            top = level_b
        result = self._mk(top, lo, hi)
        self._xor_cache[key] = result
        return result

    def not_(self, a: int) -> int:
        """Complement — set complement over the full variable universe."""
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            return cached
        result = self._mk(
            self._level[a], self.not_(self._lo[a]), self.not_(self._hi[a])
        )
        self._not_cache[a] = result
        self._not_cache[result] = a
        return result

    def diff(self, a: int, b: int) -> int:
        """Set difference ``a \\ b`` (i.e. ``a AND NOT b``)."""
        return self.and_(a, self.not_(b))

    def implies(self, a: int, b: int) -> bool:
        """True if every assignment in ``a`` is also in ``b``."""
        return self.diff(a, b) == FALSE

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self.not_(f)
        key = (f << 32 | g) << 32 | h
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self._level[f], self._level[g], self._level[h])
        f_lo, f_hi = self._cofactors(f, top)
        g_lo, g_hi = self._cofactors(g, top)
        h_lo, h_hi = self._cofactors(h, top)
        result = self._mk(
            top, self.ite(f_lo, g_lo, h_lo), self.ite(f_hi, g_hi, h_hi)
        )
        self._ite_cache[key] = result
        return result

    def _cofactors(self, a: int, level: int) -> Tuple[int, int]:
        if a <= TRUE or self._level[a] != level:
            return a, a
        return self._lo[a], self._hi[a]

    def and_all(self, operands: Iterable[int]) -> int:
        """N-ary conjunction via balanced-tree reduction (TRUE for the
        empty collection).

        A left-fold of :meth:`and_` builds one ever-growing accumulator
        that every further operand is merged into; pairing operands in a
        balanced tree keeps intermediate diagrams small and the
        operation caches hot, which is markedly faster for wide folds
        (ACL line unions, per-action FIB spaces, own-IP sets). The
        result is identical by canonicity: AND is associative,
        commutative, and idempotent, so operands are also deduplicated
        and id-sorted for deterministic cache keys.
        """
        layer = sorted({op for op in operands if op != TRUE})
        if not layer:
            return TRUE
        if layer[0] == FALSE:
            return FALSE
        while len(layer) > 1:
            reduced: List[int] = []
            for i in range(0, len(layer) - 1, 2):
                result = self.and_(layer[i], layer[i + 1])
                if result == FALSE:
                    return FALSE
                reduced.append(result)
            if len(layer) % 2:
                reduced.append(layer[-1])
            layer = reduced
        return layer[0]

    def or_all(self, operands: Iterable[int]) -> int:
        """N-ary disjunction via balanced-tree reduction (FALSE for the
        empty collection). See :meth:`and_all` for why the tree shape
        beats a left-fold."""
        layer = sorted({op for op in operands if op != FALSE})
        if not layer:
            return FALSE
        if layer[0] == TRUE:
            return TRUE
        while len(layer) > 1:
            reduced: List[int] = []
            for i in range(0, len(layer) - 1, 2):
                result = self.or_(layer[i], layer[i + 1])
                if result == TRUE:
                    return TRUE
                reduced.append(result)
            if len(layer) % 2:
                reduced.append(layer[-1])
            layer = reduced
        return layer[0]

    # ------------------------------------------------------------------
    # Quantification, renaming, relational product

    def cube(self, levels: Iterable[int]) -> int:
        """Intern a set of variable levels for quantification; returns a
        cube id usable with :meth:`exists` and :meth:`and_exists`."""
        key = tuple(sorted(set(levels)))
        cube_id = self._cubes.get(key)
        if cube_id is None:
            for level in key:
                self._check_level(level)
            cube_id = len(self._cube_list)
            self._cubes[key] = cube_id
            self._cube_list.append(key)
        return cube_id

    def exists(self, a: int, cube_id: int) -> int:
        """Existentially quantify the cube's variables out of ``a``."""
        return self._exists(a, cube_id, 0)

    def _exists(self, a: int, cube_id: int, idx: int) -> int:
        if a <= TRUE:
            return a
        levels = self._cube_list[cube_id]
        level_a = self._level[a]
        while idx < len(levels) and levels[idx] < level_a:
            idx += 1
        if idx == len(levels):
            return a
        key = (cube_id * 4096 + idx) << 32 | a
        cached = self._exists_cache.get(key)
        if cached is not None:
            return cached
        if level_a == levels[idx]:
            result = self.or_(
                self._exists(self._lo[a], cube_id, idx + 1),
                self._exists(self._hi[a], cube_id, idx + 1),
            )
        else:
            result = self._mk(
                level_a,
                self._exists(self._lo[a], cube_id, idx),
                self._exists(self._hi[a], cube_id, idx),
            )
        self._exists_cache[key] = result
        return result

    def rename_map(self, mapping: Dict[int, int]) -> int:
        """Intern a variable-to-variable rename map.

        The mapping must be order-preserving over its domain (if
        ``u < v`` then ``mapping[u] < mapping[v]``) so the result stays
        ordered without re-sorting; the transformation variable layout
        guarantees this (paired variables are interleaved).
        """
        items = tuple(sorted(mapping.items()))
        previous_target = -1
        for source, target in items:
            self._check_level(source)
            self._check_level(target)
            if target <= previous_target:
                raise ValueError("rename map must be order-preserving")
            previous_target = target
        map_id = self._maps.get(items)
        if map_id is None:
            map_id = len(self._map_list)
            self._maps[items] = map_id
            self._map_list.append(dict(items))
        return map_id

    def rename(self, a: int, map_id: int) -> int:
        """Rename variables of ``a`` per an interned order-preserving map."""
        if a <= TRUE:
            return a
        key = map_id << 32 | a
        cached = self._rename_cache.get(key)
        if cached is not None:
            return cached
        mapping = self._map_list[map_id]
        level = self._level[a]
        result = self._mk(
            mapping.get(level, level),
            self.rename(self._lo[a], map_id),
            self.rename(self._hi[a], map_id),
        )
        self._rename_cache[key] = result
        return result

    def permute(self, a: int, mapping: Dict[int, int]) -> int:
        """Apply an arbitrary variable bijection (not necessarily
        order-preserving), rebuilding the BDD bottom-up with ITE.

        Unlike :meth:`rename`, this supports permutations such as
        swapping the source/destination endpoint fields (used by
        bidirectional reachability to turn a session set into the
        matching return-traffic set). Worst-case cost is higher than an
        order-preserving rename, but memoization keeps typical
        (near-rectangular) packet sets cheap.
        """
        memo: Dict[int, int] = {}
        return self._permute(a, mapping, memo)

    def _permute(self, a: int, mapping: Dict[int, int], memo: Dict[int, int]) -> int:
        if a <= TRUE:
            return a
        cached = memo.get(a)
        if cached is not None:
            return cached
        level = self._level[a]
        target = mapping.get(level, level)
        result = self.ite(
            self.var(target),
            self._permute(self._hi[a], mapping, memo),
            self._permute(self._lo[a], mapping, memo),
        )
        memo[a] = result
        return result

    def and_exists(self, a: int, b: int, cube_id: int) -> int:
        """Fused relational product: ``exists(cube, a AND b)``.

        This is the optimized single-pass operation the paper describes
        for applying NAT rules: intersect the reachable set with the
        transformation relation and project away the input variables
        without materializing the intermediate conjunction.
        """
        return self._and_exists(a, b, cube_id, 0)

    def _and_exists(self, a: int, b: int, cube_id: int, idx: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE and b == TRUE:
            return TRUE
        levels = self._cube_list[cube_id]
        level_a = self._level[a]
        level_b = self._level[b]
        top = level_a if level_a < level_b else level_b
        while idx < len(levels) and levels[idx] < top:
            idx += 1
        if idx == len(levels):
            return self.and_(a, b)
        if a > b:
            a, b = b, a
            level_a, level_b = level_b, level_a
        key = ((cube_id * 4096 + idx) << 32 | a) << 32 | b
        cached = self._andex_cache.get(key)
        if cached is not None:
            return cached
        a_lo, a_hi = self._cofactors(a, top)
        b_lo, b_hi = self._cofactors(b, top)
        if top == levels[idx]:
            lo = self._and_exists(a_lo, b_lo, cube_id, idx + 1)
            if lo == TRUE:
                result = TRUE
            else:
                hi = self._and_exists(a_hi, b_hi, cube_id, idx + 1)
                result = self.or_(lo, hi)
        else:
            lo = self._and_exists(a_lo, b_lo, cube_id, idx)
            hi = self._and_exists(a_hi, b_hi, cube_id, idx)
            result = self._mk(top, lo, hi)
        self._andex_cache[key] = result
        return result

    def transform(self, a: int, relation: int, cube_id: int, map_id: int) -> int:
        """Apply a transformation relation to the set ``a``.

        ``relation`` relates input variables (shared with ``a``) to output
        variables; ``cube_id`` names the input variables to project away;
        ``map_id`` renames output variables back onto input variables.
        """
        return self.rename(self.and_exists(a, relation, cube_id), map_id)

    # ------------------------------------------------------------------
    # Satisfiability and model extraction

    def is_empty(self, a: int) -> bool:
        """True if the set ``a`` contains no assignment."""
        return a == FALSE

    def sat_count(self, a: int, over_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over the first ``over_vars``
        variables (default: the whole universe)."""
        if over_vars is None:
            over_vars = self.num_vars
        total = self._sat_count(a)
        # _sat_count computes over all num_vars; scale down if asked for a
        # smaller universe (only valid if a's support fits within it).
        if over_vars > self.num_vars:
            return total << (over_vars - self.num_vars)
        if over_vars < self.num_vars:
            support = self.support(a)
            if support and support[-1] >= over_vars:
                raise ValueError("function depends on variables beyond over_vars")
            return total >> (self.num_vars - over_vars)
        return total

    def _sat_count(self, a: int) -> int:
        """Count assignments over the full universe of ``num_vars`` vars."""
        if a == FALSE:
            return 0
        if a == TRUE:
            return 1 << self.num_vars
        cached = self._count_cache.get(a)
        if cached is not None:
            return cached
        level = self._level[a]
        lo, hi = self._lo[a], self._hi[a]
        lo_level = self._level[lo] if lo > TRUE else self.num_vars
        hi_level = self._level[hi] if hi > TRUE else self.num_vars
        # _sat_count(child) already counts free vars above the child's level;
        # divide out the vars above `level + 1` and re-weight.
        count = (self._sat_count(lo) >> (lo_level)) * (
            1 << (lo_level - level - 1)
        ) + (self._sat_count(hi) >> (hi_level)) * (1 << (hi_level - level - 1))
        result = count << level
        self._count_cache[a] = result
        return result

    def any_sat(self, a: int) -> Optional[Dict[int, int]]:
        """Return one satisfying partial assignment (level -> bit), or
        ``None`` if the set is empty. Unmentioned variables are free."""
        if a == FALSE:
            return None
        assignment: Dict[int, int] = {}
        node = a
        while node > TRUE:
            if self._hi[node] != FALSE:
                assignment[self._level[node]] = 1
                node = self._hi[node]
            else:
                assignment[self._level[node]] = 0
                node = self._lo[node]
        return assignment

    def best_sat(
        self, a: int, preferences: Iterable[int]
    ) -> Optional[Dict[int, int]]:
        """Pick a satisfying assignment guided by preference constraints.

        Each preference is itself a BDD; preferences are applied greedily
        in order, keeping each one only if the intersection stays
        non-empty. This is the paper's example-selection mechanism
        (§4.4.3): "BDDs help to select positive and negative examples
        quickly by intersecting the answer space with preference
        constraints."
        """
        if a == FALSE:
            return None
        current = a
        for preference in preferences:
            narrowed = self.and_(current, preference)
            if narrowed != FALSE:
                current = narrowed
        return self.any_sat(current)

    def support(self, a: int) -> Tuple[int, ...]:
        """Sorted tuple of the variable levels the function depends on."""
        seen = set()
        levels = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return tuple(sorted(levels))

    def size(self, a: int) -> int:
        """Number of distinct decision nodes reachable from ``a``
        (terminals excluded)."""
        seen = set()
        stack = [a]
        count = 0
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            count += 1
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return count

    def restrict(self, a: int, level: int, bit: int) -> int:
        """Cofactor: fix variable ``level`` to ``bit`` in ``a``."""
        self._check_level(level)
        return self._restrict(a, level, bit, {})

    def _restrict(
        self, a: int, level: int, bit: int, memo: Dict[int, int]
    ) -> int:
        if a <= TRUE or self._level[a] > level:
            return a
        cached = memo.get(a)
        if cached is not None:
            return cached
        if self._level[a] == level:
            result = self._hi[a] if bit else self._lo[a]
        else:
            result = self._mk(
                self._level[a],
                self._restrict(self._lo[a], level, bit, memo),
                self._restrict(self._hi[a], level, bit, memo),
            )
        memo[a] = result
        return result

    def eval(self, a: int, assignment: Dict[int, int]) -> bool:
        """Evaluate the function under a total assignment (level -> bit).

        Variables absent from the assignment default to 0.
        """
        node = a
        while node > TRUE:
            if assignment.get(self._level[node], 0):
                node = self._hi[node]
            else:
                node = self._lo[node]
        return node == TRUE

    def from_assignment(self, assignment: Dict[int, int]) -> int:
        """The minterm BDD for a (partial) assignment (level -> bit)."""
        result = TRUE
        for level in sorted(assignment, reverse=True):
            if assignment[level]:
                result = self._mk(level, FALSE, result)
            else:
                result = self._mk(level, result, FALSE)
        return result

    def sat_iter(
        self, a: int, limit: int = 1 << 20
    ) -> Iterator[Dict[int, int]]:
        """Iterate satisfying partial assignments (cubes), up to ``limit``."""
        if a == FALSE:
            return
        emitted = 0
        stack: List[Tuple[int, Dict[int, int]]] = [(a, {})]
        while stack:
            node, partial = stack.pop()
            if node == TRUE:
                yield partial
                emitted += 1
                if emitted >= limit:
                    return
                continue
            if node == FALSE:
                continue
            level = self._level[node]
            if self._hi[node] != FALSE:
                hi_partial = dict(partial)
                hi_partial[level] = 1
                stack.append((self._hi[node], hi_partial))
            if self._lo[node] != FALSE:
                lo_partial = dict(partial)
                lo_partial[level] = 0
                stack.append((self._lo[node], lo_partial))

    def canonical(self, a: int) -> object:
        """Engine-independent structural form of ``a``.

        Returns nested tuples ``(level, lo, hi)`` with the terminals as
        ``0``/``1``. Because ROBDDs are canonical for a fixed variable
        order, two functions built in *different* engines over the same
        variable order are semantically equal iff their canonical forms
        compare equal — the property the delta validator uses to compare
        a delta session's forwarding graph with a from-scratch one.
        """
        memo: Dict[int, object] = {FALSE: 0, TRUE: 1}

        def walk(node: int) -> object:
            got = memo.get(node)
            if got is not None:
                return got
            result = (
                self._level[node],
                walk(self._lo[node]),
                walk(self._hi[node]),
            )
            memo[node] = result
            return result

        return walk(a)

    def clear_caches(self) -> None:
        """Drop all operation caches (useful for memory benchmarks)."""
        for name, _, _ in _CACHES:
            getattr(self, name).clear()
