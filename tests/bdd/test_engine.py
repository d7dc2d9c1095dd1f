"""Tests for the ROBDD engine, including property-based validation of the
BDD algebra against explicit truth tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import (
    FALSE,
    ID_BITS,
    LEVEL_BITS,
    TRUE,
    BddCapacityError,
    BddEngine,
    unique_key,
)


@pytest.fixture
def engine():
    return BddEngine(num_vars=8)


class TestBasics:
    def test_terminals(self, engine):
        assert engine.not_(TRUE) == FALSE
        assert engine.not_(FALSE) == TRUE
        assert engine.and_(TRUE, FALSE) == FALSE
        assert engine.or_(TRUE, FALSE) == TRUE

    def test_var_canonical(self, engine):
        assert engine.var(3) == engine.var(3)
        assert engine.var(3) != engine.var(4)

    def test_nvar_is_not_var(self, engine):
        assert engine.nvar(2) == engine.not_(engine.var(2))

    def test_var_out_of_range(self, engine):
        with pytest.raises(ValueError):
            engine.var(8)
        with pytest.raises(ValueError):
            engine.nvar(-1)

    def test_zero_vars_rejected(self):
        with pytest.raises(ValueError):
            BddEngine(0)

    def test_idempotence_and_canonicity(self, engine):
        a = engine.var(0)
        b = engine.var(1)
        ab1 = engine.and_(a, b)
        ab2 = engine.and_(b, a)
        assert ab1 == ab2  # canonical: same function, same id

    def test_complement_involution(self, engine):
        f = engine.or_(engine.var(0), engine.nvar(3))
        assert engine.not_(engine.not_(f)) == f

    def test_excluded_middle(self, engine):
        f = engine.xor(engine.var(1), engine.var(2))
        assert engine.or_(f, engine.not_(f)) == TRUE
        assert engine.and_(f, engine.not_(f)) == FALSE

    def test_diff(self, engine):
        a, b = engine.var(0), engine.var(1)
        d = engine.diff(a, b)
        assert engine.and_(d, b) == FALSE
        assert engine.or_(d, engine.and_(a, b)) == a

    def test_implies(self, engine):
        a, b = engine.var(0), engine.var(1)
        assert engine.implies(engine.and_(a, b), a)
        assert not engine.implies(a, engine.and_(a, b))

    def test_ite(self, engine):
        f, g, h = engine.var(0), engine.var(1), engine.var(2)
        ite = engine.ite(f, g, h)
        expected = engine.or_(engine.and_(f, g), engine.and_(engine.not_(f), h))
        assert ite == expected

    def test_ite_shortcuts(self, engine):
        g, h = engine.var(1), engine.var(2)
        assert engine.ite(TRUE, g, h) == g
        assert engine.ite(FALSE, g, h) == h
        assert engine.ite(engine.var(0), TRUE, FALSE) == engine.var(0)
        assert engine.ite(engine.var(0), FALSE, TRUE) == engine.nvar(0)
        assert engine.ite(engine.var(0), g, g) == g

    def test_and_all_or_all(self, engine):
        vs = [engine.var(i) for i in range(4)]
        assert engine.and_all([]) == TRUE
        assert engine.or_all([]) == FALSE
        conj = engine.and_all(vs)
        for i in range(4):
            assert engine.implies(conj, vs[i])
        disj = engine.or_all(vs)
        assert engine.implies(vs[2], disj)


class TestEvalAndModels:
    def test_eval(self, engine):
        f = engine.and_(engine.var(0), engine.nvar(1))
        assert engine.eval(f, {0: 1, 1: 0})
        assert not engine.eval(f, {0: 1, 1: 1})
        assert not engine.eval(f, {0: 0})

    def test_any_sat_of_false(self, engine):
        assert engine.any_sat(FALSE) is None

    def test_any_sat_satisfies(self, engine):
        f = engine.and_(engine.var(2), engine.nvar(5))
        model = engine.any_sat(f)
        assert engine.eval(f, model)

    def test_from_assignment(self, engine):
        f = engine.from_assignment({1: 1, 3: 0})
        assert engine.eval(f, {1: 1, 3: 0})
        assert not engine.eval(f, {1: 1, 3: 1})

    def test_sat_count(self, engine):
        assert engine.sat_count(TRUE) == 256
        assert engine.sat_count(FALSE) == 0
        assert engine.sat_count(engine.var(0)) == 128
        f = engine.and_(engine.var(0), engine.var(7))
        assert engine.sat_count(f) == 64

    def test_sat_count_smaller_universe(self, engine):
        f = engine.var(0)
        assert engine.sat_count(f, over_vars=1) == 1

    def test_sat_count_rejects_dependent_vars(self, engine):
        with pytest.raises(ValueError):
            engine.sat_count(engine.var(7), over_vars=2)

    def test_sat_iter_enumerates_disjoint_cubes(self, engine):
        f = engine.xor(engine.var(0), engine.var(1))
        cubes = list(engine.sat_iter(f))
        assert len(cubes) == 2
        for cube in cubes:
            assert engine.eval(f, cube)

    def test_sat_iter_limit(self, engine):
        assert len(list(engine.sat_iter(TRUE, limit=1))) == 1

    def test_best_sat_respects_preference(self, engine):
        f = TRUE
        prefer = engine.and_(engine.var(0), engine.var(1))
        model = engine.best_sat(f, [prefer])
        assert model[0] == 1 and model[1] == 1

    def test_best_sat_skips_unsatisfiable_preference(self, engine):
        f = engine.nvar(0)
        model = engine.best_sat(f, [engine.var(0), engine.var(1)])
        assert model[0] == 0  # first preference conflicts, dropped
        assert model[1] == 1  # second applies

    def test_best_sat_of_empty(self, engine):
        assert engine.best_sat(FALSE, [engine.var(0)]) is None


class TestStructure:
    def test_support(self, engine):
        f = engine.and_(engine.var(1), engine.or_(engine.var(4), engine.nvar(6)))
        assert engine.support(f) == (1, 4, 6)
        assert engine.support(TRUE) == ()

    def test_size(self, engine):
        assert engine.size(TRUE) == 0
        assert engine.size(engine.var(0)) == 1
        f = engine.and_(engine.var(0), engine.var(1))
        assert engine.size(f) == 2

    def test_restrict(self, engine):
        f = engine.and_(engine.var(0), engine.var(1))
        assert engine.restrict(f, 0, 1) == engine.var(1)
        assert engine.restrict(f, 0, 0) == FALSE

    def test_mk_is_canonical(self, engine):
        assert engine.mk(2, FALSE, TRUE) == engine.var(2)
        assert engine.mk(2, engine.var(5), engine.var(5)) == engine.var(5)
        both = engine.mk(0, FALSE, engine.mk(1, FALSE, TRUE))
        assert both == engine.and_(engine.var(0), engine.var(1))
        ite = engine.mk(1, engine.var(4), engine.nvar(6))
        assert ite == engine.ite(engine.var(1), engine.nvar(6), engine.var(4))

    def test_pinned_is_the_minterm_built_bottom_up(self, engine):
        assert engine.pinned((1, 3, 4), 0b101) == engine.from_assignment(
            {1: 1, 3: 0, 4: 1}
        )
        below = engine.var(6)
        assert engine.pinned((2, 5), 0b01, below) == engine.and_(
            engine.from_assignment({2: 0, 5: 1}), below
        )
        assert engine.pinned((), 7) == TRUE
        with pytest.raises(ValueError):
            engine.pinned((2, 6), 0, below)

    def test_mk_rejects_unordered_cofactors(self, engine):
        with pytest.raises(ValueError):
            engine.mk(3, engine.var(3), TRUE)
        with pytest.raises(ValueError):
            engine.mk(5, FALSE, engine.var(1))
        with pytest.raises(ValueError):
            engine.mk(8, FALSE, TRUE)

    def test_clear_caches_preserves_functions(self, engine):
        f = engine.and_(engine.var(0), engine.var(1))
        engine.clear_caches()
        assert engine.and_(engine.var(0), engine.var(1)) == f


class TestQuantification:
    def test_exists_removes_var(self, engine):
        f = engine.and_(engine.var(0), engine.var(1))
        cube = engine.cube([0])
        assert engine.exists(f, cube) == engine.var(1)

    def test_exists_of_unconstrained_var(self, engine):
        f = engine.var(1)
        cube = engine.cube([0, 5])
        assert engine.exists(f, cube) == f

    def test_exists_all_support(self, engine):
        f = engine.xor(engine.var(2), engine.var(3))
        cube = engine.cube([2, 3])
        assert engine.exists(f, cube) == TRUE

    def test_cube_interning(self, engine):
        assert engine.cube([3, 1]) == engine.cube([1, 3, 3])

    def test_rename(self, engine):
        f = engine.and_(engine.var(0), engine.nvar(2))
        mapping = engine.rename_map({0: 1, 2: 3})
        g = engine.rename(f, mapping)
        assert g == engine.and_(engine.var(1), engine.nvar(3))

    def test_rename_must_preserve_order(self, engine):
        with pytest.raises(ValueError):
            engine.rename_map({0: 5, 2: 3})

    def test_and_exists_equals_unfused(self, engine):
        a = engine.or_(engine.var(0), engine.var(2))
        b = engine.and_(engine.var(0), engine.var(3))
        cube = engine.cube([0])
        fused = engine.and_exists(a, b, cube)
        unfused = engine.exists(engine.and_(a, b), cube)
        assert fused == unfused

    def test_transform_models_rewrite(self, engine):
        # Variables: input bit 0, output bit 1. Relation: out = NOT in.
        relation = engine.xor(engine.var(0), engine.var(1))
        cube = engine.cube([0])
        rename = engine.rename_map({1: 0})
        # Input set: bit0 = 1. After "negate" transform: bit0 = 0.
        result = engine.transform(engine.var(0), relation, cube, rename)
        assert result == engine.nvar(0)


def _truth_table(engine, node, nvars):
    return tuple(
        engine.eval(node, {i: (row >> i) & 1 for i in range(nvars)})
        for row in range(1 << nvars)
    )


@st.composite
def _random_expr(draw, depth=0):
    """Random boolean expression over 5 variables as a nested tuple."""
    if depth >= 4 or draw(st.booleans()):
        return ("var", draw(st.integers(min_value=0, max_value=4)))
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return ("not", draw(_random_expr(depth + 1)))
    return (op, draw(_random_expr(depth + 1)), draw(_random_expr(depth + 1)))


def _build(engine, expr):
    if expr[0] == "var":
        return engine.var(expr[1])
    if expr[0] == "not":
        return engine.not_(_build(engine, expr[1]))
    lhs, rhs = _build(engine, expr[1]), _build(engine, expr[2])
    return {"and": engine.and_, "or": engine.or_, "xor": engine.xor}[expr[0]](lhs, rhs)


def _eval_expr(expr, bits):
    if expr[0] == "var":
        return bits[expr[1]]
    if expr[0] == "not":
        return 1 - _eval_expr(expr[1], bits)
    lhs, rhs = _eval_expr(expr[1], bits), _eval_expr(expr[2], bits)
    return {"and": lhs & rhs, "or": lhs | rhs, "xor": lhs ^ rhs}[expr[0]]


class TestAlgebraProperties:
    @given(_random_expr())
    @settings(max_examples=200)
    def test_bdd_matches_truth_table(self, expr):
        engine = BddEngine(5)
        node = _build(engine, expr)
        for row in range(32):
            bits = [(row >> i) & 1 for i in range(5)]
            assignment = {i: bits[i] for i in range(5)}
            assert engine.eval(node, assignment) == bool(_eval_expr(expr, bits))

    @given(_random_expr(), _random_expr())
    @settings(max_examples=100)
    def test_de_morgan(self, e1, e2):
        engine = BddEngine(5)
        a, b = _build(engine, e1), _build(engine, e2)
        assert engine.not_(engine.and_(a, b)) == engine.or_(
            engine.not_(a), engine.not_(b)
        )

    @given(_random_expr())
    @settings(max_examples=100)
    def test_sat_count_matches_enumeration(self, expr):
        engine = BddEngine(5)
        node = _build(engine, expr)
        explicit = sum(
            _eval_expr(expr, [(row >> i) & 1 for i in range(5)])
            for row in range(32)
        )
        assert engine.sat_count(node) == explicit

    @given(_random_expr(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=100)
    def test_exists_is_or_of_cofactors(self, expr, level):
        engine = BddEngine(5)
        node = _build(engine, expr)
        quantified = engine.exists(node, engine.cube([level]))
        expected = engine.or_(
            engine.restrict(node, level, 0), engine.restrict(node, level, 1)
        )
        assert quantified == expected

    @given(_random_expr(), _random_expr())
    @settings(max_examples=100)
    def test_and_exists_matches_unfused(self, e1, e2):
        engine = BddEngine(5)
        a, b = _build(engine, e1), _build(engine, e2)
        cube = engine.cube([1, 3])
        assert engine.and_exists(a, b, cube) == engine.exists(
            engine.and_(a, b), cube
        )

    @given(
        _random_expr(), _random_expr(), st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=100)
    def test_graft_is_the_ite_of_its_cube(self, e1, e2, length, value):
        """``graft(a, levels, value, sub)`` is "``sub`` under the cube,
        ``a`` elsewhere", node for node."""
        engine = BddEngine(5)
        a, sub = _build(engine, e1), _build(engine, e2)
        levels = list(range(length))
        value &= (1 << length) - 1
        if levels:  # sub must not test the cube's variables
            sub = engine.exists(sub, engine.cube(levels))
        expected = engine.ite(engine.pinned(levels, value), sub, a)
        assert engine.graft(a, levels, value, sub) == expected
        assert engine.graft(expected, levels, value, sub) == expected


def _prefix_table(engine, n):
    """The unique table of ``engine``'s first ``n`` nodes, built from
    its node store with the engine's key function."""
    return {
        unique_key(engine._level[i], engine._lo[i], engine._hi[i]): i
        for i in range(2, n)
    }


#: Per operation cache, the node ids its key packs (each ``ID_BITS``
#: wide, lowest field last) and whether its value is a node id.
_CACHE_IDS = {
    "_and_cache": (2, True),
    "_or_cache": (2, True),
    "_xor_cache": (2, True),
    "_not_cache": (1, True),
    "_ite_cache": (3, True),
    "_exists_cache": (1, True),
    "_rename_cache": (1, True),
    "_andex_cache": (2, True),
    "_count_cache": (1, False),
}


def _assert_self_contained(engine):
    """A fork's invariant: the unique table maps exactly the ids the
    store holds, and every cache entry and variable node names only
    those ids (and only interned cubes and rename maps)."""
    assert {name for name in vars(engine) if name.endswith("_cache")} == set(_CACHE_IDS)
    n, mask = engine.num_nodes(), (1 << ID_BITS) - 1
    assert engine._unique == _prefix_table(engine, n)
    for name, (ids, value_is_id) in _CACHE_IDS.items():
        for key, value in getattr(engine, name).items():
            assert not value_is_id or value < n, name
            assert all((key >> (ID_BITS * i)) & mask < n for i in range(ids)), name
    for key in engine._exists_cache:
        assert key >> (ID_BITS + LEVEL_BITS) < len(engine._cube_list)
    for key in engine._andex_cache:
        assert key >> (2 * ID_BITS + LEVEL_BITS) < len(engine._cube_list)
    for key in engine._rename_cache:
        assert key >> ID_BITS < len(engine._map_list)
    assert all(node < n for node in engine._var_nodes.values())
    assert all(node < n for node in engine._nvar_nodes.values())


class TestFork:
    """``fork()``: the whole engine, nodes and caches, as a private one."""

    @staticmethod
    def _grown():
        """An engine with a few functions, an interned cube and a
        rename map; returns it with the roots built so far."""
        engine = BddEngine(8)
        a, b, c = engine.var(0), engine.var(1), engine.nvar(2)
        roots = [
            engine.and_(a, engine.or_(b, c)),
            engine.xor(engine.var(3), engine.and_(b, engine.var(5))),
            engine.pinned((2, 4, 6), 0b101),
        ]
        return engine, roots

    def test_keeps_id_and_function_of_every_node_below_n(self):
        engine, _roots = self._grown()
        engine.exists(engine.ite(engine.var(6), engine.var(7), engine.nvar(1)), engine.cube([6]))
        n = engine.num_nodes()
        twin = engine.fork()
        assert twin.num_nodes() == n and twin.num_vars == engine.num_vars
        for node in range(n):
            assert twin.canonical(node) == engine.canonical(node)
        assert twin.stats() == engine.stats()
        # Hash-consing works on the copied store, and the copied caches
        # answer: rebuilding a function adds no node and no entry.
        assert twin.and_(
            twin.var(0), twin.or_(twin.var(1), twin.nvar(2))
        ) == engine.and_(engine.var(0), engine.or_(engine.var(1), engine.nvar(2)))
        assert twin.stats() == engine.stats()

    def test_copies_the_unique_table_and_every_cache(self):
        """Every table the engine keeps is copied whole, and the copies
        are the twin's own: the original growing after the fork leaves
        them as they were."""
        engine, roots = self._grown()
        cube, rename = engine.cube([0, 3]), engine.rename_map({1: 0})
        relation = engine.xor(engine.var(0), engine.var(1))
        for root in roots:
            engine.sat_count(engine.transform(engine.not_(root), relation, cube, rename))
            engine.exists(engine.ite(root, relation, engine.var(7)), cube)
        names = ["_unique", *_CACHE_IDS, "_var_nodes", "_nvar_nodes", "_cubes", "_maps"]
        twin = engine.fork()
        for name in names:
            assert getattr(twin, name) == getattr(engine, name), name
            assert getattr(twin, name) is not getattr(engine, name), name
        assert twin._cube_list == engine._cube_list
        assert twin._map_list == engine._map_list
        assert all(getattr(twin, name) for name in _CACHE_IDS)
        _assert_self_contained(twin)
        copied = {name: dict(getattr(twin, name)) for name in names}
        engine.or_all(engine.pinned(range(8), value) for value in range(40))
        engine.cube([5])
        assert {name: getattr(twin, name) for name in names} == copied

    def test_copies_taken_while_the_store_grows_are_repaired(self):
        """What the thread querying the original does between the
        fork's reads, done here at the worst moment: a query grows the
        store just before the unique table is copied, or a ``_mk`` is
        caught between the node lists and the table. The twin holds the
        nodes the store had when the fork began, and nothing past them."""
        engine, roots = self._grown()
        cube = engine.cube([0, 3])
        values = iter(range(256))

        class GrowsFirst(dict):
            def copy(self):
                for root in roots:
                    engine.and_exists(root, engine.pinned(range(8), next(values)), cube)
                    engine.not_(engine.or_(root, engine.pinned(range(8), next(values))))
                return dict.copy(self)

        n = engine.num_nodes()
        engine._unique = GrowsFirst(engine._unique)
        twin = engine.fork()
        assert engine.num_nodes() > n and twin.num_nodes() == n
        _assert_self_contained(twin)
        for root in roots:
            assert twin.canonical(twin.and_exists(root, twin.var(6), cube)) == (
                engine.canonical(engine.and_exists(root, engine.var(6), cube))
            )
        # A _mk's first half: the node is in the lists, not the table.
        engine = BddEngine(4)
        engine.var(0)
        engine._level.append(1), engine._lo.append(FALSE), engine._hi.append(TRUE)
        twin = engine.fork()
        _assert_self_contained(twin)
        assert twin.var(1) == 3 and twin.num_nodes() == 4

    def test_twin_and_original_grow_independently(self):
        engine, roots = self._grown()
        n = engine.num_nodes()
        twin = engine.fork()
        on_twin = twin.and_(roots[0], twin.var(7))
        assert engine.num_nodes() == n  # the original did not move
        on_original = engine.or_(roots[1], engine.nvar(6))
        assert twin.num_nodes() > n and engine.num_nodes() > n
        # Past n the two stores differ; the same function is still the
        # same function on either.
        assert twin.canonical(on_twin) == engine.canonical(
            engine.and_(roots[0], engine.var(7))
        )
        assert engine.canonical(on_original) == twin.canonical(
            twin.or_(roots[1], twin.nvar(6))
        )

    def test_cube_and_rename_map_interned_before_the_fork(self):
        engine, roots = self._grown()
        cube = engine.cube([0, 3])
        rename = engine.rename_map({1: 0})
        relation = engine.xor(engine.var(0), engine.var(1))
        out_cube = engine.cube([0])
        twin = engine.fork()
        for root in roots:
            assert twin.canonical(twin.exists(root, cube)) == engine.canonical(
                engine.exists(root, cube)
            )
            assert twin.canonical(
                twin.transform(root, relation, out_cube, rename)
            ) == engine.canonical(
                engine.transform(root, relation, out_cube, rename)
            )
        # Interning again finds the copied entries; a new cube is the
        # twin's own.
        assert twin.cube([3, 0]) == cube and twin.rename_map({1: 0}) == rename
        fresh = twin.cube([5])
        assert fresh not in (cube, out_cube)
        assert engine.cube([6]) == fresh  # next free id on either side

    @given(
        st.lists(_random_expr(), min_size=1, max_size=4),
        st.lists(_random_expr(), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_operations_after_the_fork_agree(self, before, after):
        """Operations after the fork, on nodes from before it and after,
        and through the copied caches, give the same functions on the
        twin as on the original."""
        engine = BddEngine(5)
        roots = [_build(engine, expr) for expr in before]
        cube = engine.cube([1, 3])
        for root in roots:
            engine.and_exists(root, engine.not_(root), cube)
        twin = engine.fork()
        for expr in after:
            ours, theirs = _build(engine, expr), _build(twin, expr)
            assert engine.canonical(ours) == twin.canonical(theirs)
            for root in roots:
                assert engine.canonical(engine.and_(root, ours)) == twin.canonical(
                    twin.and_(root, theirs)
                )
                assert engine.canonical(
                    engine.and_exists(root, ours, cube)
                ) == twin.canonical(twin.and_exists(root, theirs, cube))

    def test_fork_while_another_thread_queries_the_original(self, monkeypatch):
        """A fork takes no lock: taken while ``fates()`` grows the
        original, it never raises, and every twin holds the invariant
        (its unique table exactly its ids, its caches naming no other)
        and answers as an engine forked while nothing ran does."""
        import sys
        import threading

        from repro.core.session import Session
        from repro.reachability.graph import Constraint
        from repro.synth.networks import network_by_name

        analyzer = Session.from_texts(network_by_name("NET6").generate(1)).analyzer
        encoder = analyzer.encoder
        n = encoder.engine.num_nodes()
        labels = sorted(
            {e.fn.label for e in analyzer.graph.edges if isinstance(e.fn, Constraint)}
        )
        quiet = encoder.fork().engine
        expected = [quiet.canonical(label) for label in labels]
        pairs = list(zip(labels, labels[1:]))
        answer = quiet.canonical(quiet.or_all(quiet.and_(a, b) for a, b in pairs))
        repairs = []
        trim_to = BddEngine._trim_to

        def counted(twin, original, at, end):
            repairs.append(end - at)
            trim_to(twin, original, at, end)

        monkeypatch.setattr(BddEngine, "_trim_to", counted)
        errors, twins = [], []
        started = threading.Event()

        def query():
            try:
                started.set()
                analyzer.fates()
            except Exception as error:
                errors.append(error)

        thread = threading.Thread(target=query)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            assert started.wait(timeout=60)
            while thread.is_alive() and len(twins) < 100:
                twins.append(encoder.fork().engine)
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and not errors
        assert twins and encoder.engine.num_nodes() > n  # the query did run
        # Forks ran while the store grew, and were repaired.
        assert any(grown > 0 for grown in repairs)
        sizes = sorted({twin.num_nodes() for twin in twins})
        assert sizes[0] >= n and len(sizes) > 1
        for twin in twins[:: max(1, len(twins) // 8)]:
            _assert_self_contained(twin)
            assert [twin.canonical(label) for label in labels] == expected
            # Usable, on copied caches: an operation over copied nodes.
            result = twin.or_all(twin.and_(a, b) for a, b in pairs)
            assert twin.canonical(result) == answer


class TestPackedKeys:
    """Every table is keyed by one packed int, and a value too wide for
    its field is refused rather than allowed to collide."""

    _TABLES = (
        "_unique", "_and_cache", "_or_cache", "_xor_cache", "_not_cache",
        "_ite_cache", "_exists_cache", "_rename_cache", "_andex_cache",
        "_count_cache",
    )

    def test_no_table_holds_a_non_int_key_after_a_nat_network(self):
        from repro.core.session import Session
        from repro.synth.networks import network_by_name

        session = Session.from_texts(network_by_name("NET8").generate(1))
        analyzer = session.analyzer
        analyzer.fates()
        session.reachability()
        engine = analyzer.encoder.engine
        # NAT drives the relational product, quantification and renaming.
        for name in ("_andex_cache", "_exists_cache", "_rename_cache"):
            assert getattr(engine, name), name
        for name in self._TABLES:
            table = getattr(engine, name)
            assert all(type(key) is int for key in table), name

    @given(
        st.integers(0, (1 << LEVEL_BITS) - 1),
        st.integers(0, (1 << ID_BITS) - 1),
        st.integers(0, (1 << ID_BITS) - 1),
    )
    def test_unique_key_reads_back_inside_its_bounds(self, level, lo, hi):
        """Each field is recovered from the key, so no two nodes share one."""
        key = unique_key(level, lo, hi)
        assert key & ((1 << LEVEL_BITS) - 1) == level
        assert (key >> LEVEL_BITS) & ((1 << ID_BITS) - 1) == hi
        assert key >> (LEVEL_BITS + ID_BITS) == lo

    def test_a_level_past_its_field_is_refused_at_construction(self):
        assert BddEngine((1 << LEVEL_BITS) - 1).num_vars == (1 << LEVEL_BITS) - 1
        with pytest.raises(BddCapacityError, match="variables"):
            BddEngine(1 << LEVEL_BITS)

    def test_an_id_past_its_field_is_refused_where_it_is_allocated(self):
        class Full(list):
            """A node store that reports the first id a key cannot hold."""

            def __len__(self):
                return 1 << ID_BITS

        engine = BddEngine(4)
        a = engine.var(0)
        engine._level = Full(engine._level)
        # A node that exists is still found ...
        assert engine.var(0) == a and engine.and_(a, a) == a
        # ... a new one would need id 2**32, whose key would collide.
        assert unique_key(1, FALSE, 1 << ID_BITS) == unique_key(1, TRUE, FALSE)
        with pytest.raises(BddCapacityError, match="node id"):
            engine.var(1)
        assert engine._unique == {unique_key(0, FALSE, TRUE): a}
