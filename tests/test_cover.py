"""Cover semantics: bijections, straightening, residuals, the solver."""

import itertools
import random
import sys
import time

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cover, random_graph, random_sigma, torus_graph
from dpcolor import cover
from dpcolor.cover import (
    CoverError, CoverInstance, _search, brute_force_transversal,
    find_transversal, identity, invert, is_independent,
)
from dpcolor.generate import generate_corpus
from dpcolor.graphs import Graph


class TestBijections:
    def test_identity(self):
        assert identity(4) == (1, 2, 3, 4)

    def test_invert_compose(self):
        s = (2, 3, 1, 4)
        assert oracle.compose(invert(s), s) == identity(4)
        assert oracle.compose(s, invert(s)) == identity(4)

    @given(st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
    def test_compose_associates_with_apply(self, a, b):
        a, b = tuple(a), tuple(b)
        for c in range(1, 5):
            assert oracle.compose(a, b)[c - 1] == a[b[c - 1] - 1]


class TestInstance:
    def test_sigma_must_cover_edges(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(CoverError):
            CoverInstance(g, 2, (frozenset({1}), frozenset({1})), {})

    def test_sigma_must_be_bijection(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(CoverError):
            CoverInstance(g, 2, (frozenset({1}), frozenset({1})),
                          {(0, 1): (1, 1)})

    def test_edge_map_reverse_is_inverse(self):
        g = Graph.from_edges(2, [(0, 1)])
        rng = random.Random(0)
        inst = CoverInstance(g, 3, (frozenset({1, 2}),) * 2,
                             random_sigma(rng, g, 3))
        fwd, bwd = oracle.edge_map(inst, 0, 1), oracle.edge_map(inst, 1, 0)
        assert oracle.compose(fwd, bwd) == identity(3)

    def test_conflicts_symmetric(self):
        # the swap joins cover vertices (0, 1) and (1, 2), seen from either
        # end, but not (0, 1) and (1, 1)
        g = Graph.from_edges(2, [(0, 1)])
        inst = CoverInstance(
            g, 2, (frozenset({1, 2}),) * 2, {(0, 1): (2, 1)})
        assert not is_independent(inst, {0: 1, 1: 2})
        assert oracle.edge_map(inst, 1, 0)[2 - 1] == 1
        assert is_independent(inst, {0: 1, 1: 1})


class TestStraighten:
    def test_cyclic_shift_path(self):
        # path u-v with a cyclic shift becomes identity after straightening
        g = Graph.from_edges(2, [(0, 1)])
        shift = (2, 3, 4, 1)
        inst = CoverInstance(g, 4, (frozenset(range(1, 5)),) * 2,
                             {(0, 1): shift})
        out, _ = oracle.straighten(inst, [(0, 1)])
        assert oracle.is_straight(out, (0, 1))

    def test_rejects_cycle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        inst = CoverInstance.straight(g, 2)
        # a triangle, and one edge given twice
        for tree in ([(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 0)]):
            with pytest.raises(CoverError, match="tree contains a cycle"):
                oracle.straighten(inst, tree)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_tree_edges_become_straight(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        inst = random_cover(rng, g, rng.randint(2, 4))
        tree = _random_forest(rng, g)
        out, pi = oracle.straighten(inst, tree)
        for e in tree:
            assert oracle.is_straight(out, e)
        # renamed transversals correspond: map a found one back
        t = find_transversal(out)
        if t is not None:
            back = {v: invert(pi[v])[c - 1] for v, c in t.items()}
            assert is_independent(inst, back)


def _random_forest(rng, g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = sorted(g.edges)
    rng.shuffle(edges)
    out = []
    for u, v in edges:
        if find(u) != find(v):
            parent[find(u)] = find(v)
            out.append((u, v))
    return out


class TestResidual:
    def test_counts_matched_colors(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = CoverInstance(
            g, 3, (frozenset({1, 2, 3}),) * 2, {(0, 1): (3, 1, 2)})
        assert oracle.residual(inst, {0: 1}, 1) == frozenset({1, 2})

    def test_assigned_vertex_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = CoverInstance.straight(g, 2)
        with pytest.raises(CoverError):
            oracle.residual(inst, {0: 1}, 0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_residual_lower_bound(self, seed):
        # |residual| >= |available| - number of assigned neighbors
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        inst = random_cover(rng, g, 4, full_lists=True)
        assigned = {
            v: rng.randint(1, 4) for v in range(g.n) if rng.random() < 0.5
        }
        for v in range(g.n):
            if v in assigned:
                continue
            nbrs = sum(1 for u in g.adjacency[v] if u in assigned)
            assert len(oracle.residual(inst, assigned, v)) >= 4 - nbrs


class TestIsIndependent:
    # the path 0-1 with k = 2, the lists {1, 2} and {1}, and the edge map
    # swapping the two colors
    INST = CoverInstance(Graph.from_edges(2, [(0, 1)]), 2,
                         (frozenset({1, 2}), frozenset({1})), {(0, 1): (2, 1)})

    @pytest.mark.parametrize("assignment,independent", [
        ({}, True),
        ({0: 1, 1: 1}, True),
        ({0: 2, 1: 1}, False),  # 2 at 0 is matched to 1 at 1
        ({0: 2}, True),
        ({1: 2}, False),  # 2 is not in 1's list
        ({-1: 1}, False),  # no vertex -1, though vertex n - 1 lists 1
        ({2: 1}, False),  # no vertex n
        ({0: 3, 1: 1}, False),  # a color above k on the edge
        ({0: 0, 1: 1}, False),  # and one below 1
    ])
    def test_assignments(self, assignment, independent):
        assert is_independent(self.INST, assignment) is independent


class TestSolver:
    def test_triangle_straight_k2_none(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert find_transversal(CoverInstance.straight(g, 2)) is None

    def test_found_assignment_is_independent(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        inst = CoverInstance.straight(g, 3)
        t = find_transversal(inst)
        assert t is not None and is_independent(inst, t)

    def test_precolor_must_be_independent(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = CoverInstance.straight(g, 2)
        with pytest.raises(CoverError, match="0 and 1 conflict"):
            find_transversal(inst, {0: 1, 1: 1})

    def test_precolor_vertex_must_exist(self):
        inst = CoverInstance.straight(Graph.from_edges(2, [(0, 1)]), 2)
        for v in (2, -1):
            with pytest.raises(CoverError, match=f"vertex {v} is not"):
                find_transversal(inst, {v: 1})

    def test_precolor_must_be_in_list(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = CoverInstance.straight(g, 3, [{1, 2}, {1}])
        with pytest.raises(CoverError, match="precolor 3 of vertex 0"):
            find_transversal(inst, {0: 3})

    def test_extends_partial(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = CoverInstance.straight(g, 2)
        t = find_transversal(inst, {1: 2})
        assert t is not None and t[1] == 2 and is_independent(inst, t)

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 5), 0.6)
        inst = random_cover(rng, g, rng.randint(2, 3))
        fast = find_transversal(inst)
        slow = brute_force_transversal(inst)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_independent(inst, fast)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_availability(self, seed):
        # enlarging lists never destroys solvability
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        inst = random_cover(rng, g, 4)
        if find_transversal(inst) is None:
            return
        grown = CoverInstance(g, 4, tuple(
            a | {rng.randint(1, 4)} for a in inst.available
        ), inst.sigma)
        assert find_transversal(grown) is not None


def _random_precoloring(rng, inst):
    """Up to three precolored vertices, each kept only if independent."""
    pre = {}
    n = inst.graph.n
    for v in rng.sample(range(n), rng.randint(0, min(3, n))):
        if inst.available[v]:
            c = rng.choice(sorted(inst.available[v]))
            if is_independent(inst, {**pre, v: c}):
                pre[v] = c
    return pre


def _items(t):
    return None if t is None else list(t.items())


class TestReferenceSearch:
    """The iterative search against the recursive search it replaced
    (tests/oracle.py): the same dict, in the same insertion order, not only
    the same verdict."""

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_transversal_as_reference(self, seed, precolor):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        inst = random_cover(rng, g, rng.randint(2, 4),
                            full_lists=rng.random() < 0.3)
        pre = _random_precoloring(rng, inst) if precolor else {}
        assert _items(find_transversal(inst, pre)) == _items(
            oracle.find_transversal(inst, pre))

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_failed_search_leaves_its_arguments(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        inst = random_cover(rng, g, rng.randint(2, 4))
        pre = _random_precoloring(rng, inst)
        assignment = dict(pre)
        pool = {v for v in range(g.n) if v not in pre}
        expect = oracle.search(inst, dict(pre), set(pool))
        assert _search(inst, assignment, pool) == expect
        if expect:
            assert not pool and len(assignment) == g.n
            assert is_independent(inst, assignment)
        else:
            assert assignment == pre
            assert pool == {v for v in range(g.n) if v not in pre}


class TestNoRecursion:
    """The search keeps no stack of Python frames, so instance size is not
    capped by the recursion limit."""

    def test_straight_torus_10000(self):
        inst = CoverInstance.straight(torus_graph(100), 4)
        t0 = time.monotonic()
        t = find_transversal(inst)
        assert time.monotonic() - t0 < 2.0
        assert t is not None and len(t) == inst.graph.n
        assert is_independent(inst, t)

    def test_torus_1600_under_recursion_limit_200(self):
        inst = random_cover(random.Random(1600), torus_graph(40), 4,
                            full_lists=True)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            t = find_transversal(inst)
        finally:
            sys.setrecursionlimit(limit)
        assert t is not None and len(t) == inst.graph.n
        assert is_independent(inst, t)


def _outcome(inst, pre):
    """What solving `inst` under `pre` gives: the error, no transversal, or
    the transversal with its insertion order."""
    try:
        return ("found", _items(find_transversal(inst, pre)))
    except CoverError as exc:
        return ("error", str(exc))


def _copy(inst):
    return CoverInstance(inst.graph, inst.k, inst.available, dict(inst.sigma))


class TestSharedTables:
    """An instance builds its search tables on its first search; every later
    search, whatever its precoloring, must give what a fresh instance
    gives."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_reused_instance_solves_like_a_fresh_one(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        inst = random_cover(rng, g, rng.randint(2, 3))
        # a vertex that does not exist, then random precolorings, some with
        # colors outside the lists or conflicting pairs
        sequence = [{g.n: 1}] + [
            {v: rng.randint(0, inst.k + 1)
             for v in rng.sample(range(g.n), rng.randint(0, min(3, g.n)))}
            for _ in range(10)]
        for pre in sequence:
            got = _outcome(inst, pre)
            assert got == _outcome(_copy(inst), pre)
            if got[0] == "error":
                continue
            pool = {v for v in range(g.n) if v not in pre}
            assignment = dict(pre)
            fresh = dict(pre)
            assert _search(inst, assignment, set(pool)) == _search(
                _copy(inst), fresh, set(pool))
            assert assignment == fresh

    def test_errors_and_unsolvable_precolorings_leave_the_tables(self):
        # a triangle with 2-color lists at 0 and 1 and a path 3-4-5
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        inst = CoverInstance.straight(
            g, 3, [{1, 2}, {1, 2}, {1, 2, 3}, {1, 2, 3}, {1}, {1, 2}])
        sequence = [{0: 3}, {0: 1, 1: 1}, {2: 1}, {}, {7: 1}, {2: 3},
                    {5: 1}, {3: 2, 2: 1}]
        kinds = []
        for pre in sequence:
            got = _outcome(inst, pre)
            assert got == _outcome(_copy(inst), pre)
            kinds.append("none" if got == ("found", None) else got[0])
        assert set(kinds) == {"error", "none", "found"}

    def test_tables_built_once_per_instance(self, monkeypatch):
        # the corpus workload's extension step: 64 precolorings of a
        # facial triangle on one cover
        built = []
        real = cover._color_bits
        monkeypatch.setattr(cover, "_color_bits",
                            lambda s: built.append(s) or real(s))
        pg = generate_corpus(1, seed=3, min_n=12, max_n=12)[0]
        tri = next(f.walk for f in pg.interior_faces() if f.degree == 3)
        inst = random_cover(random.Random(0), pg.graph, 4, full_lists=True)
        solved = 0
        for combo in itertools.product(range(1, 5), repeat=3):
            pre = dict(zip(tri, combo))
            if is_independent(inst, pre):
                assert find_transversal(inst, pre) is not None
                solved += 1
        assert solved > 1
        assert len(built) == pg.graph.m
