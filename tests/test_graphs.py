"""Plane-graph core: face tracing, Euler identity, cycles, pattern search."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import petersen, random_graph
from dpcolor.generate import PlaneBuilder, generate_corpus, random_plane_graph
from dpcolor.graphs import (
    Graph, GraphError, MalformedEmbeddingError, PlaneGraph,
    all_injection_pattern_oracle, contains_pattern, cycle_vertex_sides,
    find_cycle_of_length, has_cycle_of_length, interior_face_ids,
)
from dpcolor.patterns import (
    builtin_assets_dir, butterfly_pattern, cluster_pattern, contains_butterfly,
)


def triangle_with_center():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2)])
    rotation = [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]
    return PlaneGraph(g, rotation, [0, 2, 1])


class TestGraph:
    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_parallel(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_degree_and_adjacency(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert g.adjacency[0] == frozenset({1})


class TestFaces:
    def test_k4_faces(self):
        pg = triangle_with_center()
        assert len(pg.faces) == 4
        assert pg.euler_check()
        degs = sorted(f.degree for f in pg.faces)
        assert degs == [3, 3, 3, 3]

    def test_outer_face_explicit(self):
        pg = triangle_with_center()
        assert sorted(pg.faces[pg.outer_face].walk) == [0, 1, 2]

    def test_bad_rotation_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(MalformedEmbeddingError):
            PlaneGraph(g, [[1], [0, 2], [0, 1]])

    def test_face_degree_sum_is_twice_edges(self):
        pg = triangle_with_center()
        assert sum(f.degree for f in pg.faces) == 2 * pg.graph.m

    @given(st.integers(0, 10_000), st.integers(4, 12))
    @settings(max_examples=40, deadline=None)
    def test_builder_embeddings_satisfy_euler(self, seed, target):
        pg = random_plane_graph(seed, target)
        assert pg.euler_check()
        assert sum(f.degree for f in pg.faces) == 2 * pg.graph.m
        # every edge has exactly two face sides
        sides = sum(len(v) for v in pg._edge_faces.values())
        assert sides == 2 * pg.graph.m


class TestCycles:
    def test_c7_found(self):
        g = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
        cyc = find_cycle_of_length(g, 7)
        assert cyc is not None and len(cyc) == 7

    def test_c6_has_no_7_cycle(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert not has_cycle_of_length(g, 7)

    def test_petersen_has_no_7_cycle(self):
        assert not has_cycle_of_length(petersen(), 7)

    def test_petersen_girth_cycles(self):
        g = petersen()
        assert has_cycle_of_length(g, 5)
        assert has_cycle_of_length(g, 6)
        assert not has_cycle_of_length(g, 3)
        assert not has_cycle_of_length(g, 4)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_cycle_witness_is_a_cycle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(4, 8), 0.5)
        for length in (3, 5, 7):
            cyc = find_cycle_of_length(g, length)
            if cyc is not None:
                assert len(cyc) == len(set(cyc)) == length
                for i in range(length):
                    assert g.has_edge(cyc[i], cyc[(i + 1) % length])


class TestPatternSearch:
    def test_butterfly_self_match(self):
        pat = butterfly_pattern().graph
        assert contains_pattern(pat, pat) is not None

    def test_witness_maps_edges(self):
        host = cluster_pattern(11).graph
        pat = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        m = contains_pattern(host, pat)
        assert m is not None
        for u, v in pat.edges:
            assert host.has_edge(m[u], m[v])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_oracle(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(3, 7), 0.5)
        pat = random_graph(rng, rng.randint(2, 4), 0.6)
        fast = contains_pattern(host, pat) is not None
        assert fast == all_injection_pattern_oracle(host, pat)


class TestCycleSides:
    def test_k4_center_is_interior(self):
        pg = triangle_with_center()
        interior, exterior = cycle_vertex_sides(pg, [0, 1, 2])
        assert interior == {3}
        assert exterior == set()

    def test_interior_faces_of_outer_cycle(self):
        pg = triangle_with_center()
        inner = interior_face_ids(pg, list(pg.faces[pg.outer_face].walk))
        assert inner == {f.id for f in pg.interior_faces()}

    def test_non_edge_cycle_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pg = PlaneGraph(g, [[1, 3], [2, 0], [3, 1], [0, 2]])
        with pytest.raises(ValueError):
            cycle_vertex_sides(pg, [0, 1, 2])


def asset_graphs():
    for path in sorted(Path(builtin_assets_dir()).glob("*.json")):
        data = json.loads(path.read_text())
        yield path.stem, Graph.from_edges(data["n"], data["edges"])


class TestRootedSearch:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_cycle_through_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        v = rng.randrange(g.n)
        for length in range(3, g.n + 1):
            cyc = find_cycle_of_length(g, length, through=v)
            assert (cyc is not None) == oracle.cycle_through(g, length, v)
            if cyc is not None:
                assert cyc[0] == v and len(set(cyc)) == length
                for i in range(length):
                    assert g.has_edge(cyc[i], cyc[(i + 1) % length])

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pattern_through_matches_oracle(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(3, 7), 0.5)
        pat = random_graph(rng, rng.randint(1, 4), 0.6)
        for v in range(host.n):
            m = contains_pattern(host, pat, through=v)
            assert (m is not None) == oracle.pattern_through(host, pat, v)
            if m is not None:
                assert v in m.values() and len(set(m.values())) == pat.n
                assert all(host.has_edge(m[a], m[b]) for a, b in pat.edges)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_whole_graph_search_returns_the_reference_cycle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        for length in range(3, g.n + 2):
            assert find_cycle_of_length(g, length) == \
                oracle.first_cycle(g, length)

    def test_reference_cycle_on_assets_and_generated_graphs(self):
        graphs = [g for _, g in asset_graphs()] + [
            random_plane_graph(seed, 24, forbid=()).graph for seed in range(6)
        ]
        for g in graphs:
            for length in range(3, 10):
                assert find_cycle_of_length(g, length) == \
                    oracle.first_cycle(g, length)

    def test_rooted_agrees_with_whole_graph(self):
        graphs = [g for _, g in asset_graphs()] + [
            random_plane_graph(seed, 20, forbid=()).graph for seed in range(6)
        ] + [pg.graph for pg in generate_corpus(8, seed=3)]
        butterfly = butterfly_pattern().graph
        for g in graphs:
            rooted = [find_cycle_of_length(g, 7, through=v) is not None
                      for v in range(g.n)]
            assert any(rooted) == has_cycle_of_length(g, 7)
            rooted = [contains_butterfly(g, through=v) is not None
                      for v in range(g.n)]
            assert any(rooted) == (contains_pattern(g, butterfly) is not None)

    def test_empty_pattern_uses_no_vertex(self):
        g = Graph.from_edges(2, [(0, 1)])
        empty = Graph.from_edges(0, [])
        assert contains_pattern(g, empty) == {}
        assert contains_pattern(g, empty, through=0) is None


def rotation_digest(pgs) -> str:
    return hashlib.sha256(
        json.dumps([pg.rotation for pg in pgs]).encode()).hexdigest()


class TestGenerator:
    # sha256 of the rotations: a faster generator must emit the same graphs
    def test_frozen_corpus(self):
        corpus = generate_corpus(40, seed=20260823, min_n=6, max_n=14)
        assert rotation_digest(corpus) == (
            "6ffe3d772efd357d930081d05e1f38c07656bd98c6219a27eb87a383d3105b9b")

    def test_frozen_64_vertex_member(self):
        pg = random_plane_graph(1, 64)
        assert pg.n == 64
        assert rotation_digest([pg]) == (
            "7c592db706bfbb30cb9853387541cea68c8f09e6213eb64193dd788a72b299b9")
        assert not has_cycle_of_length(pg.graph, 7)
        assert contains_butterfly(pg.graph) is None

    def test_frozen_out_of_class_graph(self):
        pg = random_plane_graph(7, 48, forbid=())
        assert rotation_digest([pg]) == (
            "2599e7f0cd88f3a61fc2af0127ebcc67d907255ee71573d8f8b7bdb9ac55fe4c")

    def test_in_class_outputs_pass_whole_graph_checks(self):
        for pg in generate_corpus(40, seed=20260823, min_n=6, max_n=14):
            assert pg.euler_check()
            assert not has_cycle_of_length(pg.graph, 7)
            assert contains_butterfly(pg.graph) is None

    def test_builder_masks_track_rotation_and_undo(self):
        builder = PlaneBuilder()
        rng = random.Random(5)
        for _ in range(12):
            pg = builder.plane()
            face_id, start, arity = rng.choice(builder.insertion_sites(pg))
            before = ([list(r) for r in builder.rotation], list(builder.masks))
            builder.insert_vertex(pg, face_id, start, arity)
            assert tuple(builder.masks) == builder.plane().graph.masks
            builder.remove_last_vertex()
            assert (builder.rotation, builder.masks) == before
            builder.insert_vertex(pg, face_id, start, arity)
