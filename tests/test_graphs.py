"""Plane-graph core: face tracing, Euler identity, cycles, pattern search."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    ASSETS, butterfly_pattern, pendant_octahedron_host, petersen,
    random_graph, shared_vertex_host, special_seven_host, tight_six_host,
)
from dpcolor import graphs, patterns
from dpcolor.clusters import cluster_subgraph, extract_clusters
from dpcolor.discharge import audit
from dpcolor.generate import PlaneBuilder, generate_corpus, random_plane_graph
from dpcolor.graphs import (
    Graph, GraphError, MalformedEmbeddingError, OuterWalkError, PlaneGraph,
    contains_pattern, find_cycle_of_length, has_cycle_of_length,
)
from dpcolor.patterns import (
    FORBIDDEN, catalog, cluster_pattern, contains_butterfly,
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

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_components_match_union_find(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(0, 12), rng.choice((0.1, 0.2, 0.5)))
        assert list(g.components) == oracle.components(g.n, g.edges)

    def test_components_keep_isolated_vertices(self):
        g = Graph.from_edges(6, [(1, 4), (4, 2)])
        assert g.components == ((0,), (1, 2, 4), (3,), (5,))
        assert g.components == tuple(oracle.components(6, g.edges))


class TestFaces:
    def test_k4_faces(self):
        pg = triangle_with_center()
        assert len(pg.faces) == 4
        assert pg.n - pg.graph.m + len(pg.faces) == 2
        degs = sorted(f.degree for f in pg.faces)
        assert degs == [3, 3, 3, 3]

    def test_outer_face_explicit(self):
        pg = triangle_with_center()
        assert sorted(pg.faces[pg.outer_face].walk) == [0, 1, 2]

    def test_bad_rotation_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(MalformedEmbeddingError):
            PlaneGraph(g, [[1], [0, 2], [0, 1]])
        # one entry short, and a vertex that no longer lists neighbour 2
        pg = triangle_with_center()
        with pytest.raises(MalformedEmbeddingError, match="3 entries for n=4"):
            PlaneGraph(pg.graph, pg.rotation[:3])
        with pytest.raises(MalformedEmbeddingError, match="vertex 3"):
            PlaneGraph(pg.graph, [*pg.rotation[:3], (0, 1)])

    @pytest.mark.parametrize("n,edges", [
        (5, list(itertools.combinations(range(5), 2))),
        (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    ], ids=["K5", "K3,3"])
    def test_every_rotation_of_a_nonplanar_graph_is_rejected(self, n, edges):
        g = Graph.from_edges(n, edges)
        # each vertex's cyclic orders: its least neighbour first
        orders = [[(a[0], *rest) for rest in itertools.permutations(a[1:])]
                  for a in map(sorted, g.adjacency)]
        count = 0
        for rotation in itertools.product(*orders):
            assert [f.walk for f in graphs._trace_faces(rotation)] == \
                oracle.face_walks(rotation)
            with pytest.raises(MalformedEmbeddingError,
                               match="not a plane embedding"):
                PlaneGraph(g, rotation)
            count += 1
        assert count == {5: 6 ** 5, 6: 2 ** 6}[n]

    def test_isolated_vertices_have_no_face(self):
        pg = triangle_with_center()
        g = Graph.from_edges(6, pg.graph.edges)
        plus = PlaneGraph(g, [*pg.rotation, (), ()], [0, 2, 1])
        assert plus.faces == pg.faces
        assert plus.n - plus.graph.m + len(plus.faces) == 2 + 1 + 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a_rotation_with_no_edge_is_rejected(self, n):
        # it satisfies Euler's formula but traces no face to be the outer one
        with pytest.raises(MalformedEmbeddingError,
                           match="a rotation system with no edge has no face"):
            PlaneGraph(Graph.from_edges(n, []), [()] * n)

    def test_no_component_makes_up_for_another(self):
        # K4 on the torus (V - E + F = 0) beside a plane K4 (2) sums to 2,
        # the value of one plane component, but two components need 4
        torus = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        walks = [f.walk for f in graphs._trace_faces(torus)]
        assert len(walks) == 2 and walks == oracle.face_walks(torus)
        k4 = triangle_with_center()
        g = Graph.from_edges(8, [*k4.graph.edges,
                                 *((u + 4, v + 4) for u, v in k4.graph.edges)])
        rotation = [*k4.rotation, *([w + 4 for w in r] for r in torus)]
        with pytest.raises(MalformedEmbeddingError, match="= 2, not 4"):
            PlaneGraph(g, rotation)

    def test_face_degree_sum_is_twice_edges(self):
        pg = triangle_with_center()
        assert sum(f.degree for f in pg.faces) == 2 * pg.graph.m

    @given(st.integers(0, 10_000), st.integers(4, 12))
    @settings(max_examples=40, deadline=None)
    def test_builder_embeddings_satisfy_euler(self, seed, target):
        pg = random_plane_graph(seed, target)
        assert pg.n - pg.graph.m + len(pg.faces) == 2
        assert sum(f.degree for f in pg.faces) == 2 * pg.graph.m
        # every edge has exactly two face sides
        sides = sum(len(v) for v in pg._edge_faces.values())
        assert sides == 2 * pg.graph.m


def plane_rotations():
    """The rotation of every shipped asset that has one, of every plane
    host in conftest, and of seeded corpora in the class and unrestricted."""
    for path in sorted(ASSETS.glob("*.json")):
        data = json.loads(path.read_text())
        if "rotation" in data:
            yield [data["rotation"][str(v)] for v in range(data["n"])]
    hosts = [pendant_octahedron_host(), special_seven_host()[0],
             *(shared_vertex_host(b, w7)[0]
               for b, w7 in ((False, False), (True, False), (False, True))),
             tight_six_host()[0], tight_six_host(v_degree6=True)[0]]
    corpora = (generate_corpus(20, seed=20260823, min_n=6, max_n=24)
               + generate_corpus(20, seed=5, min_n=8, max_n=24, forbid=()))
    for pg in hosts + corpora:
        yield pg.rotation


class TestFaceTracer:
    """The tracer and the generator's builder give the reference tracer's
    faces, each from its smallest dart, in the order of those darts."""

    def test_tracer_matches_the_reference(self):
        rotations = list(plane_rotations())
        assert len(rotations) == 13 + 7 + 40
        for rotation in rotations:
            assert [f.walk for f in graphs._trace_faces(rotation)] == \
                oracle.face_walks(rotation)

    @pytest.mark.parametrize("forbid", [("7-cycle", "butterfly"), ()],
                             ids=["in-class", "unrestricted"])
    def test_builder_walks_after_every_split(self, monkeypatch, forbid):
        real = PlaneBuilder.split_face
        splits = []

        def checked(builder, face_id):
            real(builder, face_id)
            assert builder.walks == oracle.face_walks(builder.rotation)
            splits.append(face_id)

        monkeypatch.setattr(PlaneBuilder, "split_face", checked)
        generate_corpus(20, seed=20260823, min_n=6, max_n=24, forbid=forbid)
        assert len(splits) > 100


class TestOuterWalk:
    """A given outer walk picks the reference face, whatever vertex it
    starts from and whichever way it runs."""

    def test_every_rotation_and_direction_picks_one_face(self):
        pgs = [pendant_octahedron_host(), triangle_with_center(),
               special_seven_host()[0], *(p.plane for p in catalog().values()),
               *generate_corpus(4, seed=3, min_n=6, max_n=12, forbid=())]
        for pg in pgs:
            for f in pg.faces:
                w = list(f.walk)
                picks = {PlaneGraph(pg.graph, pg.rotation, seq[i:] + seq[:i])
                         .outer_face for seq in (w, w[::-1])
                         for i in range(len(w))}
                assert picks == {oracle.outer_face(pg, w)}
        # the outer walk of the pendant host repeats u and v
        assert pendant_octahedron_host().faces[0].walk == (0, 1, 7, 1, 2, 0, 6)

    def test_a_walk_that_bounds_no_face_is_rejected(self):
        k4, pendant = triangle_with_center(), pendant_octahedron_host()
        for pg, walk in [(k4, [0, 1, 3, 2]), (k4, [0, 1]), (k4, []),
                         (k4, [0, 1, 2, 0, 1, 2]), (pendant, [0, 1, 2]),
                         (pendant, [0, 1, 7, 2, 0, 6])]:
            assert oracle.outer_face(pg, walk) is None
            with pytest.raises(OuterWalkError, match="no face has boundary"):
                PlaneGraph(pg.graph, pg.rotation, walk)


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
        assert fast == oracle.contains_pattern(host, pat)


def asset_graphs():
    for path in sorted(ASSETS.glob("*.json")):
        data = json.loads(path.read_text())
        yield path.stem, Graph.from_edges(data["n"], data["edges"])


def symmetric_patterns() -> list[Graph]:
    """Patterns with many automorphisms: cycles, stars, K4, the butterfly."""
    cycles = [Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
              for k in range(3, 7)]
    stars = [Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
             for k in range(1, 5)]
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a)])
    return cycles + stars + [k4, butterfly_pattern().graph]


def grown_builders(seed: int, steps: int):
    """Builder states after each of `steps` seeded accepted insertions,
    nothing forbidden, so the graphs hold 7-cycles and butterflies."""
    builder = PlaneBuilder()
    rng = random.Random(seed)
    for _ in range(steps):
        key, start, arity = rng.choice(builder.sites)
        face_id = builder.face_id(key)
        builder.insert_vertex(face_id, start, arity)
        builder.split_face(face_id)
        yield builder


class TestRootedSearch:
    """Rooted searches return exactly the reference cycle and witness."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_cycle_through_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        v = rng.randrange(g.n)
        for length in range(3, g.n + 2):
            cyc = find_cycle_of_length(g, length, through=v)
            assert cyc == oracle.first_cycle_through(g, length, v)
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
    @settings(max_examples=60, deadline=None)
    def test_rooted_witness_is_the_reference_witness(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(4, 10),
                            rng.choice((0.4, 0.6, 0.8)))
        pats = [p for p in symmetric_patterns() if p.n <= host.n]
        pats.append(random_graph(rng, rng.randint(1, 5), 0.6))
        for pat in pats:
            for v in range(host.n):
                got = contains_pattern(host, pat, through=v)
                want = oracle.first_occurrence_through(host, pat, v)
                # the same dict, keys in the same (placement) order
                assert (got is None) == (want is None)
                assert got is None or list(got.items()) == list(want.items())

    def test_rooted_searches_on_builder_states(self):
        butterfly = butterfly_pattern().graph
        pats = symmetric_patterns()
        for seed in range(3):
            for step, builder in enumerate(grown_builders(seed, 24)):
                z = builder.n - 1
                for v in {z, step % builder.n}:
                    for length in (3, 5, 7):
                        assert find_cycle_of_length(builder, length, v) == \
                            oracle.first_cycle_through(builder, length, v)
                    assert contains_butterfly(builder, v) == \
                        oracle.first_occurrence_through(builder, butterfly, v)
                for pat in pats[step % len(pats)::7]:
                    got = contains_pattern(builder, pat, z)
                    want = oracle.first_occurrence_through(builder, pat, z)
                    assert (got is None) == (want is None)
                    assert got is None or \
                        list(got.items()) == list(want.items())

    def test_orbit_reps_match_brute_force(self):
        rng = random.Random(3)
        pats = symmetric_patterns() + [
            random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.6)))
            for _ in range(30)]
        for pat in pats:
            assert graphs._orbit_reps(pat) == oracle.orbit_reps(pat)
        # the butterfly: the center, the wing ends and the wing middles
        bf = butterfly_pattern()
        assert [[lbl for lbl, v in bf.labels.items() if v == r]
                for r in graphs._orbit_reps(bf.graph)] == [
                    ["a1"], ["a2"], ["c"]]

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
        for g in graphs:
            for name, search in FORBIDDEN.items():
                rooted = [search(g, v) is not None for v in range(g.n)]
                assert any(rooted) == (search(g) is not None), name

    @pytest.mark.parametrize("forbid", [
        (), ("7-cycle",), ("butterfly",), ("7-cycle", "butterfly")])
    def test_rooted_is_exact_after_every_insertion(self, monkeypatch, forbid):
        # An insertion adds edges at the new vertex z only, so a row's
        # pattern is in the new graph exactly when it was in the old one or
        # its search through z finds it: the generator relies on this for
        # the rows it bans, and it holds for the others as well.
        split_face = PlaneBuilder.split_face
        found_before: set = set()
        accepted = []

        def checking(builder, face_id):
            nonlocal found_before
            split_face(builder, face_id)
            if builder.n == 4:  # a new graph, grown from the triangle
                found_before = set()
            g = Graph.from_edges(builder.n, [
                (u, v) for v, rot in enumerate(builder.rotation)
                for u in rot if u < v])
            found = {name for name, search in FORBIDDEN.items()
                     if search(g) is not None}
            for name, search in FORBIDDEN.items():
                through = search(builder, builder.n - 1) is not None
                assert (name in found) == (name in found_before or through)
            assert not found & set(forbid)
            found_before = found
            accepted.append(builder.n)

        monkeypatch.setattr(PlaneBuilder, "split_face", checking)
        generate_corpus(6, seed=11, min_n=8, max_n=22, forbid=forbid)
        assert len(accepted) > 50

    def test_empty_pattern_uses_no_vertex(self):
        g = Graph.from_edges(2, [(0, 1)])
        empty = Graph.from_edges(0, [])
        assert contains_pattern(g, empty) == {}
        assert contains_pattern(g, empty, through=0) is None


class TestMatcherOrder:
    """The bitset matcher yields the reference matcher's occurrences, in
    its order."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_random_hosts_patterns_roots_and_masks(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.6)))
        pat = rng.choice([random_graph(rng, rng.randint(1, 5), 0.5)]
                         + [p for p in symmetric_patterns() if p.n <= 6])
        root = rng.randrange(pat.n)
        first = rng.choice((rng.randrange(1 << host.n), (1 << host.n) - 1))
        got = list(graphs._embed(host.masks, pat, root, first))
        want = list(oracle.embed(host.masks, pat, root, first))
        assert [list(m.items()) for m in got] == \
            [list(m.items()) for m in want]

    def test_catalog_shapes_on_corpus_clusters(self):
        shapes = [pat.graph for pat in catalog().values()]
        clusters = {cluster_subgraph(c)[0]
                    for pg in generate_corpus(30, seed=7, min_n=8, max_n=16)
                    for c in extract_clusters(pg)}
        assert len(clusters) > 5
        for local in clusters:
            everything = (1 << local.n) - 1
            for shape in shapes:
                for root in range(shape.n):
                    got = graphs._embed(local.masks, shape, root, everything)
                    want = oracle.embed(local.masks, shape, root, everything)
                    assert [list(m.items()) for m in got] == \
                        [list(m.items()) for m in want]


class TestWholeGraphMemo:
    """A Graph keeps its whole-graph search results; callers get copies."""

    def test_mutating_a_witness_leaves_the_next_result(self):
        g = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
        cyc = find_cycle_of_length(g, 7)
        cyc.reverse()
        cyc.append(0)
        assert find_cycle_of_length(g, 7) == oracle.first_cycle(g, 7)
        host = butterfly_pattern().graph
        m = contains_butterfly(host)
        expect = dict(m)
        m.clear()
        assert contains_butterfly(host) == expect
        assert contains_pattern(host, butterfly_pattern().graph) == expect

    def test_each_search_runs_once_per_graph(self, monkeypatch):
        calls = []
        for name in ("_cycle_from", "_embed"):
            real = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda *a, _r=real, _n=name: (
                calls.append(_n) or _r(*a)))
        g = cluster_pattern(11).graph
        first = (find_cycle_of_length(g, 7), find_cycle_of_length(g, 4),
                 contains_butterfly(g))
        assert calls
        calls.clear()
        again = (find_cycle_of_length(g, 7), has_cycle_of_length(g, 4),
                 contains_butterfly(g))
        assert calls == []
        assert again == (first[0], True, first[2])
        # rooted searches are not remembered
        find_cycle_of_length(g, 4, through=0)
        assert calls == ["_cycle_from"]

    def test_builder_is_searched_afresh(self):
        builder = PlaneBuilder()
        assert find_cycle_of_length(builder, 4) is None
        assert contains_pattern(builder, Graph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)])) is None
        # a new vertex on two corners of the triangle closes a 4-cycle
        key, start, _ = builder.sites[0]
        builder.insert_vertex(builder.face_id(key), start, 2)
        assert find_cycle_of_length(builder, 4) is not None
        assert contains_pattern(builder, Graph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)])) is not None


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
            assert pg.n - pg.graph.m + len(pg.faces) == 2
            assert not has_cycle_of_length(pg.graph, 7)
            assert contains_butterfly(pg.graph) is None

    @given(st.integers(0, 10_000), st.integers(4, 40), st.booleans())
    @example(4, 16, True)  # stops at 6 vertices: every site is rejected
    @example(5, 128, True)  # stops at 21 vertices: 400 rejections in a row
    @settings(max_examples=60, deadline=None)
    def test_same_graphs_as_searching_every_site(self, seed, target, in_class):
        forbid = ("7-cycle", "butterfly") if in_class else ()
        pg = random_plane_graph(seed, target, forbid)
        assert pg.rotation == oracle.random_plane_graph(
            seed, target, forbid).rotation

    @pytest.mark.parametrize("make", [
        lambda forbid: random_plane_graph(3, 60, forbid),
        lambda forbid: generate_corpus(2, seed=3, forbid=forbid),
    ], ids=["random_plane_graph", "generate_corpus"])
    def test_unknown_forbid_name_is_rejected(self, make):
        # a misspelt name would drop its ban without a word: this seed and
        # size grow a 7-cycle when only the butterfly is banned
        assert has_cycle_of_length(
            random_plane_graph(3, 60, ("butterfly",)).graph, 7)
        with pytest.raises(ValueError, match="'7cycle'"):
            make(("7cycle", "butterfly"))

    def test_a_new_forbidden_pattern_is_one_row(self, monkeypatch):
        # the generator, its name check and the audit's class checks all
        # read the table, so a row added there reaches each of them
        assert has_cycle_of_length(random_plane_graph(3, 12, ()).graph, 4)
        monkeypatch.setitem(
            patterns.FORBIDDEN, "4-cycle",
            lambda g, through=None: find_cycle_of_length(g, 4, through))
        pg = random_plane_graph(3, 12, ("4-cycle",))
        assert not has_cycle_of_length(pg.graph, 4)
        report = audit(pg).to_json()
        assert report["class_checks"]["no-4-cycle"] == {
            "ok": True, "witness": None}
        assert list(report["class_checks"]) == [
            "no-7-cycle", "no-butterfly", "no-4-cycle"]
        assert "no-4-cycle" not in report["lemma_preconditions"]

    @pytest.mark.parametrize("seed,target,n", [(4, 16, 6), (5, 128, 21)])
    def test_early_stops(self, seed, target, n):
        assert random_plane_graph(seed, target).n == n

    def test_each_site_is_searched_once_per_graph(self, monkeypatch):
        # The rotation after an insertion names its (graph, site) pair: the
        # graph is the rotation without the new vertex, and the new vertex's
        # rotation is the site's window reversed, whose darts fix the face.
        searched = []

        def counting(g, length, through=None):
            searched.append(tuple(map(tuple, g.rotation)))
            return find_cycle_of_length(g, length, through)

        monkeypatch.setattr(graphs, "find_cycle_of_length", counting)
        random_plane_graph(1, 64)
        assert searched and len(searched) == len(set(searched))

    def test_builder_masks_track_rotation_and_undo(self):
        builder = PlaneBuilder()
        rng = random.Random(5)
        for _ in range(12):
            key, start, arity = rng.choice(builder.sites)
            face_id = builder.face_id(key)
            before = ([list(r) for r in builder.rotation], list(builder.masks),
                      list(builder.walks), list(builder.sites))
            builder.insert_vertex(face_id, start, arity)
            assert tuple(builder.masks) == Graph.from_edges(builder.n, [
                (v, u) for v, rot in enumerate(builder.rotation)
                for u in rot if u > v]).masks
            # the faces wait for split_face, so no PlaneGraph is built yet
            with pytest.raises(MalformedEmbeddingError, match="stale"):
                builder.plane()
            builder.remove_last_vertex()
            # the undo leaves the faces and sites as they were, too
            assert (builder.rotation, builder.masks, builder.walks,
                    builder.sites) == before
            builder.insert_vertex(face_id, start, arity)
            builder.split_face(face_id)


def listed_sites(pg: PlaneGraph) -> list[tuple[int, int, int]]:
    """(face id, start, arity) of every insertion site, from a fresh trace."""
    return [(f.id, i, t) for f in pg.interior_faces()
            if len(set(f.walk)) == f.degree
            for t in (2, 3) if t <= f.degree for i in range(f.degree)]


class TestBuilderFaces:
    @pytest.mark.parametrize("host", ["triangle", "drawn", "mirrored"])
    def test_split_faces_match_a_fresh_trace(self, host):
        if host == "triangle":
            builder = PlaneBuilder()
        else:
            pg, _ = special_seven_host()
            rotation = [list(r) for r in pg.rotation]
            if host == "mirrored":
                # the outer face no longer holds dart (0, 1), so it is not
                # face 0 as it is in the drawn host
                rotation = [r[::-1] for r in rotation]
            builder = PlaneBuilder(rotation=rotation)
            assert (builder.walks.index(builder.outer_walk) != 0) == (
                host == "mirrored")
        rng = random.Random(11)
        for _ in range(40):
            key, start, arity = rng.choice(builder.sites)
            face_id = builder.face_id(key)
            builder.insert_vertex(face_id, start, arity)
            builder.split_face(face_id)
            pg = builder.plane()
            assert builder.walks == [f.walk for f in pg.faces]
            assert builder.outer_walk == pg.faces[pg.outer_face].walk
            assert [(builder.face_id(k), i, t)
                    for k, i, t in builder.sites] == listed_sites(pg)

    def test_plane_equals_a_fresh_trace(self):
        members = generate_corpus(40, seed=20260823, min_n=6, max_n=14)
        others = [random_plane_graph(seed, target, forbid=())
                  for seed, target in enumerate((16, 24, 32, 40, 48, 48))]
        assert max(pg.n for pg in others) == 48
        for pg in members + others:
            fresh = PlaneGraph(Graph.from_edges(pg.n, sorted(pg.graph.edges)),
                               [list(r) for r in pg.rotation], [0, 1, 2])
            assert pg.graph == fresh.graph
            assert pg.rotation == fresh.rotation
            assert pg.faces == fresh.faces
            assert pg.outer_face == fresh.outer_face

    def test_rotation_without_the_outer_triangle_is_rejected(self):
        with pytest.raises(MalformedEmbeddingError, match="0, 1, 2"):
            PlaneBuilder(rotation=[[1, 3], [2, 0], [3, 1], [0, 2]])

    @pytest.mark.parametrize("rotation,message", [
        ([[1, 2, 1], [2, 0], [0, 1]], "exactly once"),
        ([[1, 2], [2, 0], [0, 1, 3], [2]], "repeats a vertex"),
    ], ids=["neighbour-listed-twice", "pendant-in-a-face"])
    def test_malformed_rotations_are_rejected(self, rotation, message):
        # vertex 0 lists vertex 1 twice; the second is a plane triangle
        # with a pendant vertex in its interior face, whose walk
        # (0, 1, 2, 3, 2) repeats vertex 2, so no insertion could split it
        with pytest.raises(MalformedEmbeddingError, match=message):
            PlaneBuilder(rotation=rotation)
