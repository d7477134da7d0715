"""Cluster extraction/classification and 3-cycle predicates."""

import collections
import hashlib
import json

import pytest

import oracle
from conftest import ASSETS, audit_corpus, butterfly_pattern, c7_pattern
from dpcolor import clusters, graphs
from dpcolor.clusters import (
    UNCLASSIFIED, classify_cluster, classifications, cycle_predicates,
    extract_clusters, has_good_outer_triangle, separating_good_triangles,
)
from dpcolor.discharge import audit
from dpcolor.generate import generate_corpus
from dpcolor.graphs import Graph, PlaneGraph
from dpcolor.io import (
    graph_to_dict, load_assets_dir, parse_graph_file, pattern_from_dict,
)
from dpcolor.patterns import catalog, cluster_pattern, contains_butterfly
from oracle import catalog_matches



def k4_plane():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2)])
    return PlaneGraph(g, [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]],
                      [0, 2, 1])


class TestExtraction:
    def test_k4_single_cluster(self):
        pg = k4_plane()
        cs = extract_clusters(pg)
        assert len(cs) == 1
        assert cs[0].k == 3
        assert cs[0].vertices == frozenset(range(4))

    def test_same_clusters_as_shared_edge_grouping(self):
        pgs = audit_corpus() + [cluster_pattern(code).plane
                                for code in range(1, 12)]
        pgs += generate_corpus(30, seed=11, min_n=6, max_n=20)
        # the disconnected hosts of TestDisconnectedEmbedding
        k4 = TestDisconnectedEmbedding.K4
        pgs += [with_triangle(k4, outer) for outer in (None, [4, 5, 6])]
        for pg in audit_corpus()[::3]:
            alone = PlaneGraph(pg.graph, pg.rotation)
            n = alone.n
            pgs += [with_triangle(alone, outer)
                    for outer in (None, [n, n + 1, n + 2])]
        pat = cluster_pattern(11).plane
        pgs.append(with_triangle(pat, pat.faces[pat.outer_face].walk))
        sizes = set()
        for pg in pgs:
            found = extract_clusters(pg)
            assert found == oracle.clusters(pg)
            sizes |= {c.k for c in found}
        assert sizes >= set(range(1, 8))

    def test_outer_triangle_excluded(self):
        pg = cluster_pattern(1).plane
        cs = extract_clusters(pg)
        assert len(cs) == 1 and cs[0].k == 1

    def test_clusters_partition_interior_triangles(self):
        for code in range(1, 12):
            pg = cluster_pattern(code).plane
            cs = extract_clusters(pg)
            tri = [f.id for f in pg.interior_faces() if f.degree == 3]
            covered = sorted(fid for c in cs for fid in c.face_ids)
            assert covered == sorted(tri)


class TestClassification:
    @pytest.mark.parametrize("code", range(1, 12))
    def test_catalog_shapes_self_classify(self, code):
        pg = cluster_pattern(code).plane
        cs = extract_clusters(pg)
        assert len(cs) == 1
        cls = classify_cluster(pg, cs[0])
        assert cls.code == code
        assert sorted(cls.roles.values()) == sorted(cs[0].vertices)

    def test_k4_unclassified_with_reason(self):
        pg = k4_plane()
        cls = classify_cluster(pg, extract_clusters(pg)[0])
        assert cls.code == UNCLASSIFIED
        assert "complete graph on 4" in cls.reason

    def test_symmetric_shape_has_multiple_matches(self):
        pg = cluster_pattern(10).plane
        c = extract_clusters(pg)[0]
        assert len(list(classifications(pg, c))) >= 2

    @pytest.mark.parametrize("code", range(1, 12))
    def test_asset_files_round_trip_and_classify(self, code):
        pat = pattern_from_dict(
            json.loads((ASSETS / f"cluster_{code:02d}.json").read_text()))
        assert pat.code == code
        cs = extract_clusters(pat.plane)
        assert classify_cluster(pat.plane, cs[0]).code == code


class TestClassificationOracle:
    """classifications yields exactly the brute-force matches, in order."""

    @pytest.mark.parametrize("code", range(1, 12))
    def test_catalog_shape(self, code):
        pg = cluster_pattern(code).plane
        (c,) = extract_clusters(pg)
        assert list(classifications(pg, c)) == catalog_matches(pg, c)

    def test_generated_clusters(self):
        graphs = audit_corpus() + generate_corpus(
            30, seed=77, min_n=10, max_n=40, forbid=("butterfly",))
        codes = set()
        for pg in graphs:
            for c in extract_clusters(pg):
                expected = catalog_matches(pg, c)
                assert list(classifications(pg, c)) == expected
                codes |= {cls.code for cls in expected}
        assert codes == set(range(1, 12))


class TestMatchMemo:
    """Catalog matching runs once per PlaneGraph and cluster."""

    def test_classify_then_audit_matches_each_cluster_once(self, monkeypatch):
        calls = collections.Counter()
        search = clusters._catalog_matches

        def counted(pg, c):
            calls[id(pg), c] += 1
            return search(pg, c)

        monkeypatch.setattr(clusters, "_catalog_matches", counted)
        # fresh PlaneGraphs: nothing is remembered from other tests
        graphs = [PlaneGraph(pg.graph, pg.rotation,
                             pg.faces[pg.outer_face].walk)
                  for pg in audit_corpus()]
        for pg in graphs:
            cs = extract_clusters(pg)
            for c in cs:
                classify_cluster(pg, c)
            audit(pg, force_rules=True)
            assert [calls[id(pg), c] for c in cs] == [1] * len(cs)
        assert sum(calls.values()) > len(graphs)

    def test_callers_never_share_a_role_map(self):
        pg = cluster_pattern(11).plane
        (c,) = extract_clusters(pg)
        first = classify_cluster(pg, c)
        first.roles.clear()
        for cls in classifications(pg, c):
            cls.roles["x"] = -1
        assert list(classifications(pg, c)) == catalog_matches(pg, c)


class TestTrianglePredicates:
    def test_bad_triangle_is_seven_face_interior(self):
        pg = cluster_pattern(11).plane  # 7 interior 3-faces in a triangle
        walk = list(pg.faces[pg.outer_face].walk)
        pred = cycle_predicates(pg, walk)
        assert pred["bad"] and not pred["good"]
        assert not has_good_outer_triangle(pg)

    def test_good_outer_triangle(self):
        pg = cluster_pattern(1).plane
        assert has_good_outer_triangle(pg)

    def test_k4_outer_good_not_separating(self):
        pg = k4_plane()
        pred = cycle_predicates(pg, [0, 1, 2])
        assert pred["good"]
        assert not pred["separating"]
        assert separating_good_triangles(pg) == []

    def test_non_triangle_rejected(self):
        pg = k4_plane()
        with pytest.raises(ValueError):
            cycle_predicates(pg, [0, 1])

    def test_non_adjacent_vertices_rejected(self):
        path = PlaneGraph(Graph.from_edges(3, [(0, 1), (1, 2)]),
                          [[1], [0, 2], [1]])
        with pytest.raises(ValueError, match="not mutually adjacent"):
            cycle_predicates(path, [0, 1, 2])


def with_triangle(pg: PlaneGraph, outer=None) -> PlaneGraph:
    """pg plus a disjoint triangle on three new vertices."""
    n = pg.n
    a, b, c = n, n + 1, n + 2
    g = Graph.from_edges(n + 3, [*pg.graph.edges, (a, b), (b, c), (a, c)])
    rotation = [*pg.rotation, (b, c), (c, a), (a, b)]
    return PlaneGraph(g, rotation, outer)


def triangles(pg: PlaneGraph):
    g = pg.graph
    return [(u, v, w) for u in range(g.n) for v in sorted(g.adjacency[u])
            if v > u for w in sorted(g.adjacency[u] & g.adjacency[v])
            if w > v]


class TestAgainstFloodOracle:
    """The facial rule and the component-aware flood against a flood of
    every triangle (tests/oracle.py), on connected embeddings."""

    def test_hosts_catalog_drawings_and_generated_corpora(self):
        pgs = audit_corpus() + [cluster_pattern(code).plane
                                for code in range(1, 12)]
        pgs += generate_corpus(30, seed=11, min_n=6, max_n=20)
        seps = 0
        for pg in pgs:
            assert len(pg.graph.components) == 1
            for tri in triangles(pg):
                assert cycle_predicates(pg, tri) == \
                    oracle.flood_cycle_predicates(pg, tri)
            found = separating_good_triangles(pg)
            assert found == oracle.flood_separating_good_triangles(pg)
            seps += len(found)
        assert seps > 0

    def test_only_non_facial_triangles_flood(self, monkeypatch):
        # each flood records the triangle it may not cross and its size
        floods = []
        real = graphs._face_flood

        def flood(pg, start, **kw):
            found = real(pg, start, **kw)
            tri = frozenset(v for e in kw["blocked"] for v in e)
            floods.append((tri, len(found)))
            return found

        monkeypatch.setattr("dpcolor.clusters._face_flood", flood)
        sizes = set()
        for pg in generate_corpus(10, seed=11, min_n=6, max_n=16):
            floods.clear()
            separating_good_triangles(pg)
            flooded = {tri for tri, _ in floods}
            facial = [t for t in triangles(pg)
                      if frozenset(t) in pg.facial_triangles]
            assert facial and not flooded & pg.facial_triangles
            # one flood per side of every other triangle
            assert len(flooded) == len(triangles(pg)) - len(facial)
            assert len(floods) == 2 * len(flooded)
            sizes |= {size for _, size in floods}
        assert max(sizes) == 8


class TestDisconnectedEmbedding:
    """Two components: a flood from the outer face never reaches the
    other one, which has an outside of its own."""

    K4 = PlaneGraph(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])

    @pytest.mark.parametrize("outer", [None, [4, 5, 6]])
    def test_facial_triangles_do_not_separate(self, outer):
        pg = with_triangle(self.K4, outer)
        assert separating_good_triangles(pg) == []
        report = audit(pg)
        check = report.preconditions["no-separating-good-3-cycle"]
        assert check == {"ok": True, "witness": None}

    def test_each_component_keeps_its_separating_triangles(self):
        # a graph with its default outer face, then beside a disjoint
        # triangle that is the outer face or not
        seps = 0
        for pg in audit_corpus()[::3]:
            alone = PlaneGraph(pg.graph, pg.rotation)
            n = alone.n
            expect = separating_good_triangles(alone)
            for outer in (None, [n, n + 1, n + 2]):
                assert separating_good_triangles(
                    with_triangle(alone, outer)) == expect
            seps += len(expect)
        assert seps > 0

    def test_other_components_are_not_inside(self):
        # the bad outer triangle of shape (11) stays bad beside a triangle
        pat = cluster_pattern(11).plane
        walk = pat.faces[pat.outer_face].walk
        pg = with_triangle(pat, walk)
        pred = cycle_predicates(pg, list(walk))
        assert pred == {"separating": False, "bad": True, "good": False}
        assert not has_good_outer_triangle(pg)


class TestButterfly:
    def test_self_detect(self):
        g = butterfly_pattern().graph
        m = contains_butterfly(g)
        assert m is not None and len(set(m.values())) == 9

    def test_absent_in_catalog_shapes(self):
        for code, pat in catalog().items():
            assert contains_butterfly(pat.graph) is None

    def test_asset_self_detect(self):
        pat = pattern_from_dict(
            json.loads((ASSETS / "butterfly.json").read_text()))
        assert contains_butterfly(pat.graph) is not None

    def test_load_assets_dir(self):
        pats = load_assets_dir(str(ASSETS))
        assert "butterfly" in pats and "cluster-11" in pats


# sha256 of each pattern's graph_to_dict with its name, code and labels
# (json.dumps, sorted keys), as the coordinate drawings that the shipped
# assets now define built them
PATTERN_DIGESTS = {
    "cluster-01": "c50651f0abe2427575e1dc3761b5e728ee03f8b65683ad4b4da7ec39016defc7",
    "cluster-02": "ebc4d07db11cc7827e9da6f372f8149310156eaa0d43616aef17a0c3042d8721",
    "cluster-03": "690c8568ed0c4453e02f73ceaea526b399904f5287cb3794791ceaa2b80af4f8",
    "cluster-04": "d9e8cd89e3c642505140c42f57b3f1fa5f23d2f2cae737313918e9b234664011",
    "cluster-05": "4bc07e3e26ec15b723f3e2273024c11ce0aae1cdd135256a93cf909cd046b77e",
    "cluster-06": "37afeff2479274da63725aee68c182ea32b58fb1103ccc5c276c0c4115c94037",
    "cluster-07": "9c44df22473bfb59e6d7df1996d3b9deabcc24398913dbd077f109e9d8a842fe",
    "cluster-08": "49a3713d61bb665d06bd3564f965209fa89cb6638082379549027294282cac97",
    "cluster-09": "8ef17bd9b9fcfb41dad85172b30f31dde223a2b918dd91ecceb18fc0b46e7673",
    "cluster-10": "3aba8f59e2064944e3547f9b74aa606b74dda954cedd89a7e2418a3cdb582986",
    "cluster-11": "e33c8d244914aeab2d213d0c3fc6291b4981f115afb5a16f13a9b125e8c2276c",
    "butterfly": "8ab3cf1b6b368df45404283cf342ae47857c2f115110cf96c4af446136ff0cb0",
    "c7": "f7b5bcb51bda5032720e8e17c8b57c335b705bf2751d56a1c42fc5eaae3480d1",
}


class TestShippedCatalog:
    """The shipped assets are the catalog's one definition."""

    def test_digests(self):
        pats = [*catalog().values(), butterfly_pattern(), c7_pattern()]
        digests = {}
        for pat in pats:
            data = {**graph_to_dict(pat.plane), "name": pat.name,
                    "code": pat.code,
                    "labels": dict(sorted(pat.labels.items()))}
            digests[pat.name] = hashlib.sha256(
                json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert digests == PATTERN_DIGESTS

    @pytest.mark.parametrize("code", range(1, 12))
    def test_lookups_share_one_pattern(self, code):
        pat = cluster_pattern(code)
        assert pat is catalog()[code]
        assert pat.code == code and pat.name == f"cluster-{code:02d}"

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="no catalog entry with code 12"):
            cluster_pattern(12)
