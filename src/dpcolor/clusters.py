"""Cluster extraction and classification; 3-cycle good/bad/separating tests.

A cluster is a maximal edge-connected set of interior 3-faces.  Classified
clusters carry a catalog code (1..11) and a role map naming which host vertex
plays each labeled role of the catalog drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph, PlaneGraph, _embed, _face_flood, edge_key
from .patterns import LabeledPattern, catalog

UNCLASSIFIED = 0


@dataclass(frozen=True)
class Cluster:
    id: int
    face_ids: frozenset[int]
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def k(self) -> int:
        return len(self.face_ids)


@dataclass(frozen=True)
class Classification:
    code: int  # 1..11, or UNCLASSIFIED
    roles: dict  # role label -> host vertex id (empty when unclassified)
    reason: str = ""


def extract_clusters(pg: PlaneGraph) -> list[Cluster]:
    """Maximal shared-edge components of interior 3-faces.

    The outer face never joins a cluster even when it is a 3-face.
    """
    tri = {f.id: f for f in pg.interior_faces() if f.degree == 3}
    seen: set[int] = set()
    out: list[Cluster] = []
    for fid in tri:
        if fid in seen:
            continue
        comp = _face_flood(pg, fid, within=tri)
        seen |= comp
        verts: set[int] = set()
        edges: set[tuple[int, int]] = set()
        for f in comp:
            verts |= set(tri[f].walk)
            edges |= set(pg.face_edges[f])
        out.append(Cluster(len(out), frozenset(comp), frozenset(verts), frozenset(edges)))
    return out


def cluster_subgraph(c: Cluster) -> tuple[Graph, list[int]]:
    """Local copy of a cluster's vertices/edges; returns (graph, index->host)."""
    order = sorted(c.vertices)
    index = {v: i for i, v in enumerate(order)}
    g = Graph.from_edges(len(order), [(index[u], index[v]) for u, v in c.edges])
    return g, order


def _face_triples(pat: LabeledPattern) -> set[frozenset[int]]:
    return {
        frozenset(f.walk)
        for f in pat.plane.interior_faces()
        if f.degree == 3
    }


def classifications(pg: PlaneGraph, c: Cluster) -> Iterator[Classification]:
    """Every catalog match (code + role map); multiple for symmetric shapes.

    A match is an isomorphism from the shape onto the cluster that carries
    the shape's 3-faces onto the cluster's.  Per code, matches come in the
    order of the host vertices given to the shape's vertices taken by
    descending degree (ties by vertex id).  The matches are searched once
    per PlaneGraph and cluster and kept in the PlaneGraph's `_matches`;
    every call yields fresh role maps.
    """
    memo = pg._matches
    if c not in memo:
        memo[c] = tuple((code, tuple(roles.items()))
                        for code, roles in _catalog_matches(pg, c))
    for code, roles in memo[c]:
        yield Classification(code, dict(roles))


def _catalog_matches(pg: PlaneGraph, c: Cluster) -> Iterator[tuple[int, dict]]:
    """(code, role map) of every catalog match, in classifications order."""
    local, order = cluster_subgraph(c)
    cluster_faces = {
        frozenset(set(pg.faces[fid].walk)) for fid in c.face_ids
    }
    for code, pat in catalog().items():
        shape = pat.graph
        # equal vertex and edge counts make every edge-preserving
        # injection an isomorphism
        if (shape.n, shape.m) != (local.n, local.m):
            continue
        pat_faces = _face_triples(pat)
        if len(pat_faces) != c.k:
            continue
        by_degree = sorted(range(shape.n), key=shape.degree, reverse=True)
        isos = sorted(
            _embed(local.masks, shape, by_degree[0], (1 << local.n) - 1),
            key=lambda iso: [iso[p] for p in by_degree])
        for iso in isos:
            mapped_faces = {
                frozenset(order[iso[v]] for v in tri) for tri in pat_faces
            }
            if mapped_faces == cluster_faces:
                yield code, {lbl: order[iso[v]]
                             for lbl, v in pat.labels.items()}


def unclassified(c: Cluster) -> Classification:
    """The UNCLASSIFIED result for a cluster no catalog shape matches."""
    if len(c.vertices) == 4 and len(c.edges) == 6:
        reason = (
            "faces share vertices beyond glued edges (complete graph on 4 "
            "vertices); shape outside the distinct-vertex catalog"
        )
    elif c.k > 7:
        reason = f"{c.k} faces exceeds the catalog maximum of 7"
    else:
        reason = "no catalog shape matches the face-incidence structure"
    return Classification(UNCLASSIFIED, {}, reason)


def classify_cluster(pg: PlaneGraph, c: Cluster) -> Classification:
    """The first catalog match, or the unclassified result with its reason."""
    return next(classifications(pg, c), None) or unclassified(c)


def cycle_predicates(pg: PlaneGraph, cycle: Sequence[int]) -> dict:
    """{'separating', 'bad', 'good'} for a 3-cycle of the embedding.

    Separating: interior and exterior both hold vertices.  Bad: the cycle
    plus its interior consists of seven edge-connected 3-faces (the largest
    catalog shape).  Good: not bad.  The walk of an interior face bounds
    that face alone, so it is neither separating nor bad.

    The embedding is plane, so a triangle splits the faces of its
    component into two sides, each connected in the dual without crossing
    it (Jordan curve theorem).  A side with no vertex off the triangle is
    one face: the outer face's walk does not separate, and every other
    triangle does.  The inside is the side without the component's outside
    face (`PlaneGraph.outsides`).  Each side is flooded from a face on one
    triangle edge until it holds 8 faces, enough to tell seven 3-faces.
    """
    if len(cycle) != 3 or len(set(cycle)) != 3:
        raise ValueError("cycle must be a triangle")
    for i in range(3):
        if not pg.graph.has_edge(cycle[i], cycle[(i + 1) % 3]):
            raise ValueError("cycle vertices are not mutually adjacent")
    tri = frozenset(cycle)
    outer = tri == set(pg.faces[pg.outer_face].walk)
    if tri in pg.facial_triangles and not outer:
        return {"separating": False, "bad": False, "good": True}
    blocked = {edge_key(cycle[i], cycle[(i + 1) % 3]) for i in range(3)}
    outside = pg.outsides[pg.graph.component[cycle[0]]]
    sides = (_face_flood(pg, f, blocked=blocked, cap=7)
             for f in pg.faces_of_edge(cycle[0], cycle[1]))
    bad = any(len(side) == 7 and outside not in side
              and all(pg.faces[f].degree == 3 for f in side)
              for side in sides)
    return {"separating": not outer, "bad": bad, "good": not bad}


def has_good_outer_triangle(pg: PlaneGraph) -> bool:
    outer = pg.faces[pg.outer_face]
    if outer.degree != 3 or len(set(outer.walk)) != 3:
        return False
    return cycle_predicates(pg, list(outer.walk))["good"]


def separating_good_triangles(pg: PlaneGraph) -> list[tuple[int, int, int]]:
    """All separating good 3-cycles of the embedding.

    A triangle separates exactly when it is not a face's walk (see
    `cycle_predicates`), so only the other triangles are tested, for
    goodness.
    """
    out = []
    g = pg.graph
    for u in range(g.n):
        for v in sorted(g.adjacency[u]):
            if v <= u:
                continue
            for w in sorted(g.adjacency[u] & g.adjacency[v]):
                if w <= v or frozenset((u, v, w)) in pg.facial_triangles:
                    continue
                if cycle_predicates(pg, [u, v, w])["good"]:
                    out.append((u, v, w))
    return out
