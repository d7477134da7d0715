"""Plane graphs: abstract graphs, rotation systems, face tracing, cycles, patterns.

Vertices are integers 0..n-1.  An embedding is given by a rotation system
(cyclic neighbor order per vertex); faces are traced from darts, so the face
structure is purely combinatorial.  No planarity testing happens here: a
rotation system that traces F faces with V - E + F = 2 on a connected graph
is accepted as a plane embedding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Invalid graph data (loops, parallel edges, bad vertex ids)."""


class MalformedEmbeddingError(ValueError):
    """Rotation system inconsistent with the underlying graph."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Unordered edge as an ordered pair (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph."""

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        es = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            key = edge_key(u, v)
            if key in es:
                raise GraphError(f"parallel edge ({u},{v})")
            es.add(key)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in es:
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, frozenset(es), tuple(frozenset(a) for a in adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def masks(self) -> tuple[int, ...]:
        """Adjacency as bitsets: bit w of masks[v] is set iff vw is an edge."""
        return tuple(sum(1 << w for w in a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class Face:
    id: int
    walk: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.walk)

    def walk_edges(self) -> list[tuple[int, int]]:
        w = self.walk
        return [edge_key(w[i], w[(i + 1) % len(w)]) for i in range(len(w))]

    def canonical_walk(self) -> tuple[int, ...]:
        """Lexicographically smallest rotation of the cyclic walk."""
        w = self.walk
        return min(tuple(w[i:] + w[:i]) for i in range(len(w)))


def _trace_faces(graph: Graph, rotation: Sequence[Sequence[int]]) -> list[Face]:
    # dart (u, v) -> next dart (v, w) where w follows u in rotation at v
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v in range(graph.n):
        rot = rotation[v]
        d = len(rot)
        for i, u in enumerate(rot):
            succ[(u, v)] = (v, rot[(i + 1) % d])
    faces: list[Face] = []
    used: set[tuple[int, int]] = set()
    for start in sorted(succ):
        if start in used:
            continue
        walk = []
        dart = start
        while True:
            used.add(dart)
            walk.append(dart[0])
            dart = succ[dart]
            if dart == start:
                break
        faces.append(Face(len(faces), tuple(walk)))
    return faces


class PlaneGraph:
    """Graph plus rotation system; faces and outer face derived on construction.

    The outer face may be given as a boundary walk; otherwise it defaults to a
    face of maximum degree, ties broken by smallest canonical walk.
    """

    def __init__(
        self,
        graph: Graph,
        rotation: Sequence[Sequence[int]],
        outer_walk: Optional[Sequence[int]] = None,
    ):
        if len(rotation) != graph.n:
            raise MalformedEmbeddingError(
                f"rotation has {len(rotation)} entries for n={graph.n}"
            )
        for v in range(graph.n):
            if set(rotation[v]) != set(graph.adjacency[v]) or len(
                rotation[v]
            ) != len(graph.adjacency[v]):
                raise MalformedEmbeddingError(
                    f"rotation at vertex {v} does not list its neighbors exactly once"
                )
        self.graph = graph
        self.rotation = tuple(tuple(r) for r in rotation)
        self.faces = tuple(_trace_faces(graph, rotation))
        self.outer_face = self._pick_outer(outer_walk)
        # one face id per edge side
        self._edge_faces: dict[tuple[int, int], list[int]] = {}
        for f in self.faces:
            for e in f.walk_edges():
                self._edge_faces.setdefault(e, []).append(f.id)

    def _pick_outer(self, outer_walk: Optional[Sequence[int]]) -> int:
        if outer_walk is not None:
            target = Face(-1, tuple(outer_walk)).canonical_walk()
            rev = Face(-1, tuple(reversed(tuple(outer_walk)))).canonical_walk()
            for f in self.faces:
                if f.canonical_walk() in (target, rev):
                    return f.id
            raise MalformedEmbeddingError(
                f"no face has boundary walk {tuple(outer_walk)}"
            )
        best = max(self.faces, key=lambda f: (f.degree, [-x for x in f.canonical_walk()]))
        # ties: max degree, then smallest canonical walk
        candidates = [f for f in self.faces if f.degree == best.degree]
        return min(candidates, key=lambda f: f.canonical_walk()).id

    @property
    def n(self) -> int:
        return self.graph.n

    def euler_check(self) -> bool:
        if not self.graph.is_connected():
            return True
        return self.graph.n - self.graph.m + len(self.faces) == 2

    def faces_of_edge(self, u: int, v: int) -> list[int]:
        """Ids of the faces on the two sides of edge uv (equal for a bridge)."""
        return self._edge_faces[edge_key(u, v)]

    def interior_faces(self) -> list[Face]:
        return [f for f in self.faces if f.id != self.outer_face]


def has_cycle_of_length(g: Graph, length: int) -> bool:
    return find_cycle_of_length(g, length) is not None


def find_cycle_of_length(
    g: Graph, length: int, through: Optional[int] = None
) -> Optional[list[int]]:
    """A cycle on exactly `length` distinct vertices, or None.

    Not necessarily induced; exact and exhaustive.  Without `through` the
    cycle found starts at its minimum vertex: the search runs from each
    anchor s in turn over the vertices above s.  With `through` it runs once
    from that vertex over all others, and the cycle starts there.  Paths
    grow lowest neighbour first, so the result is the lexicographically
    smallest such vertex sequence.

    `g` is a Graph or anything else with `n` and adjacency bitsets `masks`
    (the generator passes its builder).
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    if length > g.n:
        return None
    full = (1 << g.n) - 1
    if through is not None:
        return _cycle_from(g.masks, through, length, full)
    for s in range(g.n - length + 1):
        found = _cycle_from(g.masks, s, length, full ^ ((2 << s) - 1))
        if found is not None:
            return found
    return None


def _cycle_from(
    masks: Sequence[int], s: int, length: int, allowed: int
) -> Optional[list[int]]:
    """First `length`-cycle through s whose other vertices lie in `allowed`.

    Depth-first over paths from s, one bitset of untried next vertices per
    depth; the last vertex is drawn from the neighbours of s.
    """
    within = [allowed] * (length - 1) + [allowed & masks[s]]
    path = [s] * length
    used = 1 << s
    untried = [0] * length  # untried[d]: candidates left for position d
    untried[1] = masks[s] & allowed
    d = 1
    while d:
        cand = untried[d]
        if not cand:
            d -= 1
            used ^= 1 << path[d]
            continue
        low = cand & -cand
        untried[d] = cand ^ low
        w = path[d] = low.bit_length() - 1
        if d == length - 1:
            return path
        used |= low
        d += 1
        untried[d] = masks[w] & within[d] & ~used
    return None


def contains_pattern(
    g: Graph, pattern: Graph, through: Optional[int] = None
) -> Optional[dict[int, int]]:
    """Injective mapping carrying every pattern edge to an edge of g, or None.

    Subgraph (not induced-subgraph) containment.  Backtracking over pattern
    vertices in a connectivity-friendly order with degree pruning, from the
    pattern vertex of maximum degree.  With `through`, only occurrences that
    use that vertex of g count: each pattern vertex in turn is pinned to it
    and the same backtracking places the rest.  `g` is as for
    find_cycle_of_length.
    """
    if pattern.n > g.n:
        return None
    if through is None:
        if pattern.n == 0:
            return {}
        roots = [(max(range(pattern.n), key=pattern.degree), (1 << g.n) - 1)]
    else:
        roots = [(p, 1 << through) for p in range(pattern.n)]
    for root, first in roots:
        found = _embed(g.masks, pattern, root, first)
        if found is not None:
            return found
    return None


def _embed(
    masks: Sequence[int], pattern: Graph, root: int, first: int
) -> Optional[dict[int, int]]:
    """Occurrence of `pattern` with `root` mapped into the bitset `first`."""
    # order pattern vertices: root first, then most-constrained-first
    order = [root]
    placed = {root}
    while len(order) < pattern.n:
        best = max(
            (v for v in range(pattern.n) if v not in placed),
            key=lambda v: (len(pattern.adjacency[v] & placed), pattern.degree(v)),
        )
        order.append(best)
        placed.add(best)
    everything = (1 << len(masks)) - 1
    mapping: dict[int, int] = {}

    def assign(i: int, used: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        cand = first if i == 0 else everything
        for q in pattern.adjacency[p]:
            if q in mapping:
                cand &= masks[mapping[q]]
        cand &= ~used
        need = pattern.degree(p)
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            if masks[c].bit_count() < need:
                continue
            mapping[p] = c
            if assign(i + 1, used | low):
                return True
            del mapping[p]
        return False

    return dict(mapping) if assign(0, 0) else None


def all_injection_pattern_oracle(g: Graph, pattern: Graph) -> bool:
    """Naive all-injections subgraph containment; oracle for contains_pattern."""
    if pattern.n > g.n:
        return False
    for image in itertools.permutations(range(g.n), pattern.n):
        if all(g.has_edge(image[u], image[v]) for u, v in pattern.edges):
            return True
    return False


def cycle_vertex_sides(pg: PlaneGraph, cycle: Sequence[int]) -> tuple[set[int], set[int]]:
    """(interior, exterior) vertex sets of a cycle, from the embedding.

    Faces are split by flooding the dual graph without crossing cycle edges;
    the side containing the outer face is the exterior.
    """
    cyc_edges = {
        edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    }
    for u, v in cyc_edges:
        if not pg.graph.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of the graph")
    # dual flood from the outer face
    side = {pg.outer_face}
    stack = [pg.outer_face]
    while stack:
        fid = stack.pop()
        for e in pg.faces[fid].walk_edges():
            if e in cyc_edges:
                continue
            for nf in pg.faces_of_edge(*e):
                if nf not in side:
                    side.add(nf)
                    stack.append(nf)
    on_cycle = set(cycle)
    exterior: set[int] = set()
    interior: set[int] = set()
    for f in pg.faces:
        verts = set(f.walk) - on_cycle
        if f.id in side:
            exterior |= verts
        else:
            interior |= verts
    # vertices seen on both sides would mean the "cycle" does not separate
    return interior - exterior, exterior


def interior_face_ids(pg: PlaneGraph, cycle: Sequence[int]) -> set[int]:
    """Ids of the faces strictly inside the cycle."""
    cyc_edges = {
        edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    }
    side = {pg.outer_face}
    stack = [pg.outer_face]
    while stack:
        fid = stack.pop()
        for e in pg.faces[fid].walk_edges():
            if e in cyc_edges:
                continue
            for nf in pg.faces_of_edge(*e):
                if nf not in side:
                    side.add(nf)
                    stack.append(nf)
    return {f.id for f in pg.faces if f.id not in side}
