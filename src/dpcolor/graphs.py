"""Plane graphs: abstract graphs, rotation systems, face tracing, cycles, patterns.

Vertices are integers 0..n-1.  An embedding is given by a rotation system
(cyclic neighbor order per vertex); faces are traced from darts, so the face
structure is purely combinatorial.  On a connected graph with an edge, a
rotation system of genus g traces F faces with V - E + F = 2 - 2g, so it is a
plane embedding exactly when that is 2.  An isolated vertex has no darts, so
no face: it counts 1.  As no component counts more than that, PlaneGraph
checks the sum over the components and rejects any other rotation system.
It also rejects a rotation system with no edge, which traces no face and
so has none to be the outer face.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Invalid graph data (loops, parallel edges, bad vertex ids)."""


class MalformedEmbeddingError(ValueError):
    """Rotation system inconsistent with the underlying graph."""


class OuterWalkError(MalformedEmbeddingError):
    """A given outer walk bounds no face of the embedding."""


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

    @functools.cached_property
    def _searches(self) -> dict:
        """Whole-graph search results, by cycle length or pattern (see
        find_cycle_of_length and contains_pattern)."""
        return {}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    @functools.cached_property
    def component(self) -> tuple[int, ...]:
        """Per vertex, the least vertex of its connected component."""
        comp = [-1] * self.n
        for root in range(self.n):
            if comp[root] >= 0:
                continue
            comp[root] = root
            stack = [root]
            while stack:
                for w in self.adjacency[stack.pop()]:
                    if comp[w] < 0:
                        comp[w] = root
                        stack.append(w)
        return tuple(comp)

    @functools.cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The connected components, each its vertices ascending, in the
        order of their least vertex."""
        out: dict[int, list[int]] = {}
        for v, root in enumerate(self.component):
            out.setdefault(root, []).append(v)
        return tuple(map(tuple, out.values()))


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


def _trace_faces(rotation: Sequence[Sequence[int]]) -> list[Face]:
    """Faces in the order of their smallest dart (u, v), each walk from u.

    Dart (u, v) is followed by (v, w), where w = follow[u, v] follows u in
    the rotation at v.  Each dart not yet met, taken in sorted order, is the
    smallest of its face, whose walk pops the darts it passes.
    """
    follow = {(u, v): rot[i + 1 - len(rot)]
              for v, rot in enumerate(rotation) for i, u in enumerate(rot)}
    faces: list[Face] = []
    for u, v in sorted(follow):
        walk = []
        while (u, v) in follow:
            walk.append(u)
            u, v = v, follow.pop((u, v))
        if walk:
            faces.append(Face(len(faces), tuple(walk)))
    return faces


def _smallest_rotation(walk: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically smallest rotation of a cyclic walk.  A face
    walk repeats no dart, so its smallest rotation starts at its smallest
    dart: every walk of `_trace_faces` is its own."""
    return min(walk[i:] + walk[:i] for i in range(len(walk)))


def _default_outer(faces: Sequence[Face]) -> int:
    """Id of a face of maximum degree, ties broken by smallest walk."""
    top = max(f.degree for f in faces)
    return min((f for f in faces if f.degree == top),
               key=lambda f: f.walk).id


class PlaneGraph:
    """Graph plus rotation system; faces and outer face derived on construction.

    A rotation system that is not a plane embedding (see the module
    docstring) raises MalformedEmbeddingError.

    The outer face may be given as a boundary walk, in either direction
    and from any vertex; otherwise it defaults to a face of maximum degree,
    ties broken by smallest walk.
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
        for v, adj in enumerate(graph.adjacency):
            if len(rotation[v]) != len(adj) or adj != set(rotation[v]):
                raise MalformedEmbeddingError(
                    f"rotation at vertex {v} does not list its neighbors exactly once"
                )
        self.graph = graph
        self.rotation = tuple(tuple(r) for r in rotation)
        self.faces = tuple(_trace_faces(rotation))
        euler = graph.n - graph.m + len(self.faces)
        plane = sum(2 if graph.adjacency[v] else 1
                    for v, root in enumerate(graph.component) if v == root)
        if euler != plane:
            raise MalformedEmbeddingError(
                f"rotation system is not a plane embedding: "
                f"V - E + F = {euler}, not {plane}")
        if not self.faces:
            raise MalformedEmbeddingError(
                "a rotation system with no edge has no face")
        self.outer_face = self._pick_outer(outer_walk)

    def _pick_outer(self, outer_walk: Optional[Sequence[int]]) -> int:
        if outer_walk is None:
            return _default_outer(self.faces)
        walk = tuple(outer_walk)
        wanted = {_smallest_rotation(w) for w in (walk, walk[::-1]) if w}
        for f in self.faces:
            if f.walk in wanted:
                return f.id
        raise OuterWalkError(f"no face has boundary walk {walk}")

    @property
    def n(self) -> int:
        return self.graph.n

    def faces_of_edge(self, u: int, v: int) -> list[int]:
        """Ids of the faces on the two sides of edge uv (equal for a bridge)."""
        return self._edge_faces[edge_key(u, v)]

    def interior_faces(self) -> list[Face]:
        return [f for f in self.faces if f.id != self.outer_face]

    @functools.cached_property
    def internal(self) -> tuple[bool, ...]:
        """Per vertex: True iff it is not on the outer face's boundary."""
        outer = set(self.faces[self.outer_face].walk)
        return tuple(v not in outer for v in range(self.graph.n))

    @functools.cached_property
    def face_edges(self) -> tuple[list[tuple[int, int]], ...]:
        """Per face id, its edges in walk order."""
        return tuple(f.walk_edges() for f in self.faces)

    @functools.cached_property
    def _edge_faces(self) -> dict[tuple[int, int], list[int]]:
        """Per edge, the ids of the faces on its two sides."""
        out: dict[tuple[int, int], list[int]] = {}
        for f, edges in zip(self.faces, self.face_edges):
            for e in edges:
                out.setdefault(e, []).append(f.id)
        return out

    @functools.cached_property
    def outsides(self) -> dict[int, int]:
        """Per component (by its least vertex), the face id that its
        triangles' sides are told apart from: the outer face in its own
        component; in another, the face the default outer-face rule picks
        among that component's faces."""
        comp = self.graph.component
        outer = self.outer_face
        out = {comp[self.faces[outer].walk[0]]: outer}
        others: dict[int, list[Face]] = {}
        for f in self.faces:
            if comp[f.walk[0]] not in out:
                others.setdefault(comp[f.walk[0]], []).append(f)
        out.update((c, _default_outer(fs)) for c, fs in others.items())
        return out

    @functools.cached_property
    def _matches(self) -> dict:
        """Catalog matches of its clusters, by cluster (see
        clusters.classifications)."""
        return {}

    @functools.cached_property
    def facial_triangles(self) -> frozenset[frozenset[int]]:
        """The vertex sets of the 3-faces, the outer face included."""
        return frozenset(frozenset(f.walk) for f in self.faces
                         if f.degree == 3)


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
    smallest such vertex sequence.  Each cycle is walked in one direction
    only (see `_cycle_from`), which keeps that result.

    `g` is a Graph or anything else with `n` and adjacency bitsets `masks`
    (the generator passes its builder).  A Graph is immutable, so the
    whole-graph search (no `through`) runs once per Graph and length: the
    result is kept on the Graph, and each call returns a copy of it.  Other
    hosts are searched on every call.
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    if length > g.n:
        return None
    full = (1 << g.n) - 1
    if through is not None:
        return _cycle_from(g.masks, through, length, full)

    def search() -> Optional[list[int]]:
        for s in range(g.n - length + 1):
            found = _cycle_from(g.masks, s, length, full ^ ((2 << s) - 1))
            if found is not None:
                return found
        return None

    found = _remembered(g, ("cycle", length), search)
    return None if found is None else list(found)


def _remembered(g, key, search):
    """search(), run once per key on a Graph and kept in its `_searches`;
    run on every call for any other host, which may change between calls."""
    if not isinstance(g, Graph):
        return search()
    memo = g._searches
    if key not in memo:
        memo[key] = search()
    return memo[key]


def _cycle_from(
    masks: Sequence[int], s: int, length: int, allowed: int
) -> Optional[list[int]]:
    """First `length`-cycle through s whose other vertices lie in `allowed`.

    Depth-first over paths from s, one bitset of untried next vertices per
    depth; the last vertex is drawn from the neighbours of s.  Each cycle
    is walked in one direction only, its second vertex p1 below its last:
    p1 is drawn below the highest closing neighbour of s, and the last
    vertex above p1.  The first cycle in lexicographic order has p1 below
    its last vertex (else its reverse would come first), so the answer is
    that of walking both directions.
    """
    closers = masks[s] & allowed
    if not closers:
        return None
    within = [allowed] * length
    path = [s] * length
    used = 1 << s
    untried = [0] * length  # untried[d]: candidates left for position d
    untried[1] = closers & ((1 << (closers.bit_length() - 1)) - 1)
    last = length - 1
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
        if d == last:
            return path
        if d == 1:
            within[last] = closers & -(low << 1)
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
    use that vertex of g count: pattern vertices are pinned to it in turn
    and the same backtracking places the rest.  Only the least vertex of
    each automorphism orbit of the pattern is pinned (see `_orbit_reps`):
    a pin succeeds exactly when the others of its orbit do, so the first
    pin that succeeds, and its occurrence, are those of pinning every
    vertex.  `g` is as for find_cycle_of_length, and so is the memo: the
    whole-graph search runs once per Graph and pattern, and each call
    returns a copy of its result.
    """
    if pattern.n > g.n:
        return None
    if through is not None:
        return _first_occurrence(
            g, pattern, [(p, 1 << through) for p in _orbit_reps(pattern)])
    if pattern.n == 0:
        return {}
    root = max(range(pattern.n), key=pattern.degree)
    found = _remembered(g, ("pattern", pattern), lambda: _first_occurrence(
        g, pattern, [(root, (1 << g.n) - 1)]))
    return None if found is None else dict(found)


def _first_occurrence(g, pattern: Graph, roots) -> Optional[dict[int, int]]:
    """The first occurrence over `roots`, pairs (pattern vertex, bitset of
    the host vertices it may take), tried in turn."""
    for root, first in roots:
        found = next(_embed(g.masks, pattern, root, first), None)
        if found is not None:
            return found
    return None


@functools.lru_cache(maxsize=256)
def _orbit_reps(pattern: Graph) -> tuple[int, ...]:
    """The least vertex of each automorphism orbit, ascending.

    The automorphisms are the pattern's occurrences in itself: an
    injection of its vertices onto its own that carries every edge to an
    edge is a bijection on edges too.  All of them are listed, which suits
    small patterns such as the butterfly (8 automorphisms, 3 orbits).
    """
    if pattern.n == 0:
        return ()
    least = list(range(pattern.n))
    for auto in _embed(pattern.masks, pattern, 0, (1 << pattern.n) - 1):
        for v, w in auto.items():
            least[w] = min(least[w], v)
    return tuple(v for v in range(pattern.n) if least[v] == v)


@functools.lru_cache(maxsize=256)
def _placement_plan(pattern: Graph, root: int) -> tuple[tuple, ...]:
    """Per placement step: (pattern vertex, its degree, the earlier steps
    that place its neighbours).  Root first, then the vertex with the most
    placed neighbours, ties to the higher degree, then lower id."""
    order = [root]
    placed = {root}
    while len(order) < pattern.n:
        best = max(
            (v for v in range(pattern.n) if v not in placed),
            key=lambda v: (len(pattern.adjacency[v] & placed), pattern.degree(v)),
        )
        order.append(best)
        placed.add(best)
    return tuple(
        (p, pattern.degree(p),
         tuple(j for j in range(i) if order[j] in pattern.adjacency[p]))
        for i, p in enumerate(order))


def _embed(
    masks: Sequence[int], pattern: Graph, root: int, first: int
) -> Iterator[dict[int, int]]:
    """Every occurrence of `pattern` with `root` mapped into the bitset `first`.

    Depth-first over placement steps (see `_placement_plan`), like
    `_cycle_from`: one bitset of untried host vertices per step, those
    adjacent to the images of the placed neighbours and not yet used, each
    of degree at least the pattern vertex's.  Occurrences come lowest host
    vertex first at each placed pattern vertex, as dicts in placement order.
    """
    plan = _placement_plan(pattern, root)
    order = [p for p, _, _ in plan]
    last = len(plan) - 1
    everything = (1 << len(masks)) - 1
    image = [0] * len(plan)
    untried = [0] * len(plan)  # untried[i]: candidates left for step i
    untried[0] = first
    used = 0
    i = 0
    while i >= 0:
        cand = untried[i]
        need = plan[i][1]
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            if masks[c].bit_count() >= need:
                break
        else:
            i -= 1
            if i >= 0:
                used ^= 1 << image[i]
            continue
        untried[i] = cand
        image[i] = c
        if i == last:
            yield dict(zip(order, image))
            continue
        used |= low
        i += 1
        cand = everything & ~used
        for j in plan[i][2]:
            cand &= masks[image[j]]
        untried[i] = cand


def _face_flood(pg: PlaneGraph, start: int, within=None, blocked=(),
                cap: Optional[int] = None) -> set[int]:
    """Ids of the faces reachable from face `start` across edges not in
    `blocked`, through faces in `within` only (any face, if None).  With a
    `cap`, the flood stops as soon as it holds cap + 1 faces."""
    seen = {start}
    stack = [start]
    face_edges, edge_faces = pg.face_edges, pg._edge_faces
    while stack:
        for e in face_edges[stack.pop()]:
            if e in blocked:
                continue
            for nf in edge_faces[e]:
                if nf not in seen and (within is None or nf in within):
                    seen.add(nf)
                    if cap is not None and len(seen) > cap:
                        return seen
                    stack.append(nf)
    return seen
