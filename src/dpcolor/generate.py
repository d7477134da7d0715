"""Seeded generation of plane graphs with a triangular outer face.

Graphs are grown combinatorially: start from a triangle and repeatedly insert
a new vertex into an interior face, joined to two or three consecutive
boundary vertices of that face.  Each insertion updates the rotation system
directly, so the embedding stays valid by construction.  Insertions that
create a forbidden substructure (a 7-cycle or a butterfly) are rolled back,
which makes it cheap to sample members of the restricted class.

The forbidden-pattern check is rooted at the new vertex.  The graph before
an insertion is free of every forbidden pattern (the triangle is, and each
accepted insertion was checked), and an insertion only adds edges at the new
vertex, so any new copy of a pattern uses that vertex.  Searching only
through it is therefore exact, and it runs on the adjacency bitsets the
builder keeps, so a PlaneGraph is built only once per accepted insertion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .graphs import Graph, PlaneGraph, find_cycle_of_length
from .patterns import contains_butterfly


@dataclass
class PlaneBuilder:
    """Grows a plane graph with outer walk (0, 1, 2) by vertex insertion.

    Alongside the rotation it keeps the adjacency as bitsets (`masks`, as on
    Graph), so the cycle and pattern searches run on the builder itself.
    """

    rotation: list[list[int]] = field(
        default_factory=lambda: [[1, 2], [2, 0], [0, 1]]
    )
    masks: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.masks = [sum(1 << u for u in rot) for rot in self.rotation]

    @property
    def n(self) -> int:
        return len(self.rotation)

    def plane(self) -> PlaneGraph:
        edges = {
            (v, u) if u > v else (u, v)
            for v, rot in enumerate(self.rotation) for u in rot
        }
        g = Graph.from_edges(self.n, sorted(edges))
        return PlaneGraph(g, [list(r) for r in self.rotation], [0, 1, 2])

    def insertion_sites(self, pg: PlaneGraph) -> list[tuple[int, int, int]]:
        """(face id, walk start index, arity) choices for a new vertex."""
        sites = []
        for f in pg.interior_faces():
            d = f.degree
            if len(set(f.walk)) != d:
                continue  # skip faces whose walk repeats a vertex
            for t in (2, 3):
                if t > d:
                    continue
                for i in range(d):
                    sites.append((f.id, i, t))
        return sites

    def insert_vertex(self, pg: PlaneGraph, face_id: int, start: int,
                      arity: int) -> None:
        """Join a new vertex to `arity` consecutive walk vertices of a face.

        The new vertex's rotation is the attachment window reversed; at each
        attachment vertex the new neighbor slots in right after that vertex's
        predecessor on the face walk.
        """
        walk = pg.faces[face_id].walk
        d = len(walk)
        window = [walk[(start + j) % d] for j in range(arity)]
        z = self.n
        self.rotation.append(list(reversed(window)))
        for j, w in enumerate(window):
            pred = walk[(start + j - 1) % d]
            rot = self.rotation[w]
            rot.insert(rot.index(pred) + 1, z)
            self.masks[w] |= 1 << z
        self.masks.append(sum(1 << w for w in window))

    def remove_last_vertex(self) -> None:
        """Undo the last insert_vertex: the rotation is restored exactly."""
        z = self.n - 1
        for w in self.rotation.pop():
            self.rotation[w].remove(z)
            self.masks[w] ^= 1 << z
        self.masks.pop()


def random_plane_graph(
    seed: int,
    target_n: int,
    forbid: Sequence[str] = ("7-cycle", "butterfly"),
    max_tries: int = 400,
) -> PlaneGraph:
    """A plane graph with triangular outer face and about target_n vertices.

    Grown by seeded random vertex insertions.  An insertion that creates a
    forbidden substructure ("7-cycle", "butterfly") is rolled back; the
    check searches only through the new vertex, which is exact because the
    graph before the insertion has none.  Returns early if max_tries
    rejected insertions in a row accumulate before the target size.
    """
    rng = random.Random(seed)
    builder = PlaneBuilder()
    pg = builder.plane()
    sites = builder.insertion_sites(pg)
    tries = 0
    while builder.n < target_n and tries < max_tries and sites:
        face_id, start, arity = rng.choice(sites)
        builder.insert_vertex(pg, face_id, start, arity)
        z = builder.n - 1
        seven = "7-cycle" in forbid and find_cycle_of_length(builder, 7, z)
        if seven or ("butterfly" in forbid and contains_butterfly(builder, z)):
            builder.remove_last_vertex()
            tries += 1
            continue
        tries = 0
        pg = builder.plane()
        sites = builder.insertion_sites(pg)
    return pg


def generate_corpus(
    count: int,
    seed: int,
    min_n: int = 6,
    max_n: int = 16,
    forbid: Sequence[str] = ("7-cycle", "butterfly"),
) -> list[PlaneGraph]:
    """count seeded plane graphs with sizes spread over [min_n, max_n]."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        target = rng.randint(min_n, max_n)
        pg = random_plane_graph(rng.randrange(2**31), target, forbid)
        attempt += 1
        if pg.graph.n >= min_n or attempt > 20 * count:
            out.append(pg)
    return out
