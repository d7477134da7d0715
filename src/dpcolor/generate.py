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
builder keeps.  An accepted insertion of arity t replaces one face by t new
ones, so the builder splits that face in its own face list and re-lists the
insertion sites of the new faces only.  The new faces follow from the old
walk and the window, so they are not traced.  The builder keeps its walks
only for the insertion sites: a PlaneGraph is built of the starting
rotation, which checks it, and once per graph when growth stops, and each
traces its rotation like any other.

The generator also remembers two kinds of rejection, and both are exact, so
the graphs it returns are those of searching every drawn site.  A rejected
site is not searched again until an insertion is accepted: its attachment
window is fixed until its face is split, and the graph is unchanged until
then, so the answer is too.  When the rooted search finds a 7-cycle
[z, p1, ..., p6], the pair {p1, p6} is kept for the whole run: the 5-edge
path p1 ... p6 avoids z, survives every later insertion (they only add
vertices and edges), and so closes a 7-cycle through any new vertex joined
to both ends.  A window holding such a pair is rejected without a search.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .graphs import (
    Graph, MalformedEmbeddingError, PlaneGraph, _smallest_rotation,
    edge_key, find_cycle_of_length,
)
from .patterns import contains_butterfly


Site = tuple[tuple[int, int], int, int]  # (face key, walk start, arity)

MAX_TRIES = 400  # rejected insertions in a row before a graph is given up


def _face_sites(walk: tuple[int, ...]) -> list[Site]:
    """(face key, walk start index, arity) choices in one interior face."""
    return [(walk[:2], i, t) for t in (2, 3) if t <= len(walk)
            for i in range(len(walk))]


def _plane(rotation: Sequence[Sequence[int]]) -> PlaneGraph:
    """The PlaneGraph of a rotation system with outer walk (0, 1, 2)."""
    edges = {edge_key(u, v) for v, rot in enumerate(rotation) for u in rot}
    return PlaneGraph(Graph.from_edges(len(rotation), sorted(edges)),
                      [list(r) for r in rotation], [0, 1, 2])


@dataclass
class PlaneBuilder:
    """Grows a plane graph with outer walk (0, 1, 2) by vertex insertion.

    Alongside the rotation it keeps the adjacency as bitsets (`masks`, as on
    Graph), so the cycle and pattern searches run on the builder itself.  It
    also keeps the faces as PlaneGraph traces them: `walks[i]` is the walk of
    face i, faces in the order of their smallest dart (u, v), the face's key,
    and each walk starts at u.  Walks thus sort by key, and `face_id(key)`
    finds a face by bisection.  `outer_walk` is the outer face's walk, and
    `sites` holds the insertion choices of the interior faces, grouped by
    face in the same order.  Every face is a cycle: the starting rotation's
    faces must be (a rotation with a face whose walk repeats a vertex is
    rejected), and an insertion into a cycle cuts it into cycles.
    """

    rotation: list[list[int]] = field(
        default_factory=lambda: [[1, 2], [2, 0], [0, 1]]
    )
    masks: list[int] = field(init=False)
    walks: list[tuple[int, ...]] = field(init=False)
    outer_walk: tuple[int, ...] = field(init=False)
    sites: list[Site] = field(init=False)

    def __post_init__(self) -> None:
        self.masks = [sum(1 << u for u in rot) for rot in self.rotation]
        # PlaneGraph checks the rotation and picks the outer face; insertions
        # only split interior faces, so the outer face never changes
        pg = _plane(self.rotation)
        self.walks = [f.walk for f in pg.faces]
        if any(len(set(w)) != len(w) for w in self.walks):
            raise MalformedEmbeddingError("a face walk repeats a vertex")
        self.outer_walk = self.walks[pg.outer_face]
        self.sites = [site for w in self.walks if w != self.outer_walk
                      for site in _face_sites(w)]

    @property
    def n(self) -> int:
        return len(self.rotation)

    def face_id(self, key: tuple[int, int]) -> int:
        """Id of the face whose smallest dart is `key`."""
        return bisect_left(self.walks, key)

    def plane(self) -> PlaneGraph:
        """The PlaneGraph of the current rotation with outer walk (0, 1, 2).

        PlaneGraph traces the rotation; the builder's walks serve only its
        insertion sites.  Between insert_vertex and split_face or
        remove_last_vertex the builder is mid-insertion, and plane() raises.
        """
        # one face walk step per dart
        if sum(map(len, self.walks)) != sum(map(len, self.rotation)):
            raise MalformedEmbeddingError(
                "the faces are stale: split_face or remove_last_vertex first")
        return _plane(self.rotation)

    def window(self, face_id: int, start: int, arity: int) -> list[int]:
        """The `arity` consecutive walk vertices of a face from index `start`:
        those a vertex inserted at site (face, start, arity) is joined to."""
        walk = self.walks[face_id]
        return [walk[(start + j) % len(walk)] for j in range(arity)]

    def insert_vertex(self, face_id: int, start: int, arity: int) -> None:
        """Join a new vertex to the window of a site.

        The new vertex's rotation is the window reversed; at each window
        vertex the new neighbor slots in right after that vertex's
        predecessor on the face walk.  The faces are left as they were:
        either undo with remove_last_vertex or keep with split_face(face_id).
        """
        window = self.window(face_id, start, arity)
        preds = [self.walks[face_id][start - 1]] + window
        z = self.n
        self.rotation.append(window[::-1])
        for pred, w in zip(preds, window):
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

    def split_face(self, face_id: int) -> None:
        """Replace face `face_id`, into which the last insert_vertex went, by
        the faces the new vertex cuts it into, and its sites by theirs.

        Nothing is traced.  The window a_0 .. a_{t-1} is the rotation at the
        new vertex z reversed, and it starts at index s of the old walk W
        (one index: every face is a cycle).  The new faces are
        the triangles (a_j, a_{j+1}, z) and the rest of W closed through z,
        (a_0, z, a_{t-1}, W[s+t], ..., W[s-1]), each from its smallest dart.
        """
        old = self.walks.pop(face_id)
        # its sites (key, i, t) have i < len(old), so sort below (key, len)
        del self.sites[bisect_left(self.sites, (old[:2],)):
                       bisect_left(self.sites, (old[:2], len(old)))]
        z = self.n - 1
        window = self.rotation[z][::-1]
        s = old.index(window[0])
        rest = (old[s:] + old[:s])[len(window):]
        new = [(a, b, z) for a, b in zip(window, window[1:])]
        new.append((window[0], z, window[-1], *rest))
        for walk in map(_smallest_rotation, new):
            insort(self.walks, walk)
            at = bisect_left(self.sites, (walk[:2],))
            self.sites[at:at] = _face_sites(walk)


def random_plane_graph(
    seed: int,
    target_n: int,
    forbid: Sequence[str] = ("7-cycle", "butterfly"),
) -> PlaneGraph:
    """A plane graph with triangular outer face and about target_n vertices.

    Grown by seeded random vertex insertions.  An insertion that creates a
    forbidden substructure ("7-cycle", "butterfly") is rolled back; the
    check searches only through the new vertex, which is exact because the
    graph before the insertion has none.  Returns early if MAX_TRIES
    rejected insertions in a row accumulate before the target size, or as
    soon as every insertion site of the current graph has been rejected.
    """
    unknown = set(forbid) - {"7-cycle", "butterfly"}
    if unknown:
        raise ValueError(f"forbid: unknown {sorted(unknown)}; choices: "
                         f"'7-cycle', 'butterfly'")
    rng = random.Random(seed)
    builder = PlaneBuilder()
    rejected: set[Site] = set()  # since the last accepted insertion
    bad_pairs: set[tuple[int, int]] = set()  # ends of a 5-edge path
    tries = 0
    while (builder.n < target_n and tries < MAX_TRIES
           and len(rejected) < len(builder.sites)):
        site = rng.choice(builder.sites)
        if site in rejected or not _insert(builder, site, forbid, bad_pairs):
            rejected.add(site)
            tries += 1
            continue
        rejected.clear()
        tries = 0
    return builder.plane()


def _insert(builder: PlaneBuilder, site: Site, forbid: Sequence[str],
            bad_pairs: set[tuple[int, int]]) -> bool:
    """Insert a vertex at `site` and keep it unless it creates a forbidden
    substructure; a 7-cycle found adds its pair to `bad_pairs`."""
    key, start, arity = site
    face_id = builder.face_id(key)
    if "7-cycle" in forbid and any(
            edge_key(a, b) in bad_pairs
            for a, b in combinations(builder.window(face_id, start, arity), 2)):
        return False
    builder.insert_vertex(face_id, start, arity)
    z = builder.n - 1
    seven = "7-cycle" in forbid and find_cycle_of_length(builder, 7, z)
    if seven:
        bad_pairs.add(edge_key(seven[1], seven[-1]))
    if seven or ("butterfly" in forbid and contains_butterfly(builder, z)):
        builder.remove_last_vertex()
        return False
    builder.split_face(face_id)
    return True


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
