"""Shared helpers: random graphs, covers, instance builders, plane hosts."""

from __future__ import annotations

import importlib.resources
import itertools
import math
import random
from pathlib import Path
from typing import Mapping, Sequence

from dpcolor.cover import CoverInstance
from dpcolor.generate import PlaneBuilder, generate_corpus
from dpcolor.graphs import Graph, PlaneGraph
from dpcolor.io import graph_from_dict, load_assets_dir
from dpcolor.patterns import LabeledPattern, catalog

ASSETS = Path(str(importlib.resources.files("dpcolor") / "assets"))


def butterfly_pattern() -> LabeledPattern:
    """The shipped butterfly asset."""
    return load_assets_dir(ASSETS)["butterfly"]


def c7_pattern() -> LabeledPattern:
    """The shipped 7-cycle asset."""
    return load_assets_dir(ASSETS)["c7"]


def plane_from_coords(
    coords: Mapping[str, tuple[float, float]],
    edges: Sequence[tuple[str, str]],
    outer: Sequence[str],
) -> tuple[PlaneGraph, dict[str, int]]:
    """Plane graph from labeled 2-D coordinates; rotation by CCW angle sort."""
    names = sorted(coords)
    index = {name: i for i, name in enumerate(names)}
    g = Graph.from_edges(len(names), [(index[a], index[b]) for a, b in edges])
    rotation = []
    for name in names:
        x0, y0 = coords[name]
        nbrs = sorted(
            g.adjacency[index[name]],
            key=lambda u: math.atan2(
                coords[names[u]][1] - y0, coords[names[u]][0] - x0
            ),
        )
        rotation.append(nbrs)
    pg = PlaneGraph(g, rotation, [index[name] for name in outer])
    return pg, index


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_sigma(rng: random.Random, g: Graph, k: int):
    colors = list(range(1, k + 1))
    out = {}
    for e in sorted(g.edges):
        perm = colors[:]
        rng.shuffle(perm)
        out[e] = tuple(perm)
    return out


def random_cover(rng: random.Random, g: Graph, k: int,
                 full_lists: bool = False) -> CoverInstance:
    sigma = random_sigma(rng, g, k)
    if full_lists:
        avail = tuple(frozenset(range(1, k + 1)) for _ in range(g.n))
    else:
        avail = tuple(
            frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for _ in range(g.n)
        )
    return CoverInstance(g, k, avail, sigma)


def torus_graph(side: int) -> Graph:
    """The side x side 4-regular torus grid, vertex r * side + c."""
    edges = set()
    for r in range(side):
        for c in range(side):
            v = r * side + c
            for w in (r * side + (c + 1) % side, (r + 1) % side * side + c):
                edges.add((min(v, w), max(v, w)))
    return Graph.from_edges(side * side, sorted(edges))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


# Hosts that embed special clusters.  Each draws catalog shapes inside an
# enclosing triangle A, B, C (indices 0, 1, 2) and leaves the x, y, z roles
# with degree 4, so they become internal 4-vertices.


def special_seven_host():
    """Three-ear cluster inside an enclosing triangle; its three central
    vertices become internal 4-vertices, which makes the cluster special."""
    coords = {
        "u": (0, 3.0), "v": (-2.6, -1.5), "w": (2.6, -1.5),
        "x": (0, -1.0), "y": (0.87, 0.5), "z": (-0.87, 0.5),
        "A": (0, 8.0), "B": (-7.0, -4.5), "C": (7.0, -4.5),
    }
    edges = [
        ("x", "y"), ("y", "z"), ("z", "x"),
        ("u", "y"), ("u", "z"), ("v", "x"), ("v", "z"),
        ("w", "x"), ("w", "y"),
        ("A", "B"), ("B", "C"), ("C", "A"),
        ("A", "u"), ("B", "v"), ("C", "w"),
    ]
    return plane_from_coords(coords, edges, ["A", "B", "C"])


def shared_vertex_host(boundary: bool = False, w_degree7: bool = False):
    """An octahedron cluster (shape 11, roles u..z) and a three-ear cluster
    (shape 7, roles U..Z) meeting at v = U.  Both are special, and v is
    4-type on the first and 2-type on the second: a special 6-vertex.

    With boundary=True the octahedron's u is the corner B, so the shape (11)
    cluster touches the outer face and v is no longer special.

    With w_degree7=True two vertices S and T in the face w, A, B join w
    (S also A and B, T also S and B), so w has degree 7; the shape (11)
    cluster keeps its 7 faces and stays all internal.
    """
    u = "B" if boundary else "u"
    coords = {
        u: (-2.2, -1.6), "v": (2.2, -1.6), "w": (0, 2.6),
        "x": (-0.7, -0.1), "z": (0.7, -0.1), "y": (0, -0.8),
        "V": (6.7, -4.2), "W": (6.7, 1.0), "X": (6.2, -1.6),
        "Y": (4.7, -0.73), "Z": (4.7, -2.47),
        "A": (0.0, 10.0), "C": (16.0, -8.0),
    }
    edges = [
        (u, "v"), ("v", "w"), ("w", u), ("x", "y"), ("y", "z"),
        ("z", "x"), (u, "x"), (u, "y"), ("v", "y"), ("v", "z"),
        ("w", "x"), ("w", "z"),
        ("X", "Y"), ("Y", "Z"), ("Z", "X"), ("v", "Y"), ("v", "Z"),
        ("V", "X"), ("V", "Z"), ("W", "X"), ("W", "Y"),
        ("A", "B"), ("B", "C"), ("C", "A"), ("W", "A"), ("V", "C"),
    ]
    if not boundary:
        coords["B"] = (-9.0, -8.0)
        edges += [("u", "B"), ("w", "A")]
    if w_degree7:
        coords.update(S=(-1.5, 4.5), T=(-2.5, 1.5))
        edges += [("S", "w"), ("S", "A"), ("S", "B"),
                  ("T", "w"), ("T", "S"), ("T", "B")]
    return plane_from_coords(coords, edges, ["A", "B", "C"])


def tight_six_host(v_degree6: bool = False):
    """Shape (10) with u, v, w of degree 5: the pattern that the
    tight-6-cluster precondition excludes.

    With v_degree6=True a vertex S inside the face v, u, P, B joins v, P
    and B, so v has degree 6; its new triangles form a cluster of their
    own, and the degrees of u, w, x, y and z are unchanged.
    """
    coords = {
        "v": (-2, 0), "u": (0, 2), "x": (2, 0), "w": (0, -2),
        "y": (0, 0.7), "z": (0, -0.7),
        "A": (0.0, 10.0), "B": (-9.0, -6.0), "C": (9.0, -6.0),
        "P": (-1.5, 4.0), "Q": (-1.5, -4.0), "R": (1.5, -4.0),
    }
    edges = [
        ("v", "u"), ("u", "x"), ("x", "w"), ("w", "v"), ("y", "z"),
        ("y", "v"), ("y", "u"), ("y", "x"), ("z", "v"), ("z", "x"),
        ("z", "w"),
        ("A", "B"), ("B", "C"), ("C", "A"), ("u", "A"), ("v", "B"),
        ("P", "u"), ("P", "A"), ("P", "B"), ("Q", "w"), ("Q", "B"),
        ("R", "w"), ("R", "C"), ("Q", "R"),
    ]
    if v_degree6:
        coords["S"] = (-3.0, 1.0)
        edges += [("S", "v"), ("S", "P"), ("S", "B")]
    return plane_from_coords(coords, edges, ["A", "B", "C"])


def pendant_octahedron_host() -> PlaneGraph:
    """The shape (11) drawing with a pendant vertex on u (0) and one on v
    (1): u, v and w have degree 6 or less and u, v are 5-vertices, but the
    cluster touches the outer face, whose walk repeats u and v.  It is not
    in audit_corpus(), whose reports are pinned."""
    return graph_from_dict({
        "n": 8,
        "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [0, 6], [1, 2], [1, 4],
                  [1, 5], [1, 7], [2, 3], [2, 5], [3, 4], [3, 5], [4, 5]],
        "rotation": {"0": [6, 1, 4, 3, 2], "1": [7, 2, 5, 4, 0],
                     "2": [0, 3, 5, 1], "3": [0, 4, 5, 2], "4": [0, 1, 5, 3],
                     "5": [4, 1, 2, 3], "6": [0], "7": [1]},
    })


def grown(pg: PlaneGraph, keep: set, seed: int, steps: int) -> PlaneGraph:
    """pg after `steps` seeded vertex insertions, none joined to `keep`."""
    builder = PlaneBuilder(rotation=[list(r) for r in pg.rotation])
    rng = random.Random(seed)
    for _ in range(steps):
        sites = []
        for key, start, arity in builder.sites:
            walk = builder.walks[builder.face_id(key)]
            window = {walk[(start + j) % len(walk)] for j in range(arity)}
            if not window & keep:
                sites.append((key, start, arity))
        key, start, arity = rng.choice(sites)
        face_id = builder.face_id(key)
        builder.insert_vertex(face_id, start, arity)
        builder.split_face(face_id)
    return builder.plane()


def audit_corpus() -> list[PlaneGraph]:
    """Seeded plane graphs that reach every audit branch.

    In-class and unrestricted generated graphs, the catalog drawings, and
    the special-cluster hosts grown around their x, y, z roles (and the
    shared vertex), so special clusters, special 6-vertices and both
    tight-cluster patterns occur.
    """
    out = generate_corpus(40, seed=20260823, min_n=6, max_n=14)
    out += generate_corpus(20, seed=5, min_n=8, max_n=24, forbid=())
    out += [pat.plane for pat in catalog().values()]
    hosts = (
        (special_seven_host, "xyz"),
        (shared_vertex_host, "xyzvXYZ"),
        (lambda: shared_vertex_host(boundary=True), "xyzvXYZ"),
        (tight_six_host, "xyz"),
    )
    for host, keep in hosts:
        pg, idx = host()
        out += [grown(pg, {idx[r] for r in keep}, seed, seed % 7)
                for seed in range(12)]
    return out
