"""Built-in pattern graphs: forbidden substructures and the cluster catalog.

Each catalog entry is a plane drawing of one cluster shape, built from 2-D
coordinates (rotations = neighbors sorted by angle) with role-labeled
vertices.  The same constructors both ship as JSON assets and back the
classifier, so the assets are reproducible from this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .graphs import Graph, PlaneGraph, contains_pattern


@dataclass(frozen=True)
class LabeledPattern:
    """A plane pattern with role-labeled vertices (u, v, w, x, y, z, ...)."""

    name: str
    plane: PlaneGraph
    labels: Mapping[str, int]  # role label -> vertex id
    code: int = 0  # catalog code, 0 for non-cluster patterns

    @property
    def graph(self) -> Graph:
        return self.plane.graph


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


def _pattern(name, code, coords, edges, outer) -> LabeledPattern:
    pg, index = plane_from_coords(coords, edges, outer)
    return LabeledPattern(name, pg, index, code)


def butterfly_pattern() -> LabeledPattern:
    """Two fans of three triangles each, sharing only their center vertex.

    Center c has degree 8; each wing is a path of four vertices all adjacent
    to c.  9 vertices, 14 edges.
    """
    coords = {
        "a1": (-3.0, 1.0), "a2": (-1.0, 2.0), "a3": (1.0, 2.0), "a4": (3.0, 1.0),
        "b1": (-3.0, -1.0), "b2": (-1.0, -2.0), "b3": (1.0, -2.0), "b4": (3.0, -1.0),
        "c": (0.0, 0.0),
    }
    edges = [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
        ("b1", "b2"), ("b2", "b3"), ("b3", "b4"),
        ("c", "a1"), ("c", "a2"), ("c", "a3"), ("c", "a4"),
        ("c", "b1"), ("c", "b2"), ("c", "b3"), ("c", "b4"),
    ]
    outer = ["a1", "a2", "a3", "a4", "c", "b4", "b3", "b2", "b1", "c"]
    return _pattern("butterfly", 0, coords, edges, outer)


def contains_butterfly(g: Graph, through: Optional[int] = None):
    """Witness mapping if g contains the butterfly as a subgraph, else None.

    With `through`, only copies that use that vertex of g count.
    """
    return contains_pattern(g, _BUTTERFLY, through)


def c7_pattern() -> LabeledPattern:
    coords = {
        f"v{i}": (2 * math.cos(2 * math.pi * i / 7 + math.pi / 2),
                  2 * math.sin(2 * math.pi * i / 7 + math.pi / 2))
        for i in range(7)
    }
    edges = [(f"v{i}", f"v{(i + 1) % 7}") for i in range(7)]
    return _pattern("c7", 0, coords, edges, [f"v{i}" for i in range(7)])


def _pentagon(labels: Sequence[str], r: float = 2.0) -> dict[str, tuple[float, float]]:
    return {
        lbl: (r * math.cos(2 * math.pi * i / len(labels) + math.pi / 2),
              r * math.sin(2 * math.pi * i / len(labels) + math.pi / 2))
        for i, lbl in enumerate(labels)
    }


def cluster_pattern(code: int) -> LabeledPattern:
    """The catalog shape with the given code (1..11); k 3-faces each.

    Codes by face count k: (1) k=1; (2) k=2; (3) k=3; (4)-(7) k=4;
    (8)-(9) k=5; (10) k=6; (11) k=7.
    """
    if code == 1:
        return _pattern(
            "cluster-01", 1,
            {"u": (0, 2), "v": (-2, -1), "w": (2, -1)},
            [("u", "v"), ("v", "w"), ("u", "w")],
            ["u", "v", "w"],
        )
    if code == 2:
        # two triangles uvw, uwx glued along uw
        return _pattern(
            "cluster-02", 2,
            {"u": (0, 2), "w": (0, -2), "v": (-2, 0), "x": (2, 0)},
            [("u", "v"), ("v", "w"), ("u", "w"), ("u", "x"), ("w", "x")],
            ["u", "v", "w", "x"],
        )
    if code == 3:
        # fan of three triangles: apex u over the path x-v-w-y
        return _pattern(
            "cluster-03", 3,
            {"u": (0, 2), "x": (-3, -1), "v": (-1, -1.5), "w": (1, -1.5),
             "y": (3, -1)},
            [("u", "x"), ("u", "v"), ("u", "w"), ("u", "y"),
             ("x", "v"), ("v", "w"), ("w", "y")],
            ["u", "x", "v", "w", "y"],
        )
    if code == 4:
        # wheel on a 4-cycle: hub y inside square u v w x
        return _pattern(
            "cluster-04", 4,
            {"u": (-2, 2), "v": (2, 2), "w": (2, -2), "x": (-2, -2),
             "y": (0, 0)},
            [("u", "v"), ("v", "w"), ("w", "x"), ("x", "u"),
             ("y", "u"), ("y", "v"), ("y", "w"), ("y", "x")],
            ["u", "v", "w", "x"],
        )
    if code == 5:
        # zigzag strip in a hexagon: boundary u,x,v,w,z,y; chords uv, uw, wy
        coords = _pentagon(["u", "x", "v", "w", "z", "y"])
        return _pattern(
            "cluster-05", 5, coords,
            [("u", "x"), ("x", "v"), ("v", "w"), ("w", "z"), ("z", "y"),
             ("y", "u"), ("u", "v"), ("u", "w"), ("w", "y")],
            ["u", "x", "v", "w", "z", "y"],
        )
    if code == 6:
        # fan of four triangles: apex u over the path y-v-w-x inside a hexagon
        coords = _pentagon(["u", "y", "v", "w", "x", "z"])
        return _pattern(
            "cluster-06", 6, coords,
            [("u", "y"), ("y", "v"), ("v", "w"), ("w", "x"), ("x", "z"),
             ("z", "u"), ("u", "v"), ("u", "w"), ("u", "x")],
            ["u", "y", "v", "w", "x", "z"],
        )
    if code == 7:
        # central triangle xyz with one ear triangle on each side
        return _pattern(
            "cluster-07", 7,
            {"u": (0, 3.0), "v": (-2.6, -1.5), "w": (2.6, -1.5),
             "x": (0, -1.0), "y": (0.87, 0.5), "z": (-0.87, 0.5)},
            [("x", "y"), ("y", "z"), ("z", "x"),
             ("u", "y"), ("u", "z"), ("v", "x"), ("v", "z"),
             ("w", "x"), ("w", "y")],
            ["u", "z", "v", "x", "w", "y"],
        )
    if code == 8:
        # wheel on a 5-cycle: hub z inside pentagon u v w x y
        coords = _pentagon(["u", "v", "w", "x", "y"])
        coords["z"] = (0.0, 0.0)
        return _pattern(
            "cluster-08", 8, coords,
            [("u", "v"), ("v", "w"), ("w", "x"), ("x", "y"), ("y", "u"),
             ("z", "u"), ("z", "v"), ("z", "w"), ("z", "x"), ("z", "y")],
            ["u", "v", "w", "x", "y"],
        )
    if code == 9:
        # pentagon y,u,w,z,v with near-hub x (adjacent to y,u,w,z) and chord yz
        coords = _pentagon(["y", "u", "w", "z", "v"])
        coords["x"] = (-0.475, -0.155)
        return _pattern(
            "cluster-09", 9, coords,
            [("y", "u"), ("u", "w"), ("w", "z"), ("z", "v"), ("v", "y"),
             ("x", "y"), ("x", "u"), ("x", "w"), ("x", "z"), ("y", "z")],
            ["y", "u", "w", "z", "v"],
        )
    if code == 10:
        # square v,u,x,w with interior edge yz; y sees v,u,x and z sees x,w,v
        return _pattern(
            "cluster-10", 10,
            {"v": (-2, 0), "u": (0, 2), "x": (2, 0), "w": (0, -2),
             "y": (0, 0.7), "z": (0, -0.7)},
            [("v", "u"), ("u", "x"), ("x", "w"), ("w", "v"),
             ("y", "z"), ("y", "v"), ("y", "u"), ("y", "x"),
             ("z", "v"), ("z", "x"), ("z", "w")],
            ["v", "u", "x", "w"],
        )
    if code == 11:
        # octahedron: triangle xyz inside triangle uvw, antipodal pairs
        # u-z, v-x, w-y non-adjacent
        return _pattern(
            "cluster-11", 11,
            {"u": (-2.2, -1.6), "v": (2.2, -1.6), "w": (0, 2.6),
             "x": (-0.7, -0.1), "z": (0.7, -0.1), "y": (0, -0.8)},
            [("u", "v"), ("v", "w"), ("w", "u"),
             ("x", "y"), ("y", "z"), ("z", "x"),
             ("u", "x"), ("u", "y"), ("v", "y"), ("v", "z"),
             ("w", "x"), ("w", "z")],
            ["u", "v", "w"],
        )
    raise ValueError(f"no catalog entry with code {code}")


def catalog() -> dict[int, LabeledPattern]:
    """The 11 catalog shapes by code, in a fresh dict over shared patterns."""
    return dict(_CATALOG)


# Built once at import: the classifier asks for the catalog per cluster and
# the generator checks for the butterfly per insertion.
_BUTTERFLY = butterfly_pattern().graph
_CATALOG = {code: cluster_pattern(code) for code in range(1, 12)}


def pattern_from_dict(data: Mapping) -> LabeledPattern:
    """LabeledPattern from an asset dictionary (graph fields + labels/code)."""
    from .io import graph_from_dict

    pg = graph_from_dict(dict(data))
    if not isinstance(pg, PlaneGraph):
        raise ValueError("pattern asset must carry a rotation system")
    labels = {lbl: int(v) for lbl, v in data.get("labels", {}).items()}
    return LabeledPattern(
        str(data.get("name", "pattern")), pg, labels, int(data.get("code", 0))
    )


def builtin_assets_dir() -> str:
    import importlib.resources

    return str(importlib.resources.files("dpcolor") / "assets")


def load_assets_dir(path: str) -> dict[str, LabeledPattern]:
    """All pattern assets in a directory, keyed by name."""
    import json
    from pathlib import Path

    out = {}
    for entry in sorted(Path(path).glob("*.json")):
        with open(entry) as fh:
            data = json.load(fh)
        if "labels" in data or "code" in data or "name" in data:
            pat = pattern_from_dict(data)
            out[pat.name] = pat
    return out
