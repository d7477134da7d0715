"""Built-in pattern graphs: the forbidden butterfly and the cluster catalog.

The JSON assets shipped in `assets/` are the one definition of both: each
is a plane drawing (rotation system and outer face) with role-labeled
vertices, read once, on first use, through `io.load_assets_dir`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from . import graphs
from .graphs import Graph, PlaneGraph, contains_pattern

_ASSETS = Path(__file__).parent / "assets"


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


@functools.cache
def _shipped() -> tuple[dict[int, LabeledPattern], Graph]:
    """The catalog by code and the butterfly's graph, from the shipped
    assets.  The classifier asks for the catalog per cluster and the
    generator checks for the butterfly per insertion, so they are read
    once."""
    from .io import load_assets_dir  # io imports this module

    pats = load_assets_dir(_ASSETS)
    return ({p.code: p for p in sorted(pats.values(), key=lambda p: p.code)
             if p.code}, pats["butterfly"].graph)


def contains_butterfly(g: Graph, through: Optional[int] = None):
    """Witness mapping if g contains the butterfly as a subgraph, else None.

    The butterfly is two fans of three triangles each, sharing only their
    center vertex c: c has degree 8, and each wing is a path of four
    vertices all adjacent to c.  9 vertices, 14 edges.  With `through`,
    only copies that use that vertex of g count.
    """
    return contains_pattern(g, _shipped()[1], through)


# The class: graphs with no pattern below as a subgraph, checked in order.
# A row is search(g, through=None) -> witness or None, exact through a
# vertex (the generator keeps a vertex its search clears); it looks its
# search up by name at each call, so a patch or tracer of it sees every check.
FORBIDDEN = {
    "7-cycle": lambda g, through=None: graphs.find_cycle_of_length(
        g, 7, through),
    "butterfly": lambda g, through=None: contains_butterfly(g, through),
}


def cluster_pattern(code: int) -> LabeledPattern:
    """The catalog shape with the given code (1..11); k 3-faces each.

    Codes by face count k: (1) k=1; (2) k=2; (3) k=3; (4)-(7) k=4;
    (8)-(9) k=5; (10) k=6; (11) k=7.  The drawings:
    (1) one triangle uvw;
    (2) two triangles uvw, uwx glued along uw;
    (3) a fan of three triangles: apex u over the path x-v-w-y;
    (4) a wheel on a 4-cycle: hub y inside the square u v w x;
    (5) a zigzag strip in a hexagon: boundary u,x,v,w,z,y; chords uv, uw, wy;
    (6) a fan of four triangles: apex u over the path y-v-w-x inside a
        hexagon;
    (7) a central triangle xyz with one ear triangle on each side;
    (8) a wheel on a 5-cycle: hub z inside the pentagon u v w x y;
    (9) the pentagon y,u,w,z,v with a near-hub x (adjacent to y,u,w,z) and
        the chord yz;
    (10) the square v,u,x,w with the interior edge yz; y sees v,u,x and z
        sees x,w,v;
    (11) the octahedron: triangle xyz inside triangle uvw, with the
        antipodal pairs u-z, v-x, w-y non-adjacent.
    """
    try:
        return _shipped()[0][code]
    except KeyError:
        raise ValueError(f"no catalog entry with code {code}") from None


def catalog() -> dict[int, LabeledPattern]:
    """The 11 catalog shapes by code, in a fresh dict over shared patterns."""
    return dict(_shipped()[0])
