"""DP-coloring covers: matching assignments and the transversal search.

Colors are local names 1..k per vertex.  Each edge {u,v} (stored with u < v)
carries a bijection on {1..k}: the cover edge set {(u,c)-(v, sigma(c))}.
Partial covers are modeled by per-vertex availability masks, never by partial
matchings: sigma is always a full bijection and only its restriction to the
availability sets matters for transversals.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import Graph


class CoverError(ValueError):
    pass


def identity(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def invert(sigma: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for c, img in enumerate(sigma, start=1):
        inv[img - 1] = c
    return tuple(inv)


@dataclass(frozen=True)
class CoverInstance:
    """Graph + color lists + matching assignment (Definition of a DP cover).

    Immutable.  The search tables derived from it (the neighbour color
    tables, the list masks and the degrees) are built on its first search
    and shared by every later search of the same instance, whatever its
    precoloring.
    """

    graph: Graph
    k: int
    available: tuple[frozenset[int], ...]
    sigma: Mapping[tuple[int, int], tuple[int, ...]]

    def __post_init__(self):
        if len(self.available) != self.graph.n:
            raise CoverError("availability must list every vertex")
        full = set(range(1, self.k + 1))
        for v, av in enumerate(self.available):
            if not av <= full:
                raise CoverError(f"available({v}) not a subset of 1..{self.k}")
        if set(self.sigma) != set(self.graph.edges):
            raise CoverError("matchings must be defined exactly on the edge set")
        for e, s in self.sigma.items():
            if sorted(s) != list(range(1, self.k + 1)):
                raise CoverError(f"sigma{e} is not a bijection on 1..{self.k}")

    @staticmethod
    def straight(graph: Graph, k: int,
                 available: Optional[Sequence[Iterable[int]]] = None) -> "CoverInstance":
        """All-identity matchings; equivalent to plain list coloring."""
        if available is None:
            avail = tuple(frozenset(range(1, k + 1)) for _ in range(graph.n))
        else:
            avail = tuple(frozenset(a) for a in available)
        sig = {e: identity(k) for e in graph.edges}
        return CoverInstance(graph, k, avail, sig)

    @functools.cached_property
    def _nbrs(self) -> list[list[tuple[int, tuple[int, ...]]]]:
        """Per vertex v, the pairs (u, table) of its neighbors u and the
        color tables of the edges vu (see `_color_bits`).  Read by the
        search, never written."""
        nbrs: list[list] = [[] for _ in range(self.graph.n)]
        for (u, v), s in self.sigma.items():
            fwd, bwd = _color_bits(s)
            nbrs[u].append((v, fwd))
            nbrs[v].append((u, bwd))
        return nbrs

    @functools.cached_property
    def _list_masks(self) -> tuple[int, ...]:
        """Per vertex, its list as a bitmask: bit c - 1 for color c."""
        return tuple(_color_mask(av) for av in self.available)

    @functools.cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(len(adj) for adj in self.graph.adjacency)


def is_independent(inst: CoverInstance, assignment: Mapping[int, int]) -> bool:
    """Whether `assignment` picks, for each of its vertices v (0 <= v < n),
    a color of v's list, and no cover edge joins two picked colors."""
    n, avail = inst.graph.n, inst.available
    for v, c in assignment.items():
        if not 0 <= v < n or c not in avail[v]:
            return False
    for (u, v), s in inst.sigma.items():
        cu, cv = assignment.get(u), assignment.get(v)
        if cu is not None and cv is not None and s[cu - 1] == cv:
            return False
    return True


def find_transversal(
    inst: CoverInstance, partial: Optional[Mapping[int, int]] = None
) -> Optional[dict[int, int]]:
    """Complete independent transversal extending `partial`, or None.

    Vertices whose residual exceeds their count of undecided neighbors are
    deferred and colored greedily at the end (degeneracy preprocessing); the
    rest go to the search.  Raises CoverError naming the vertex or color
    when `partial` is not a precoloring of the cover.
    """
    assignment: dict[int, int] = dict(partial) if partial else {}
    n = inst.graph.n
    for v, c in assignment.items():
        if not (isinstance(v, int) and 0 <= v < n):
            raise CoverError(
                f"precolored vertex {v!r} is not a vertex (0..{n - 1})")
        if c not in inst.available[v]:
            raise CoverError(f"precolor {c!r} of vertex {v} is not in its "
                             f"list {sorted(inst.available[v])}")
    nbrs, res, state = _prepare(inst, assignment)

    # degeneracy preprocessing: peel vertices that can always be colored
    # last, in ascending-id sweeps until a sweep removes nothing
    adjacency = inst.graph.adjacency
    active = [v for v in range(n) if state[v] == _OUT]
    live = list(inst._degrees)
    for v in assignment:
        for u in adjacency[v]:
            live[u] -= 1
    deferred: list[int] = []
    while True:
        keep = []
        for v in active:
            if res[v].bit_count() > live[v]:
                deferred.append(v)
                for u in adjacency[v]:
                    live[u] -= 1
            else:
                keep.append(v)
        if len(keep) == len(active):
            break
        active = keep

    if active and not _extend(inst.k, nbrs, res, state, assignment, active):
        return None
    for v in reversed(deferred):
        if not res[v]:
            return None  # cannot happen by the peeling invariant
        c = (res[v] & -res[v]).bit_length()
        assignment[v] = c
        state[v] = _SET
        for u, t in nbrs[v]:
            if state[u] != _SET:
                res[u] &= ~t[c - 1]
    return assignment


# Search states of a vertex: unassigned outside the pool (deferred), in the
# pool, assigned.
_OUT, _POOL, _SET = 0, 1, 2


def _prepare(inst: CoverInstance, assignment: Mapping[int, int],
             ) -> tuple[list[list], list[int], bytearray]:
    """The search's tables, residual masks and states under `assignment`.

    Tables: the instance's `_nbrs`, shared, not copied.  Masks: per vertex,
    the residual (its list colors that no assigned neighbor's color is
    matched to) with bit c - 1 for color c; fixed once the vertex is
    assigned.  States: _SET if assigned, else _OUT.  Only the
    masks and states are built per call.  Raises CoverError naming the
    first two assigned vertices whose colors the cover matches.
    """
    nbrs = inst._nbrs
    state = bytearray(inst.graph.n)
    for v in assignment:
        state[v] = _SET
    res = list(inst._list_masks)
    for v, c in assignment.items():
        for u, t in nbrs[v]:
            if state[u] != _SET:
                res[u] &= ~t[c - 1]
            elif t[c - 1] == 1 << (assignment[u] - 1):
                raise CoverError(f"precolored vertices {min(u, v)} and "
                                 f"{max(u, v)} conflict")
    return nbrs, res, state


# Cached across instances: there are only k! bijections and 2^k lists, and
# building their tables per instance would cost more than a small search.
@functools.lru_cache(maxsize=4096)
def _color_bits(s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The color tables of an edge u < v with bijection s, from u and from
    v: entry c - 1 is the bit 1 << (d - 1) of the color d matched to c."""
    return tuple(tuple(1 << (d - 1) for d in p) for p in (s, invert(s)))


@functools.lru_cache(maxsize=4096)
def _color_mask(colors: frozenset[int]) -> int:
    """Bitmask of a color list: bit c - 1 for color c."""
    return sum(1 << (c - 1) for c in colors)


def _search(inst: CoverInstance, assignment: dict[int, int],
            pool: set[int]) -> bool:
    """Extend `assignment` to every vertex of `pool`; False if impossible.

    The one transversal search of the package.  Deterministic: MRV vertex
    order (fewest residual colors, ties by id), colors ascending.  On
    success `assignment` covers the pool, which is left empty; on failure
    both are as they were.
    """
    if not _extend(inst.k, *_prepare(inst, assignment), assignment, pool):
        return False
    pool.clear()
    return True


def _extend(k: int, nbrs: Sequence[tuple], res: list[int],
            state: bytearray, assignment: dict[int, int],
            pool: Iterable[int]) -> bool:
    """`_search` on `_prepare`'s tables, masks and states, without
    recursion.

    Assigning (v, c) clears one bit in the mask of each unassigned neighbor
    (pool or not) and pushes it onto one shared undo trail after a marker;
    backtracking pops the trail back to the marker.  The MRV vertex is the
    lowest vertex of the lowest nonempty bucket, where buckets[s] is the
    bitset of the pool vertices with s residual colors.  The masks of
    assigned vertices stay fixed, so a vertex's untried colors are the bits
    of its mask above its color.  `res` and `state` are kept current for
    every vertex, and are as they were after a failure, except that the
    pool's vertices stay marked _POOL.
    """
    buckets = [0] * (k + 1)
    todo = 0
    for v in pool:
        state[v] = _POOL
        buckets[res[v].bit_count()] |= 1 << v
        todo += 1
    trail: list[int] = []  # per assignment: -1, then (vertex, cleared bit)s
    stack: list[int] = []  # the assigned pool vertices, in order
    while todo:
        s = 0
        while not buckets[s]:
            s += 1
        if s:
            low = buckets[s] & -buckets[s]
            buckets[s] ^= low
            v = low.bit_length() - 1
            todo -= 1
            stack.append(v)
            left = res[v]
        else:
            # a pool vertex has no color left: back up to the deepest
            # vertex with an untried color
            while True:
                if not stack:
                    return False
                v = stack[-1]
                bit = trail.pop()
                while bit > 0:
                    u = trail.pop()
                    r = res[u]
                    res[u] = r | bit
                    if state[u] == _POOL:
                        s = r.bit_count()
                        buckets[s] ^= 1 << u
                        buckets[s + 1] |= 1 << u
                    bit = trail.pop()
                c = assignment.pop(v)
                left = res[v] >> c << c
                if left:
                    break
                stack.pop()
                state[v] = _POOL
                todo += 1
                buckets[res[v].bit_count()] |= 1 << v
        # give v its lowest untried color
        c = (left & -left).bit_length()
        assignment[v] = c
        state[v] = _SET
        trail.append(-1)
        for u, t in nbrs[v]:
            bit = t[c - 1]
            r = res[u]
            if r & bit and state[u] != _SET:
                res[u] = r ^ bit
                trail.append(u)
                trail.append(bit)
                if state[u] == _POOL:
                    s = r.bit_count()
                    buckets[s] ^= 1 << u
                    buckets[s - 1] |= 1 << u
    return True


def brute_force_transversal(inst: CoverInstance) -> Optional[dict[int, int]]:
    """Exhaustive search over all complete assignments (oracle; small n only)."""
    verts = range(inst.graph.n)
    domains = [sorted(inst.available[v]) for v in verts]
    if any(not d for d in domains):
        return None
    for combo in itertools.product(*domains):
        assignment = dict(zip(verts, combo))
        if is_independent(inst, assignment):
            return assignment
    return None

