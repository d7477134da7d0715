"""DP-coloring covers: matching assignments, straightening, transversal search.

Colors are local names 1..k per vertex.  Each edge {u,v} (stored with u < v)
carries a bijection on {1..k}: the cover edge set {(u,c)-(v, sigma(c))}.
Partial covers are modeled by per-vertex availability masks, never by partial
matchings: sigma is always a full bijection and only its restriction to the
availability sets matters for transversals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import Graph, edge_key


class CoverError(ValueError):
    pass


def identity(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def invert(sigma: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for c, img in enumerate(sigma, start=1):
        inv[img - 1] = c
    return tuple(inv)


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """outer o inner, both as 1-based image tuples."""
    return tuple(outer[inner[c - 1] - 1] for c in range(1, len(inner) + 1))


@dataclass(frozen=True)
class CoverInstance:
    """Graph + color lists + matching assignment (Definition of a DP cover)."""

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

    def edge_map(self, u: int, v: int) -> tuple[int, ...]:
        """Bijection carrying colors of u to the matched colors of v."""
        key = edge_key(u, v)
        if key not in self.sigma:
            raise CoverError(f"({u},{v}) is not an edge")
        s = self.sigma[key]
        return s if key == (u, v) else invert(s)

    def conflicts(self, u: int, cu: int, v: int, cv: int) -> bool:
        """True iff cover vertices (u,cu) and (v,cv) are adjacent."""
        return self.edge_map(u, v)[cu - 1] == cv

    def with_available(self, available: Sequence[Iterable[int]]) -> "CoverInstance":
        return CoverInstance(
            self.graph, self.k, tuple(frozenset(a) for a in available), self.sigma
        )


def is_straight(inst: CoverInstance, edge: Sequence[int]) -> bool:
    u, v = edge
    key = edge_key(u, v)
    if key not in inst.sigma:
        raise CoverError(f"({u},{v}) is not an edge")
    return inst.sigma[key] == identity(inst.k)


def straighten(
    inst: CoverInstance, tree: Iterable[Sequence[int]]
) -> tuple[CoverInstance, tuple[tuple[int, ...], ...]]:
    """Rename colors so that every edge of the forest `tree` is straight.

    Returns the renamed instance and per-vertex renamings pi_v (old -> new
    names).  Transversals correspond bijectively: t'(v) = pi_v(t(v)).
    """
    tree_edges = [edge_key(e[0], e[1]) for e in tree]
    for e in tree_edges:
        if e not in inst.sigma:
            raise CoverError(f"tree edge {e} not in graph")
    # check acyclicity via union-find
    parent = list(range(inst.graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict[int, list[int]] = {}
    for u, v in tree_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CoverError("tree contains a cycle")
        parent[ru] = rv
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    k = inst.k
    pi: list[tuple[int, ...]] = [identity(k)] * inst.graph.n
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v in seen:
                    continue
                seen.add(v)
                # want pi_v o sigma_uv o pi_u^-1 = id  =>  pi_v = pi_u o sigma_uv^-1
                s_uv = inst.edge_map(u, v)
                pi[v] = compose(pi[u], invert(s_uv))
                stack.append(v)

    new_sigma = {}
    for (u, v), s in inst.sigma.items():
        new_sigma[(u, v)] = compose(pi[v], compose(s, invert(pi[u])))
    new_avail = tuple(
        frozenset(pi[v][c - 1] for c in inst.available[v])
        for v in range(inst.graph.n)
    )
    return CoverInstance(inst.graph, k, new_avail, new_sigma), tuple(pi)


def residual(
    inst: CoverInstance, partial: Mapping[int, int], v: int
) -> frozenset[int]:
    """Available colors of v not matched to an assigned neighbor's color."""
    if v in partial:
        raise CoverError(f"vertex {v} is already assigned")
    out = set(inst.available[v])
    for u in inst.graph.adjacency[v]:
        cu = partial.get(u)
        if cu is not None:
            out.discard(inst.edge_map(u, v)[cu - 1])
    return frozenset(out)


def is_independent(inst: CoverInstance, assignment: Mapping[int, int]) -> bool:
    for (u, v), s in inst.sigma.items():
        cu, cv = assignment.get(u), assignment.get(v)
        if cu is not None and cv is not None and s[cu - 1] == cv:
            return False
    return all(
        c in inst.available[v] for v, c in assignment.items()
    )


def find_transversal(
    inst: CoverInstance, partial: Optional[Mapping[int, int]] = None
) -> Optional[dict[int, int]]:
    """Complete independent transversal extending `partial`, or None.

    Vertices whose residual exceeds their count of undecided neighbors are
    deferred and colored greedily at the end (degeneracy preprocessing); the
    rest go to `_search`.
    """
    assignment: dict[int, int] = dict(partial) if partial else {}
    if not is_independent(inst, assignment):
        raise CoverError("partial assignment is not independent")
    undecided = [v for v in range(inst.graph.n) if v not in assignment]

    # degeneracy preprocessing: peel vertices that can always be colored last
    deferred: list[int] = []
    active = set(undecided)
    changed = True
    while changed:
        changed = False
        for v in sorted(active):
            live_nbrs = sum(1 for u in inst.graph.adjacency[v] if u in active and u != v)
            if len(residual(inst, assignment, v)) > live_nbrs:
                active.remove(v)
                deferred.append(v)
                changed = True

    if not _search(inst, assignment, active):
        return None
    for v in reversed(deferred):
        cs = residual(inst, assignment, v)
        if not cs:
            return None  # cannot happen by the peeling invariant
        assignment[v] = min(cs)
    return assignment


def _search(inst: CoverInstance, assignment: dict[int, int],
            pool: set[int]) -> bool:
    """Extend `assignment` to every vertex of `pool`; False if impossible.

    The one transversal search of the package.  Deterministic: MRV vertex
    order (fewest residual colors, ties by id), colors ascending.  On
    success `assignment` covers the pool, which is left empty; on failure
    both are as they were.
    """
    if not pool:
        return True
    v = min(pool, key=lambda x: (len(residual(inst, assignment, x)), x))
    colors = sorted(residual(inst, assignment, v))
    if not colors:
        return False
    pool.remove(v)
    for c in colors:
        assignment[v] = c
        if _search(inst, assignment, pool):
            return True
        del assignment[v]
    pool.add(v)
    return False


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

