"""Naive oracles: reducibility by exhaustion, and rooted graph searches.

Reducibility: every instance, one `local_solve` each.

The oracle uses none of the checker's reductions: no straightened forest,
no decomposition at a cut vertex or pivot, no mask kernel.  An instance is
one floor-sized list per vertex and one maximal injection per edge, and
every one of them is solved on its own.

With canonical=True every vertex gets the list {1..floor} instead of every
floor-sized list.  That loses no instance up to renaming, because the oracle
straightens nothing: renaming the colors at a vertex maps the maximal
injections on its edges onto each other.  It keeps configurations with a
full-floor pivot small enough to enumerate.

Graph searches: brute force over vertex permutations for "some cycle or
pattern occurrence uses vertex v", and a recursive whole-graph cycle search
that fixes which cycle `find_cycle_of_length` must return.
"""

from __future__ import annotations

import itertools
import math

from dpcolor.graphs import Graph
from dpcolor.reduce import (
    K, NOT_REDUCIBLE, REDUCIBLE, Configuration, local_solve,
    maximal_injections,
)


def floor_lists(floor: int, canonical: bool = False) -> list[frozenset[int]]:
    if canonical:
        return [frozenset(range(1, floor + 1))]
    return [frozenset(c) for c in itertools.combinations(range(1, K + 1), floor)]


def instance_count(floors, edges, canonical: bool = False) -> int:
    """How many instances `instances` yields for these floors and edges."""
    lists = math.prod(len(floor_lists(f, canonical)) for f in floors)
    maps = math.prod(
        math.perm(max(floors[u], floors[v]), min(floors[u], floors[v]))
        for u, v in edges)
    return lists * maps


def instances(cfg: Configuration, canonical: bool = False):
    """(lists, constraints) for every instance of the configuration."""
    edges = sorted(cfg.graph.edges)
    for lists in itertools.product(
            *(floor_lists(f, canonical) for f in cfg.floors)):
        avail = dict(enumerate(lists))
        options = [maximal_injections(avail[u], avail[v]) for u, v in edges]
        for maps in itertools.product(*options):
            yield avail, [(u, v, m) for (u, v), m in zip(edges, maps)]


def bad_colors(cfg: Configuration, avail, cons) -> int:
    """Colors of the margin vertex whose precoloring leaves no transversal."""
    v = cfg.margin_vertex
    verts = range(cfg.graph.n)
    return sum(
        local_solve(verts, {**avail, v: frozenset({c})}, cons) is None
        for c in avail[v])


def verdict(cfg: Configuration, canonical: bool = False):
    """(status, worst bad-color count or None) by exhaustion.

    A margin configuration is REDUCIBLE iff no instance has two bad colors
    at the margin vertex; every other strategy asks whether every instance
    has a transversal.
    """
    if cfg.strategy == "margin":
        worst = max(bad_colors(cfg, avail, cons)
                    for avail, cons in instances(cfg, canonical))
        return (REDUCIBLE if worst <= 1 else NOT_REDUCIBLE), worst
    verts = range(cfg.graph.n)
    for avail, cons in instances(cfg, canonical):
        if local_solve(verts, avail, cons) is None:
            return NOT_REDUCIBLE, None
    return REDUCIBLE, None


def cycle_through(g: Graph, length: int, v: int) -> bool:
    """Whether some cycle on `length` distinct vertices passes through v."""
    others = [u for u in range(g.n) if u != v]
    for rest in itertools.permutations(others, length - 1):
        cyc = (v, *rest)
        if all(g.has_edge(cyc[i], cyc[(i + 1) % length])
               for i in range(length)):
            return True
    return False


def pattern_through(g: Graph, pattern: Graph, v: int) -> bool:
    """Whether some occurrence of `pattern` in g maps a vertex onto v."""
    for image in itertools.permutations(range(g.n), pattern.n):
        if v in image and all(g.has_edge(image[a], image[b])
                              for a, b in pattern.edges):
            return True
    return False


def first_cycle(g: Graph, length: int):
    """The recursive whole-graph cycle search, kept as the reference.

    DFS over paths anchored at their minimum vertex, neighbours in
    ascending order; the first closed path of `length` vertices wins.
    """
    if length > g.n:
        return None
    adj = g.adjacency

    def extend(path: list[int], on_path: set[int]):
        if len(path) == length:
            return path[:] if path[0] in adj[path[-1]] else None
        for w in sorted(adj[path[-1]]):
            if w <= path[0] or w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            found = extend(path, on_path)
            if found:
                return found
            path.pop()
            on_path.remove(w)
        return None

    for start in range(g.n):
        found = extend([start], {start})
        if found:
            return found
    return None
