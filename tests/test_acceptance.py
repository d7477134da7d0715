"""Acceptance criteria: golden verdicts, oracle equivalences, exact ledgers.

Each test class covers one numbered criterion; the docstrings state the
checked contract.  These are the binding end-to-end checks for the package;
unit-level variants live in the per-module test files.
"""

import itertools
import json
import random
import time

import numpy as np
import oracle
import pytest

from conftest import ASSETS, petersen, random_graph, random_sigma
from dpcolor.clusters import classify_cluster, extract_clusters, \
    has_good_outer_triangle
from dpcolor.cover import (
    CoverInstance, brute_force_transversal, find_transversal, invert,
    is_independent,
)
from dpcolor.discharge import OUTER, audit, outer_identity
from dpcolor.generate import generate_corpus
from dpcolor.graphs import Graph, PlaneGraph, has_cycle_of_length
from dpcolor.io import parse_cover_file, parse_graph_file
from dpcolor.patterns import contains_butterfly
from dpcolor.reduce import (
    NOT_REDUCIBLE, REDUCIBLE, check_reducible, config_catalog, verify_witness,
)

CATALOG = config_catalog()


class TestCriterion1GoldenLemmaVerdicts:
    """Full-mode checks return REDUCIBLE for every catalog configuration,
    inside the per-configuration time budgets."""

    @pytest.mark.parametrize("label,budget_s", [
        ("L2", 10.0),
        ("L4-diamond", 10.0),
        ("L5-special5", 60.0),
        ("L6-precolor", 60.0),
        ("L7-555", 600.0),
        ("L8-556", 7200.0),
    ])
    def test_reducible_within_budget(self, label, budget_s):
        t0 = time.monotonic()
        v = check_reducible(CATALOG[label], mode="full")
        elapsed = time.monotonic() - t0
        assert v.status == REDUCIBLE, f"{label}: {v.status} ({v.stats})"
        assert elapsed < budget_s

    def test_l6_margin_at_most_one_bad_color(self):
        v = check_reducible(CATALOG["L6-precolor"], mode="full")
        assert v.status == REDUCIBLE
        assert v.stats["worst_bad_colors"] <= 1


class TestCriterion2GadgetConfirmation:
    """The two frozen counterexample covers admit no transversal, proved by
    exhausting all complete assignments in under a second."""

    @pytest.mark.parametrize("name", ["ce6.json", "ce7.json"])
    def test_witness_verify_fast_and_exhaustive(self, name):
        inst = parse_cover_file(ASSETS / name)
        candidates = 1
        for v in range(inst.graph.n):
            candidates *= len(inst.available[v])
        assert candidates <= 4 ** 6
        t0 = time.monotonic()
        assert verify_witness(inst)
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("label", ["CE-6", "CE-7"])
    def test_checker_rediscovers_gadgets(self, label):
        v = check_reducible(CATALOG[label], mode="full")
        assert v.status == NOT_REDUCIBLE
        assert verify_witness(v.witness)


class TestCriterion3EnumerationSoundness:
    """On the glued-triangles configuration, the symmetry-reduced check and
    a fully naive enumeration (full bijections on every edge, every
    floor-sized list choice, supersets sampled by monotonicity) agree."""

    def test_naive_enumeration_agrees(self):
        reduced = check_reducible(CATALOG["L4-diamond"], mode="full")
        assert reduced.status == REDUCIBLE
        assert not self._naive_blocked_exists()

    @staticmethod
    def _naive_blocked_exists() -> bool:
        # vertices u, v (3 colors) and x, y (2 colors); edges uv, ux, vx,
        # uy, vy.  A (tu, tv) choice kills tip x exactly when x's two colors
        # are the images of tu and tv, so instances collapse to 16-bit masks
        # over the (tu, tv) grid.
        perms = np.array(list(itertools.permutations(range(4))))  # 24 x 4
        pair_of = np.arange(16).reshape(4, 4)
        lists3 = [frozenset(c) for c in itertools.combinations(range(4), 3)]
        lists2 = [frozenset(c) for c in itertools.combinations(range(4), 2)]

        # valid-pair masks V for every (sigma_uv, Lu, Lv)
        valid_masks = []
        for s_uv in perms:
            for lu in lists3:
                for lv in lists3:
                    m = 0
                    for tu in lu:
                        for tv in lv:
                            if s_uv[tu] != tv:
                                m |= 1 << pair_of[tu, tv]
                    valid_masks.append(m)
        varr = np.array(valid_masks, dtype=np.uint32)

        # tip-blocking masks per list: all (sigma_a, sigma_b) image patterns
        def tip_masks(lst: frozenset) -> np.ndarray:
            out = set()
            for sa in perms:
                for sb in perms:
                    m = 0
                    for tu in range(4):
                        for tv in range(4):
                            if {sa[tu], sb[tv]} == lst:
                                m |= 1 << pair_of[tu, tv]
                    out.add(m)
            return np.array(sorted(out), dtype=np.uint32)

        masks_by_list = {lst: tip_masks(lst) for lst in lists2}

        def superset_exists_table(masks: np.ndarray) -> np.ndarray:
            # table[s] == True iff some mask is a superset of s
            table = np.zeros(1 << 16, dtype=bool)
            table[masks] = True
            idx = np.arange(1 << 16)
            for i in range(16):
                lower = idx[(idx >> i) & 1 == 0]
                table[lower] |= table[lower | (1 << i)]
            return table

        for ly in lists2:
            ey = superset_exists_table(masks_by_list[ly])
            for lx in lists2:
                mx = masks_by_list[lx]
                # blocked iff some y-mask covers what x and the pair grid
                # leave over: V & ~mx
                need = varr[:, None] & ~mx[None, :]
                if ey[need & np.uint32(0xFFFF)].any():
                    return True
        return False

    def test_superset_monotonicity_sampled(self):
        # growing any list of a solvable instance keeps it solvable
        rng = random.Random(4)
        cfg = CATALOG["L4-diamond"]
        g = cfg.graph
        for _ in range(200):
            sigma = random_sigma(rng, g, 4)
            avail = [
                frozenset(rng.sample(range(1, 5), cfg.floors[v]))
                for v in range(g.n)
            ]
            inst = CoverInstance(g, 4, tuple(avail), sigma)
            assert find_transversal(inst) is not None
            grown = CoverInstance(g, 4, tuple(
                a | {rng.randint(1, 4)} for a in avail
            ), sigma)
            assert find_transversal(grown) is not None


class TestCriterion4SolverOracleEquivalence:
    """find_transversal matches brute force on small instances, and matches
    a direct list-coloring backtracker on straight instances."""

    def test_small_instances_vs_brute_force(self):
        rng = random.Random(12345)
        instances = 0
        # all labeled graphs on 3 and 4 vertices, plus random 5/6-vertex ones
        hosts = []
        for n in (3, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                hosts.append(Graph.from_edges(
                    n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
        while instances < 10_000:
            if rng.random() < 0.7:
                g = hosts[rng.randrange(len(hosts))]
            else:
                g = random_graph(rng, rng.randint(5, 6), 0.5)
            k = rng.randint(2, 3)
            sigma = random_sigma(rng, g, k)
            avail = tuple(
                frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
                for _ in range(g.n)
            )
            inst = CoverInstance(g, k, avail, sigma)
            fast = find_transversal(inst)
            slow = brute_force_transversal(inst)
            assert (fast is None) == (slow is None), inst
            if fast is not None:
                assert is_independent(inst, fast)
            instances += 1
        assert instances >= 10_000

    @staticmethod
    def _list_color(g: Graph, lists) -> bool:
        order = sorted(range(g.n), key=lambda v: len(lists[v]))
        colors = {}

        def go(i):
            if i == len(order):
                return True
            v = order[i]
            for c in lists[v]:
                if all(colors.get(u) != c for u in g.adjacency[v]):
                    colors[v] = c
                    if go(i + 1):
                        return True
                    del colors[v]
            return False

        return go(0)

    def test_straight_covers_match_list_coloring(self):
        rng = random.Random(99)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 8), 0.45)
            k = rng.randint(2, 4)
            lists = [
                frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
                for _ in range(g.n)
            ]
            inst = CoverInstance.straight(g, k, lists)
            assert (find_transversal(inst) is not None) == \
                self._list_color(g, lists)


class TestCriterion5DischargingExactness:
    """Ledger exactness over a 200-graph corpus: zero sum, independent
    outer identity, cluster seeds of -k, and per-pair credit caps."""

    CORPUS = generate_corpus(200, seed=5150, min_n=6, max_n=16)

    def test_corpus_size(self):
        assert len(self.CORPUS) >= 200

    def test_exactness_everywhere(self):
        for pg in self.CORPUS:
            rep = audit(pg, force_rules=True)
            # (a) conservation
            assert sum(rep.accounts.values()) == 0
            # (b) outer identity, computed independently of the ledger
            ident = outer_identity(pg)
            assert rep.accounts[OUTER] == 4 * ident["value"]
            # (c) cluster aggregates seeded at -k
            seeded = {}
            for rule, frm, to, q in rep.transfers:
                if rule == "aggregate":
                    seeded[to] = seeded.get(to, 0) + q
            ks = {c.id: c.k for c in extract_clusters(pg)}
            assert {h[1]: -q // 4 for h, q in seeded.items()} == \
                {h: k for h, k in ks.items() if k}
            # (d) per-pair caps
            assert rep.cap_violations == []


class TestCriterion6OuterTriangleExtension:
    """Over 50 members of the restricted class with a good outer triangle,
    every proper outer precoloring extends under 20 random matchings."""

    def test_every_precoloring_extends(self):
        members = []
        seed = 0
        while len(members) < 50:
            seed += 1
            for pg in generate_corpus(20, seed=seed, min_n=6, max_n=14):
                if pg.graph.n <= 14 and has_good_outer_triangle(pg):
                    members.append(pg)
                if len(members) == 50:
                    break
        rng = random.Random(777)
        failures = []
        for pg in members:
            g = pg.graph
            tri = sorted(set(pg.faces[pg.outer_face].walk))
            for _ in range(20):
                sigma = random_sigma(rng, g, 4)
                inst = CoverInstance(
                    g, 4, tuple(frozenset(range(1, 5)) for _ in range(g.n)),
                    sigma)
                for combo in itertools.product(range(1, 5), repeat=3):
                    pre = dict(zip(tri, combo))
                    if not is_independent(inst, pre):
                        continue
                    if find_transversal(inst, pre) is None:
                        failures.append((pg, pre))
        for pg, pre in failures:
            # a failure is only meaningful if the graph is really in class
            assert has_cycle_of_length(pg.graph, 7) or \
                contains_butterfly(pg.graph) is not None or \
                not has_good_outer_triangle(pg), (
                    f"class member with non-extendable precoloring {pre}")
        assert failures == []


class TestCriterion7StraighteningInvariance:
    """Verdicts are invariant under straightening over a random spanning
    forest, and transversals map back faithfully (1000 instances)."""

    def test_invariance(self):
        rng = random.Random(31337)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(2, 10), 0.4)
            k = rng.randint(2, 4)
            sigma = random_sigma(rng, g, k)
            avail = tuple(
                frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
                for _ in range(g.n)
            )
            inst = CoverInstance(g, k, avail, sigma)
            tree = _spanning_forest(rng, g)
            out, pi = oracle.straighten(inst, tree)
            before = find_transversal(inst)
            after = find_transversal(out)
            assert (before is None) == (after is None)
            if after is not None:
                back = {v: invert(pi[v])[c - 1] for v, c in after.items()}
                assert is_independent(inst, back)


def _spanning_forest(rng, g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = sorted(g.edges)
    rng.shuffle(edges)
    out = []
    for u, v in edges:
        if find(u) != find(v):
            parent[find(u)] = find(v)
            out.append((u, v))
    return out


class TestCriterion8PlanarCoreExactness:
    """Euler and face-degree identities on every parsed embedding; the
    odd-girth test graph has no 7-cycle; pattern assets self-identify."""

    def test_embedding_identities_on_assets(self):
        checked = 0
        for path in sorted(ASSETS.glob("*.json")):
            g = parse_graph_file(path)
            if isinstance(g, PlaneGraph):
                assert g.n - g.graph.m + len(g.faces) == 2, path
                assert sum(f.degree for f in g.faces) == 2 * g.graph.m
                checked += 1
        assert checked >= 13

    def test_embedding_identities_on_corpus(self):
        for pg in generate_corpus(50, seed=1, min_n=5, max_n=14):
            assert pg.n - pg.graph.m + len(pg.faces) == 2
            assert sum(f.degree for f in pg.faces) == 2 * pg.graph.m

    def test_petersen_has_no_7_cycle(self):
        assert not has_cycle_of_length(petersen(), 7)

    def test_butterfly_asset_self_detects(self):
        g = parse_graph_file(ASSETS / "butterfly.json")
        assert contains_butterfly(g.graph) is not None

    @pytest.mark.parametrize("code", range(1, 12))
    def test_cluster_assets_classify_to_their_codes(self, code):
        pg = parse_graph_file(ASSETS / f"cluster_{code:02d}.json")
        cs = extract_clusters(pg)
        assert len(cs) == 1
        assert classify_cluster(pg, cs[0]).code == code
