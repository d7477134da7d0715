"""Exact quarter-unit discharging with an itemized transfer ledger.

Initial charges: vertex d(v)-4, interior face d(f)-4, outer face d(C)+4
(all stored as integer quarter-units).  Member 3-faces of each cluster are
folded into a per-cluster account up front, so cluster-directed rules credit
a single account.  Outer-cycle vertices participate only in the zeroing
transfer to the outer face; they neither give nor receive through any other
rule.

Rules (amounts in quarter-units):
  R1a  each interior 5+-face pays, per boundary edge, 2 across the edge to
       an adjacent 3-face's cluster, else 1 to each interior endpoint.
  R1b  each internal 4-vertex with at least three edges in one cluster
       passes its R1a income to that cluster.
  R2   clusters of 1..5 faces collect from each incident internal
       5+-vertex by its incidence type and degree, and by whether the
       cluster is special or the vertex lies on a 4-face at it.
  R3   6-face clusters collect by type, degree, special status and whether
       the cluster holds two 3-type 5-vertices.
  R4   7-face clusters collect by degree and special 6-vertex status.
       The R2-R4 quarters are the rows of CREDITS; CEILING bounds each.
  R5   the outer face absorbs each boundary vertex's initial charge and pays
       4 to every non-internal 3-face's cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .clusters import (
    Classification, Cluster, classifications, extract_clusters,
    has_good_outer_triangle, separating_good_triangles, unclassified,
)
from .graphs import PlaneGraph, find_cycle_of_length
from .patterns import contains_butterfly

OUTER = "OUTER"

RULE_ORDER = ("R5", "R1", "R2", "R3", "R4")

# The rule under which a cluster of k faces collects; larger ones collect none.
CLUSTER_RULE = {1: "R2", 2: "R2", 3: "R2", 4: "R2", 5: "R2", 6: "R3", 7: "R4"}

SPECIAL = "special"  # the cluster is special
ON_4_FACE = "on-4-face"  # the vertex lies on a 4-face at the cluster
TWO_3TYPE_5 = "two-3-type-5"  # the cluster holds two 3-type internal 5-vertices
SPECIAL_6 = "special-6"  # the vertex is a special 6-vertex

# The R2-R4 credits in quarters.  A vertex of type t (its edges in the
# cluster, 4 for 4+) and degree d (7 for 7+) pays the quarters of the first
# row of its cluster's rule that matches t and d (None matches any) and
# whose facts all hold; no row means 0.  _CREDIT_ROWS indexes them once.
CREDITS = (
    # rule  t     d     facts                    quarters
    ("R2",  2,    None, (SPECIAL,),              2),
    ("R2",  2,    None, (ON_4_FACE,),            2),
    ("R2",  3,    5,    (SPECIAL,),              4),
    ("R2",  3,    None, (),                      2),
    ("R2",  4,    None, (),                      6),
    ("R3",  3,    5,    (SPECIAL,),              4),
    ("R3",  3,    5,    (),                      2),
    ("R3",  3,    None, (),                      6),
    ("R3",  4,    5,    (),                      6),
    ("R3",  4,    None, (SPECIAL, TWO_3TYPE_5),  8),
    ("R3",  4,    None, (),                      6),
    ("R4",  None, 5,    (),                      6),
    ("R4",  None, 6,    (SPECIAL_6,),            6),
    ("R4",  None, 6,    (),                      8),
    ("R4",  None, 7,    (),                      10),
)
# CEILING[t][d - 5]: the most that a type t, degree d vertex pays one cluster
CEILING = {2: (2, 2, 2), 3: (4, 6, 6), 4: (6, 8, 10)}
_CREDIT_ROWS = {
    (rule, t, d): [(frozenset(facts), q) for r, rt, rd, facts, q in CREDITS
                   if r == rule and rt in (None, t) and rd in (None, d)]
    for rule in ("R2", "R3", "R4") for t in CEILING for d in (5, 6, 7)}


def credit(rule: str, t: int, d: int, facts) -> tuple[int, int]:
    """The quarters that a vertex of type t and degree d >= 5 pays its
    cluster under rule when the named facts hold, and their ceiling."""
    t, d = min(t, 4), min(d, 7)
    for needs, q in _CREDIT_ROWS[rule, t, d]:
        if needs <= facts:
            return q, CEILING[t][d - 5]
    return 0, CEILING[t][d - 5]


@dataclass
class ChargeLedger:
    accounts: dict = field(default_factory=dict)  # element -> quarter-units
    transfers: list = field(default_factory=list)  # (rule, frm, to, quarters)

    def move(self, rule: str, frm, to, quarters: int) -> None:
        if quarters == 0:
            return
        self.accounts[frm] -= quarters
        self.accounts[to] += quarters
        self.transfers.append((rule, frm, to, quarters))

    def total(self) -> int:
        return sum(self.accounts.values())


def fmt_quarters(q: int) -> str:
    return str(Fraction(q, 4))


def element_name(elem) -> str:
    """Short name for a ledger account: v17, f3, H0, OUTER."""
    if elem == OUTER:
        return OUTER
    kind, ident = elem
    return f"{kind}{ident}"


def parse_element(name: str):
    """Inverse of element_name."""
    if name == OUTER:
        return OUTER
    if len(name) >= 2 and name[0] in "vfH" and name[1:].isdigit():
        return (name[0], int(name[1:]))
    raise ValueError(
        f"bad element {name!r}: expected OUTER, vN, fN or HN"
    )


@dataclass
class ClusterInfo:
    """A cluster's facts, computed once and read by every rule and check."""

    cluster: Cluster
    classification: Classification  # the first match, or unclassified
    matches: list  # every catalog match, in classifications() order
    # the matches of shape (7), (9), (10) or (11) whose x, y, z roles land
    # on internal 4-vertices; the cluster is special when there is one
    special_matches: list
    internal: bool  # every vertex of the cluster is internal
    i_type: dict  # vertex -> number of cluster edges at it
    four_faces: list  # interior 4-faces sharing an edge with the cluster

    @property
    def special(self) -> bool:
        return bool(self.special_matches)


def vertex_elem(v: int) -> tuple:
    return ("v", v)


def face_elem(f: int) -> tuple:
    return ("f", f)


def cluster_elem(h: int) -> tuple:
    return ("H", h)


def initial_charges(pg: PlaneGraph) -> ChargeLedger:
    led = ChargeLedger()
    for v in range(pg.graph.n):
        led.accounts[vertex_elem(v)] = 4 * (pg.graph.degree(v) - 4)
    for f in pg.faces:
        if f.id == pg.outer_face:
            led.accounts[OUTER] = 4 * (f.degree + 4)
        else:
            led.accounts[face_elem(f.id)] = 4 * (f.degree - 4)
    return led


def cluster_infos(pg: PlaneGraph) -> list[ClusterInfo]:
    """One ClusterInfo per cluster, in cluster id order."""
    four = [f for f in pg.interior_faces() if f.degree == 4]
    out = []
    for c in extract_clusters(pg):
        matches = list(classifications(pg, c))
        special = [cls for cls in matches if cls.code in (7, 9, 10, 11)
                   and all(pg.internal[cls.roles[r]]
                           and pg.graph.degree(cls.roles[r]) == 4
                           for r in "xyz")]
        i_type = dict.fromkeys(c.vertices, 0)
        for e in c.edges:
            for v in e:
                i_type[v] += 1
        four_faces = [
            f for f in four if any(e in c.edges for e in pg.face_edges[f.id])
        ]
        out.append(ClusterInfo(
            c, matches[0] if matches else unclassified(c), matches,
            special, all(pg.internal[v] for v in c.vertices), i_type,
            four_faces))
    return out


def special6_vertices(pg: PlaneGraph, infos: list[ClusterInfo]) -> set:
    """Internal 6-vertices that are 4-type on an all-internal special 6- or
    7-cluster and 2-type on a special 4- or 5-cluster."""
    four_type: set = set()
    two_type: set = set()
    for info in infos:
        c = info.cluster
        if not info.special:
            continue
        if c.k in (6, 7) and info.internal:
            four_type |= {v for v, t in info.i_type.items() if t == 4}
        if c.k in (4, 5):
            two_type |= {v for v, t in info.i_type.items() if t == 2}
    return {
        v for v in four_type & two_type
        if pg.internal[v] and pg.graph.degree(v) == 6
    }


def _fold_clusters(led: ChargeLedger, infos: list[ClusterInfo]) -> None:
    for info in infos:
        h = cluster_elem(info.cluster.id)
        led.accounts.setdefault(h, 0)
        for fid in sorted(info.cluster.face_ids):
            led.move("aggregate", face_elem(fid), h,
                     led.accounts[face_elem(fid)])


def _apply_r5(pg: PlaneGraph, led: ChargeLedger, face_cluster) -> None:
    outer_walk = pg.faces[pg.outer_face].walk
    for v in sorted(set(outer_walk)):
        led.move("R5", vertex_elem(v), OUTER, led.accounts[vertex_elem(v)])
    for f in pg.interior_faces():
        if f.degree == 3 and any(not pg.internal[v] for v in f.walk):
            led.move("R5", OUTER, cluster_elem(face_cluster[f.id]), 4)


def _apply_r1(pg: PlaneGraph, led: ChargeLedger, infos,
              face_cluster) -> None:
    r1a_income = [0] * pg.graph.n
    for f in pg.interior_faces():
        if f.degree < 5:
            continue
        walk = f.walk
        for i in range(len(walk)):
            u, v = walk[i], walk[(i + 1) % len(walk)]
            # f is no cluster face, so a cluster face here is across uv
            h = next((face_cluster[g] for g in pg.faces_of_edge(u, v)
                      if g in face_cluster), None)
            if h is not None:
                led.move("R1a", face_elem(f.id), cluster_elem(h), 2)
            else:
                for end in (u, v):
                    if pg.internal[end]:
                        led.move("R1a", face_elem(f.id), vertex_elem(end), 1)
                        r1a_income[end] += 1
    # pass-through: R1a income of internal 4-vertices mostly in one cluster
    for v in range(pg.graph.n):
        if r1a_income[v] == 0 or pg.graph.degree(v) != 4:
            continue
        for info in infos:
            if info.i_type.get(v, 0) >= 3:
                led.move("R1b", vertex_elem(v),
                         cluster_elem(info.cluster.id), r1a_income[v])
                break


def _apply_credits(pg: PlaneGraph, led: ChargeLedger, special6: set,
                   rule: str, infos, flags: list, caps: list) -> None:
    """R2-R4: each internal 5+-vertex of a cluster pays it credit()."""
    for info in infos:
        c = info.cluster
        fives = sum(1 for u, t in info.i_type.items() if t == 3
                    and pg.internal[u] and pg.graph.degree(u) == 5)
        on4 = {v for f in info.four_faces for v in f.walk}
        for v in sorted(c.vertices):
            d = pg.graph.degree(v)
            if not pg.internal[v] or d < 5:
                continue
            facts = {fact for fact, holds in (
                (SPECIAL, info.special), (TWO_3TYPE_5, fives >= 2),
                (SPECIAL_6, v in special6), (ON_4_FACE, v in on4)) if holds}
            t = info.i_type[v]
            q, ceiling = credit(rule, t, d, facts)
            if v in on4 and q != credit(rule, t, d, facts - {ON_4_FACE})[0]:
                flags.append({"rule": rule, "vertex": v, "cluster": c.id, "note":
                              "2-type credit granted via the adjacent-4-face branch"})
            led.move(rule, vertex_elem(v), cluster_elem(c.id), q)
            if q > ceiling:
                caps.append(
                    {"vertex": v, "cluster": c.id, "given": q, "cap": ceiling})


def apply_rules(pg: PlaneGraph, infos: list[ClusterInfo], special6: set,
                led: ChargeLedger) -> tuple[list, list]:
    """Run the discharging rules in RULE_ORDER; returns the report's flags
    and cap violations.  Mutates the ledger."""
    _fold_clusters(led, infos)
    face_cluster = {
        fid: info.cluster.id for info in infos for fid in info.cluster.face_ids
    }
    by_rule: dict = {rule: [] for rule in CLUSTER_RULE.values()}
    for info in infos:
        by_rule.get(CLUSTER_RULE.get(info.cluster.k), []).append(info)
    flags, caps = [], []
    appliers = {
        "R5": lambda: _apply_r5(pg, led, face_cluster),
        "R1": lambda: _apply_r1(pg, led, infos, face_cluster),
        **{rule: partial(_apply_credits, pg, led, special6, rule, of_rule,
                         flags, caps) for rule, of_rule in by_rule.items()},
    }
    for rule in RULE_ORDER:
        appliers[rule]()
    return flags, caps


def outer_identity(pg: PlaneGraph) -> dict:
    walk = pg.faces[pg.outer_face].walk
    on_c = set(walk)
    e = sum(
        1 for u, v in pg.graph.edges
        if (u in on_c) != (v in on_c)
    )
    f3 = sum(
        1 for f in pg.interior_faces()
        if f.degree == 3 and any(v in on_c for v in f.walk)
    )
    return {"e": e, "f3": f3, "value": 1 + e - f3}


# ---------------------------------------------------------------------------
# preconditions and the audit


def diamond_pattern_witness(pg: PlaneGraph) -> Optional[dict]:
    """Two internal all-4-vertex 3-faces sharing one edge, tips non-adjacent."""
    tris = [f for f in pg.interior_faces() if f.degree == 3]
    ok_face = {
        f.id: all(pg.internal[v] and pg.graph.degree(v) == 4 for v in f.walk)
        for f in tris
    }
    for i, f in enumerate(tris):
        if not ok_face[f.id]:
            continue
        for g in tris[i + 1:]:
            if not ok_face[g.id]:
                continue
            shared = set(pg.face_edges[f.id]) & set(pg.face_edges[g.id])
            if len(shared) != 1:
                continue
            (u, v), = shared
            x = next(a for a in f.walk if a not in (u, v))
            y = next(a for a in g.walk if a not in (u, v))
            if not pg.graph.has_edge(x, y):
                return {"faces": [f.id, g.id], "edge": [u, v], "tips": [x, y]}
    return None


def precondition_report(pg: PlaneGraph, infos: list[ClusterInfo],
                        special6: set) -> dict:
    """Structural hypotheses the charge bounds rely on; each with a witness."""
    checks: dict = {}
    seven = find_cycle_of_length(pg.graph, 7)
    checks["no-7-cycle"] = {"ok": seven is None, "witness": seven}
    bf = contains_butterfly(pg.graph)
    checks["no-butterfly"] = {
        "ok": bf is None,
        "witness": None if bf is None else sorted(bf.values()),
    }
    checks["outer-good-3-cycle"] = {
        "ok": has_good_outer_triangle(pg),
        "witness": list(pg.faces[pg.outer_face].walk)}
    low = [v for v in range(pg.graph.n)
           if pg.internal[v] and pg.graph.degree(v) <= 3]
    checks["internal-min-degree-4"] = {"ok": not low, "witness": low or None}
    seps = separating_good_triangles(pg)
    # the outer cycle itself is never separating here (its exterior is empty)
    checks["no-separating-good-3-cycle"] = {
        "ok": not seps, "witness": seps or None}
    unmatched = {info.cluster.id: info.classification.reason
                 for info in infos if info.classification.code == 0}
    checks["clusters-in-catalog"] = {
        "ok": not unmatched, "witness": list(unmatched) or None,
        "reasons": unmatched or None}
    dia = diamond_pattern_witness(pg)
    checks["no-glued-internal-444-faces"] = {"ok": dia is None, "witness": dia}
    # an internal 5-vertex on two special clusters
    owners: dict[int, list[int]] = {}
    for info in infos:
        if info.special:
            for v in info.cluster.vertices:
                owners.setdefault(v, []).append(info.cluster.id)
    double = [
        {"vertex": v, "clusters": hs} for v, hs in sorted(owners.items())
        if len(hs) >= 2 and pg.internal[v] and pg.graph.degree(v) == 5
    ]
    checks["5-vertex-on-one-special-cluster"] = {
        "ok": not double, "witness": double or None}
    checks["tight-6-cluster-pattern-absent"] = _l7_pattern_check(
        pg, infos, special6)
    checks["tight-7-cluster-pattern-absent"] = _l8_pattern_check(
        pg, infos, special6)
    four_face_adj = [
        {"cluster": info.cluster.id, "face": f.id}
        for info in infos if info.cluster.k >= 3 for f in info.four_faces
    ]
    checks["no-4-face-on-big-cluster"] = {
        "ok": not four_face_adj, "witness": four_face_adj or None}
    return checks


def _l7_pattern_check(pg, infos, special6) -> dict:
    """Internal special 6-cluster with two tight boundary 5-vertices must not
    carry a low third boundary vertex."""
    bad = []
    for info in infos:
        if info.cluster.k != 6 or not info.internal:
            continue
        for cls in info.special_matches:
            r = cls.roles
            du, dw = pg.graph.degree(r["u"]), pg.graph.degree(r["w"])
            dv = pg.graph.degree(r["v"])
            if du == 5 and dw == 5 and (
                dv <= 5 or r["v"] in special6
            ):
                bad.append({"cluster": info.cluster.id, "roles": dict(r)})
                break
    return {"ok": not bad, "witness": bad or None}


def _l8_pattern_check(pg, infos, special6) -> dict:
    """An internal 7-cluster with all boundary degrees <= 6 carries at most
    one 5-vertex or special 6-vertex."""
    deg = pg.graph.degree
    bad = []
    for info in infos:
        c = info.cluster
        if info.classification.code != 11 or not info.internal or not any(
                max(deg(cls.roles[t]) for t in "uvw") <= 6
                for cls in info.matches):
            continue
        low = [v for v in sorted(c.vertices) if deg(v) == 5 or v in special6]
        if len(low) >= 2:
            bad.append({"cluster": c.id, "vertices": low})
    return {"ok": not bad, "witness": bad or None}


@dataclass
class AuditReport:
    preconditions: dict
    ok_to_discharge: bool
    accounts: Optional[dict] = None
    transfers: Optional[list] = None
    outer: Optional[dict] = None
    flags: Optional[list] = None
    cap_violations: Optional[list] = None
    negative: Optional[list] = None
    verdict: Optional[str] = None
    forced: bool = False

    def to_json(self) -> dict:
        class_keys = ("no-7-cycle", "no-butterfly")
        out = {
            "class_checks": {
                k: v for k, v in self.preconditions.items() if k in class_keys
            },
            "lemma_preconditions": {
                k: v for k, v in self.preconditions.items()
                if k not in class_keys
            },
            "ok_to_discharge": self.ok_to_discharge,
            "verdict": self.verdict,
            "forced": self.forced,
        }
        if self.accounts is not None:
            out["accounts"] = {
                element_name(k): q
                for k, q in sorted(self.accounts.items(), key=str)
            }
            out["transfers"] = [
                [r, element_name(a), element_name(b), q]
                for r, a, b, q in self.transfers
            ]
            out["outer_identity"] = self.outer
            out["flags"] = self.flags
            out["cap_violations"] = self.cap_violations
            out["negative_accounts"] = self.negative
        return out


def audit(pg: PlaneGraph, force_rules: bool = False) -> AuditReport:
    """Precondition checks, then exact discharging with verdict.

    With force_rules the rules run even when a precondition fails (useful for
    exactness regression on arbitrary inputs); the verdict then reports only
    the ledger arithmetic, not the nonnegativity claim.
    """
    infos = cluster_infos(pg)
    special6 = special6_vertices(pg, infos)
    pre = precondition_report(pg, infos, special6)
    ok = all(c["ok"] for c in pre.values())
    if not ok and not force_rules:
        return AuditReport(pre, False, verdict="preconditions-violated")
    led = initial_charges(pg)
    before = led.total()
    flags, caps = apply_rules(pg, infos, special6, led)
    after = led.total()
    ident = outer_identity(pg)
    negative = [{"element": list(k), "quarters": q}
                for k, q in led.accounts.items() if k != OUTER and q < 0]
    conserved = before == 0 and after == 0
    outer_ok = led.accounts[OUTER] == 4 * ident["value"]
    if not conserved:
        verdict = "conservation-violated"
    elif not outer_ok:
        verdict = "outer-identity-violated"
    elif not ok:
        verdict = "forced-run-arithmetic-ok"
    elif any(q < 0 for q in led.accounts.values()):
        verdict = "charge-deficit"
    else:
        verdict = "all-nonnegative"
    return AuditReport(
        pre, ok, dict(led.accounts), list(led.transfers), ident, flags,
        caps, negative, verdict, forced=not ok,
    )
