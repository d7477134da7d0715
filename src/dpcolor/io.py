"""File formats: graph files, matching files, cover/witness files, corpora.

Graph file (JSON):
    {"n": int, "edges": [[u,v],...],
     "rotation": {"v": [neighbors in cyclic order], ...}   (optional)
     "outer_face": [boundary walk]                         (optional)
     "labels": {"u": vertex, ...}, "code": int             (catalog assets)}

Matching file: {"k": int, "sigma": {"u-v": [images of 1..k], ...}} with u < v.
Cover/witness file: graph fields plus k, sigma, and "available": {"v": [colors]}.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from .cover import CoverInstance
from .graphs import Graph, GraphError, MalformedEmbeddingError, PlaneGraph, edge_key


class FormatError(ValueError):
    """Malformed input file; message carries the offending field."""


def _load_json(path: Union[str, Path]) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def graph_from_dict(data: dict, source: str = "<dict>") -> Union[Graph, PlaneGraph]:
    try:
        n = int(data["n"])
        edges = data["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{source}: missing or malformed field: {exc}")
    try:
        g = Graph.from_edges(n, edges)
    except GraphError as exc:
        raise FormatError(f"{source}: field 'edges': {exc}")
    rotation = data.get("rotation")
    if rotation is None:
        return g
    try:
        rot = [list(map(int, rotation[str(v)])) for v in range(n)]
    except KeyError as exc:
        raise FormatError(f"{source}: field 'rotation': missing vertex {exc}")
    try:
        return PlaneGraph(g, rot, data.get("outer_face"))
    except MalformedEmbeddingError as exc:
        raise FormatError(f"{source}: field 'rotation': {exc}")


def parse_graph_file(path: Union[str, Path]) -> Union[Graph, PlaneGraph]:
    return graph_from_dict(_load_json(path), str(path))


def graph_to_dict(g: Union[Graph, PlaneGraph], extra: Optional[dict] = None) -> dict:
    if isinstance(g, PlaneGraph):
        data = {
            "n": g.graph.n,
            "edges": sorted([list(e) for e in g.graph.edges]),
            "rotation": {str(v): list(g.rotation[v]) for v in range(g.graph.n)},
            "outer_face": list(g.faces[g.outer_face].walk),
        }
    else:
        data = {"n": g.n, "edges": sorted([list(e) for e in g.edges])}
    if extra:
        data.update(extra)
    return data


def write_graph_file(path: Union[str, Path], g: Union[Graph, PlaneGraph],
                     extra: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g, extra), fh, indent=1)
        fh.write("\n")


def sigma_from_dict(data: dict, graph: Graph, source: str = "<dict>") -> tuple[int, dict]:
    try:
        k = int(data["k"])
        raw = data["sigma"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{source}: missing field {exc}")
    sigma = {}
    for key, images in raw.items():
        try:
            u, v = (int(x) for x in key.split("-"))
        except ValueError:
            raise FormatError(f"{source}: sigma key {key!r} is not 'u-v'")
        if (u, v) != edge_key(u, v):
            raise FormatError(f"{source}: sigma key {key!r} must have u < v")
        sigma[(u, v)] = tuple(int(c) for c in images)
    missing = set(graph.edges) - set(sigma)
    if missing:
        raise FormatError(f"{source}: sigma missing edges {sorted(missing)}")
    return k, sigma


def parse_cover_file(path: Union[str, Path]) -> CoverInstance:
    data = _load_json(path)
    g = graph_from_dict(data, str(path))
    graph = g.graph if isinstance(g, PlaneGraph) else g
    k, sigma = sigma_from_dict(data, graph, str(path))
    avail_raw = data.get("available")
    if avail_raw is None:
        avail = tuple(frozenset(range(1, k + 1)) for _ in range(graph.n))
    else:
        avail = tuple(
            frozenset(int(c) for c in avail_raw.get(str(v), range(1, k + 1)))
            for v in range(graph.n)
        )
    return CoverInstance(graph, k, avail, sigma)


def cover_to_dict(inst: CoverInstance) -> dict:
    data = graph_to_dict(inst.graph)
    data["k"] = inst.k
    data["sigma"] = {f"{u}-{v}": list(s) for (u, v), s in sorted(inst.sigma.items())}
    data["available"] = {
        str(v): sorted(inst.available[v]) for v in range(inst.graph.n)
    }
    return data


def write_cover_file(path: Union[str, Path], inst: CoverInstance) -> None:
    with open(path, "w") as fh:
        json.dump(cover_to_dict(inst), fh, indent=1)
        fh.write("\n")


def parse_config_file(path: Union[str, Path]):
    """Reducibility configuration from JSON.

    Fields: label, n, edges, names {role: vertex}, floors [per vertex],
    tree [[u,v],...], strategy, and optionally pivot/cut/margin_vertex/
    expect/note.
    """
    from .reduce import Configuration, REDUCIBLE

    data = _load_json(path)
    g = graph_from_dict(data, str(path))
    graph = g.graph if isinstance(g, PlaneGraph) else g
    try:
        return Configuration(
            label=str(data.get("label", Path(path).stem)),
            graph=graph,
            names={str(r): int(v) for r, v in data.get("names", {}).items()},
            floors=tuple(int(x) for x in data["floors"]),
            tree=tuple(edge_key(int(e[0]), int(e[1]))
                       for e in data.get("tree", [])),
            strategy=str(data["strategy"]),
            pivot=data.get("pivot"),
            cut=data.get("cut"),
            margin_vertex=data.get("margin_vertex"),
            expect=str(data.get("expect", REDUCIBLE)),
            note=str(data.get("note", "")),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{path}: bad configuration: {exc}")


def parse_planar_code_line(line: str) -> PlaneGraph:
    """One graph in plantri-style ASCII: 'n rot(a),rot(b),...' with letters.

    Vertex i is the letter chr(ord('a')+i); the i-th comma-separated group is
    the cyclic neighbor list of vertex i.
    """
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"planar-code line needs 'n lists': {line!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise FormatError(f"bad vertex count in {line!r}")
    groups = parts[1].split(",")
    if len(groups) != n:
        raise FormatError(f"{line!r}: expected {n} rotation groups, got {len(groups)}")
    rotation = [[ord(c) - ord("a") for c in grp] for grp in groups]
    edges = set()
    for v, rot in enumerate(rotation):
        for u in rot:
            edges.add(edge_key(u, v))
    return PlaneGraph(Graph.from_edges(n, sorted(edges)), rotation)


@dataclass
class CorpusStats:
    read: int = 0
    skipped: int = 0
    rejected: dict = None

    def __post_init__(self):
        if self.rejected is None:
            self.rejected = {}


def iter_corpus_entries(
    path: Union[str, Path],
    on_error=None,
) -> Iterator[tuple[str, Union[Graph, PlaneGraph]]]:
    """Graphs from a directory of graph files or a multi-record file.

    Multi-record files are newline-delimited: each line is either a JSON
    graph object or a plantri-style ASCII record.  Unreadable entries raise,
    unless on_error is given, in which case it is called with the exception
    and the stream continues with the next entry.
    """
    p = Path(path)

    def produce():
        if p.is_dir():
            for entry in sorted(p.iterdir()):
                if entry.suffix == ".json":
                    yield str(entry), lambda e=entry: parse_graph_file(e)
        else:
            with open(p) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    src = f"{p}:{lineno}"
                    if line.startswith("{"):
                        yield src, (
                            lambda t=line, s=src: graph_from_dict(
                                json.loads(t), s))
                    else:
                        yield src, lambda t=line: parse_planar_code_line(t)

    for src, thunk in produce():
        try:
            g = thunk()
        except (FormatError, OSError, json.JSONDecodeError,
                GraphError, MalformedEmbeddingError) as exc:
            if on_error is None:
                raise
            on_error(exc)
            continue
        yield src, g


def ingest_corpus(
    path: Union[str, Path],
    filters: tuple[str, ...] = (),
    stats: Optional[CorpusStats] = None,
    warn=lambda msg: print(msg, file=sys.stderr),
) -> Iterator[Union[Graph, PlaneGraph]]:
    """Stream corpus graphs passing all filters; count rejections per filter.

    Filters: 'no-7-cycles', 'no-butterfly', 'has-good-triangle'.
    """
    from .clusters import has_good_outer_triangle  # local import: avoid cycle
    from .graphs import has_cycle_of_length
    from .patterns import contains_butterfly

    known = {"no-7-cycles", "no-butterfly", "has-good-triangle"}
    bad = set(filters) - known
    if bad:
        raise ValueError(f"unknown filters: {sorted(bad)}")
    if stats is None:
        stats = CorpusStats()

    def skip(exc):
        stats.skipped += 1
        warn(f"skipping unreadable corpus entry: {exc}")

    for src, g in iter_corpus_entries(path, on_error=skip):
        stats.read += 1
        graph = g.graph if isinstance(g, PlaneGraph) else g
        ok = True
        if ok and "no-7-cycles" in filters and has_cycle_of_length(graph, 7):
            stats.rejected["no-7-cycles"] = stats.rejected.get("no-7-cycles", 0) + 1
            ok = False
        if ok and "no-butterfly" in filters and contains_butterfly(graph):
            stats.rejected["no-butterfly"] = stats.rejected.get("no-butterfly", 0) + 1
            ok = False
        if ok and "has-good-triangle" in filters:
            if not isinstance(g, PlaneGraph) or not has_good_outer_triangle(g):
                stats.rejected["has-good-triangle"] = (
                    stats.rejected.get("has-good-triangle", 0) + 1
                )
                ok = False
        if ok:
            yield g
