"""File formats: graph files and pattern assets, matching files, cover/witness
files, corpora.

Graph file (JSON):
    {"n": int, "edges": [[u,v],...],
     "rotation": {"v": [neighbors in cyclic order], ...}   (optional)
     "outer_face": [boundary walk]                         (optional)
     "name": str, "labels": {"u": vertex, ...}, "code": int  (pattern assets)}

Matching file: {"k": int in [2, 8], "sigma": {"u-v": [images of 1..k], ...}}
with u < v.
Cover/witness file: graph fields plus k, sigma, and "available": {"v": [colors]}.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from . import clusters, patterns
from .cover import CoverInstance
from .graphs import (
    Graph, GraphError, MalformedEmbeddingError, OuterWalkError, PlaneGraph,
    edge_key,
)


K_MIN, K_MAX = 2, 8  # the color counts k of --k and of matching/cover files


class FormatError(ValueError):
    """Malformed input file; message carries the offending field."""


def _load_json(path: Union[str, Path]) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _int(value, field: str, source: str) -> int:
    """A JSON integer, or a string of one; a bool, a float or any other
    string is rejected with the field named, not truncated."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    raise FormatError(f"{source}: field {field}: {value!r} is not an integer")


def _list(value, field: str, source: str,
          length: Optional[int] = None) -> list:
    """A JSON array (of `length` entries, if given), else a FormatError
    naming the field."""
    if type(value) is not list or length is not None and len(value) != length:
        shape = "an array" if length is None else "a pair [u, v]"
        raise FormatError(f"{source}: field {field}: {value!r} is not {shape}")
    return value


def _object(value, field: str, source: str) -> dict:
    """A JSON object, else a FormatError naming the field."""
    if type(value) is not dict:
        raise FormatError(f"{source}: field {field}: {value!r} is not an object")
    return value


def graph_from_dict(data: dict, source: str = "<dict>") -> Union[Graph, PlaneGraph]:
    data = _object(data, "(top level)", source)
    try:
        n = _int(data["n"], "n", source)
        edges = [[_int(u, f"edges[{i}]", source)
                  for u in _list(e, f"edges[{i}]", source, 2)]
                 for i, e in enumerate(_list(data["edges"], "edges", source))]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{source}: missing or malformed field: {exc}")
    if n < 0:
        raise FormatError(f"{source}: field n: {n} is negative")
    try:
        g = Graph.from_edges(n, edges)
    except GraphError as exc:
        raise FormatError(f"{source}: field 'edges': {exc}")
    rotation = data.get("rotation")
    if rotation is None:
        return g
    rotation = _object(rotation, "rotation", source)
    try:
        rot = [[_int(u, f"rotation['{v}']", source)
                for u in _list(rotation[str(v)], f"rotation['{v}']", source)]
               for v in range(n)]
    except KeyError as exc:
        raise FormatError(f"{source}: field 'rotation': missing vertex {exc}")
    outer = data.get("outer_face")
    if outer is not None:
        outer = [_int(u, f"outer_face[{i}]", source)
                 for i, u in enumerate(_list(outer, "outer_face", source))]
    try:
        return PlaneGraph(g, rot, outer)
    except OuterWalkError as exc:
        raise FormatError(f"{source}: field 'outer_face': {exc}")
    except MalformedEmbeddingError as exc:
        raise FormatError(f"{source}: field 'rotation': {exc}")


def parse_graph_file(path: Union[str, Path]) -> Union[Graph, PlaneGraph]:
    return graph_from_dict(_load_json(path), str(path))


def graph_to_dict(g: Union[Graph, PlaneGraph]) -> dict:
    if isinstance(g, PlaneGraph):
        return {
            "n": g.graph.n,
            "edges": sorted([list(e) for e in g.graph.edges]),
            "rotation": {str(v): list(g.rotation[v]) for v in range(g.graph.n)},
            "outer_face": list(g.faces[g.outer_face].walk),
        }
    return {"n": g.n, "edges": sorted([list(e) for e in g.edges])}


def pattern_from_dict(data: dict,
                      source: str = "<dict>") -> patterns.LabeledPattern:
    """LabeledPattern from an asset dictionary (graph fields + labels/code);
    errors are FormatErrors that name `source` and the field."""
    pg = graph_from_dict(data, source)
    if not isinstance(pg, PlaneGraph):
        raise FormatError(f"{source}: pattern asset must carry a rotation system")
    labels = {lbl: _int(v, f"labels[{lbl!r}]", source) for lbl, v in
              _object(data.get("labels", {}), "labels", source).items()}
    return patterns.LabeledPattern(str(data.get("name", "pattern")), pg, labels,
                                   _int(data.get("code", 0), "code", source))


def load_assets_dir(path: Union[str, Path]) -> dict[str, patterns.LabeledPattern]:
    """All pattern assets in a directory, keyed by name."""
    if not Path(path).is_dir():
        raise FormatError(f"{path}: no such directory of pattern assets")
    out = {}
    for entry in sorted(Path(path).glob("*.json")):
        data = _load_json(entry)
        if isinstance(data, dict) and data.keys() & {"labels", "code", "name"}:
            pat = pattern_from_dict(data, str(entry))
            out[pat.name] = pat
    return out


def sigma_from_dict(data: dict, graph: Graph, source: str = "<dict>") -> tuple[int, dict]:
    data = _object(data, "(top level)", source)
    try:
        k = _int(data["k"], "k", source)
        raw = data["sigma"]
    except KeyError as exc:
        raise FormatError(f"{source}: missing field {exc}")
    if not K_MIN <= k <= K_MAX:
        raise FormatError(
            f"{source}: field k: {k} is not in [{K_MIN}, {K_MAX}]")
    sigma = {}
    for key, images in _object(raw, "sigma", source).items():
        try:
            u, v = (int(x) for x in key.split("-"))
        except ValueError:
            raise FormatError(f"{source}: sigma key {key!r} is not 'u-v'")
        if (u, v) != edge_key(u, v):
            raise FormatError(f"{source}: sigma key {key!r} must have u < v")
        if (u, v) not in graph.edges:
            raise FormatError(f"{source}: field sigma[{key!r}]: ({u}, {v}) "
                              f"is not an edge")
        images = _list(images, f"sigma[{key!r}]", source)
        if len(images) != k:
            raise FormatError(f"{source}: field sigma[{key!r}]: lists "
                              f"{len(images)} images, not k = {k}")
        sigma[(u, v)] = tuple(
            _int(c, f"sigma[{key!r}]", source) for c in images)
    missing = set(graph.edges) - set(sigma)
    if missing:
        raise FormatError(f"{source}: sigma missing edges {sorted(missing)}")
    return k, sigma


def cover_from_dict(data: dict, source: str = "<dict>") -> CoverInstance:
    """CoverInstance from a cover dictionary (graph fields + k, sigma and
    optionally available); errors are FormatErrors that name `source`."""
    g = graph_from_dict(data, source)
    graph = g.graph if isinstance(g, PlaneGraph) else g
    k, sigma = sigma_from_dict(data, graph, source)
    avail_raw = data.get("available")
    if avail_raw is None:
        avail = tuple(frozenset(range(1, k + 1)) for _ in range(graph.n))
    else:
        avail_raw = _object(avail_raw, "available", source)
        avail = tuple(
            frozenset(_int(c, f"available['{v}']", source)
                      for c in _list(avail_raw.get(str(v), [*range(1, k + 1)]),
                                     f"available['{v}']", source))
            for v in range(graph.n)
        )
        for v, colors in enumerate(avail):
            if not all(1 <= c <= k for c in colors):
                raise FormatError(f"{source}: field available['{v}']: "
                                  f"{sorted(colors)} is not a subset of 1..{k}")
    return CoverInstance(graph, k, avail, sigma)


def parse_cover_file(path: Union[str, Path]) -> CoverInstance:
    return cover_from_dict(_load_json(path), str(path))


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
    tree [[u,v],...], strategy, the one role field the strategy reads
    (eliminate: pivot, condition: cut, margin: margin_vertex, product:
    none; the others must be absent), and optionally expect/note.  Every
    integer may also be written as a string of one.
    """
    from .reduce import Configuration, REDUCIBLE, ROLE_FIELDS

    src = str(path)
    data = _load_json(path)
    g = graph_from_dict(data, src)
    graph = g.graph if isinstance(g, PlaneGraph) else g
    try:
        return Configuration(
            label=str(data.get("label", Path(path).stem)),
            graph=graph,
            names={str(r): _int(v, f"names[{r!r}]", src)
                   for r, v in _object(data.get("names", {}), "names",
                                       src).items()},
            floors=tuple(_int(x, f"floors[{i}]", src)
                         for i, x in enumerate(
                             _list(data["floors"], "floors", src))),
            tree=tuple(edge_key(*(_int(u, f"tree[{i}]", src)
                                  for u in _list(e, f"tree[{i}]", src, 2)))
                       for i, e in enumerate(
                           _list(data.get("tree", []), "tree", src))),
            strategy=str(data["strategy"]),
            **{role: _int(data[role], role, src)
               for role in ROLE_FIELDS if role in data},
            expect=str(data.get("expect", REDUCIBLE)),
            note=str(data.get("note", "")),
        )
    except FormatError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{path}: bad configuration: {exc}")


def parse_planar_code_line(line: str, source: str = "<line>") -> PlaneGraph:
    """One graph in plantri-style ASCII: 'n rot(a),rot(b),...' with letters.

    Vertex i is the letter chr(ord('a')+i); the i-th comma-separated group is
    the cyclic neighbor list of vertex i.  Errors are FormatErrors that
    start with `source`.
    """
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(
            f"{source}: planar-code line needs 'n lists': {line!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise FormatError(f"{source}: bad vertex count in {line!r}")
    groups = parts[1].split(",")
    if len(groups) != n:
        raise FormatError(f"{source}: {line!r}: expected {n} rotation groups, "
                          f"got {len(groups)}")
    rotation = [[ord(c) - ord("a") for c in grp] for grp in groups]
    edges = set()
    for v, rot in enumerate(rotation):
        for u in rot:
            edges.add(edge_key(u, v))
    try:
        return PlaneGraph(Graph.from_edges(n, sorted(edges)), rotation)
    except (GraphError, MalformedEmbeddingError) as exc:
        raise FormatError(f"{source}: {exc}")


# Corpus filters, in the order they are applied: a graph is counted under the
# first one it fails.  Each predicate gets the record and its plain graph and
# tells whether the graph passes; the class filters call patterns.FORBIDDEN's
# rows, and names are looked up at call time, so tracing wrappers see calls.
FILTERS = {
    "no-7-cycles": lambda g, graph: not patterns.FORBIDDEN["7-cycle"](graph),
    "no-butterfly": lambda g, graph: (
        not patterns.FORBIDDEN["butterfly"](graph)),
    "has-good-triangle": lambda g, graph: (
        isinstance(g, PlaneGraph) and clusters.has_good_outer_triangle(g)),
}


def _read_record(record: Union[Path, str],
                 source: str) -> Union[Graph, PlaneGraph]:
    """One corpus record: a directory entry (a graph file, whose errors name
    it) or a file's stripped line (whose errors start with `source`)."""
    if isinstance(record, Path):
        return parse_graph_file(record)
    if not record.startswith("{"):
        return parse_planar_code_line(record, source)
    try:
        data = json.loads(record)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: invalid JSON at column {exc.colno}: "
                          f"{exc.msg}")
    return graph_from_dict(data, source)


@dataclass
class CorpusStats:
    read: int = 0
    skipped: int = 0
    rejected: dict = field(default_factory=dict)


def ingest_corpus(
    path: Union[str, Path],
    filters: tuple[str, ...] = (),
    stats: Optional[CorpusStats] = None,
    warn=lambda msg: print(msg, file=sys.stderr),
) -> Iterator[Union[Graph, PlaneGraph]]:
    """Stream the graphs of a corpus that pass all `filters` (names in
    FILTERS); count reads, skipped records and rejections per filter.

    A corpus is a directory of graph files (its `.json` entries) or a
    multi-record file, one record per non-blank line: a JSON graph object or
    a plantri-style ASCII record.  An unreadable record is skipped with a
    warning that starts with its location: `path:line` in a file, the entry's
    path in a directory.  An unreadable corpus path raises OSError.
    """
    bad = set(filters) - FILTERS.keys()
    if bad:
        raise ValueError(f"unknown filters: {sorted(bad)}")
    if stats is None:
        stats = CorpusStats()
    p = Path(path)
    with (nullcontext(sorted(e for e in p.iterdir() if e.suffix == ".json"))
          if p.is_dir() else open(p)) as records:
        for lineno, record in enumerate(records, start=1):
            if isinstance(record, str):
                record = record.strip()
                if not record:
                    continue
            try:
                g = _read_record(record, f"{p}:{lineno}")
            except (FormatError, OSError) as exc:
                stats.skipped += 1
                warn(f"skipping unreadable corpus entry: {exc}")
                continue
            stats.read += 1
            graph = g.graph if isinstance(g, PlaneGraph) else g
            failed = next((name for name, passes in FILTERS.items()
                           if name in filters and not passes(g, graph)), None)
            if failed is None:
                yield g
            else:
                stats.rejected[failed] = stats.rejected.get(failed, 0) + 1
