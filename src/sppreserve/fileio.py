"""Plain-text file formats for graphs, weight maps, and path systems.

Graph file::

    graph <directed|undirected> <n>
    e <u> <v> <p>/<q>

Weight-map file: one ``w <u> <v> <p>/<q>`` line per edge of a reference
graph.  Path-system file: ``path <s> <t> <v0> <v1> ... <vk>`` lines.  Blank
lines and ``#`` comments are ignored.  Writers normalize (sorted edges,
undirected endpoints low-high, rationals in lowest terms), so
write(read(file)) reproduces the normalized file byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path as FsPath
from typing import TextIO, Union

from .core import PathSystem, WeightMap, WeightedGraph, format_fraction

Source = Union[str, FsPath, TextIO]


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _parse_rational(token: str, lineno: int) -> Fraction:
    if any(ch in token for ch in ".eE"):
        raise ParseError(f"line {lineno}: not an exact rational: {token!r}")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: malformed rational {token!r}") from None
    return value


def _lines(src: Source) -> list[tuple[int, list[str]]]:
    if isinstance(src, (str, FsPath)):
        text = FsPath(src).read_text(encoding="utf-8")
    else:
        text = src.read()
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def _write_text(dst: Source, text: str) -> None:
    if isinstance(dst, (str, FsPath)):
        FsPath(dst).write_text(text, encoding="utf-8")
    else:
        dst.write(text)


def _edge_line(parts: list[str], lineno: int, tag: str) -> tuple[int, int, Fraction]:
    """Parse one ``<tag> <u> <v> <p>/<q>`` line of a graph or weight file."""
    if parts[0] != tag or len(parts) != 4:
        raise ParseError(f"line {lineno}: expected '{tag} <u> <v> <p>/<q>'")
    try:
        u, v = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"line {lineno}: bad vertex index") from None
    w = _parse_rational(parts[3], lineno)
    if w <= 0:
        raise ParseError(f"line {lineno}: weight must be positive, got {w}")
    return u, v, w


def _norm_pair(graph_directed: bool, u: int, v: int) -> tuple[int, int]:
    return (u, v) if graph_directed or u <= v else (v, u)


def read_graph(src: Source) -> WeightedGraph:
    lines = _lines(src)
    if not lines or lines[0][1][0] != "graph":
        raise ParseError("line 1: expected header 'graph <directed|undirected> <n>'")
    lineno, head = lines[0]
    if len(head) != 3 or head[1] not in ("directed", "undirected"):
        raise ParseError(f"line {lineno}: bad graph header")
    directed = head[1] == "directed"
    try:
        n = int(head[2])
    except ValueError:
        raise ParseError(f"line {lineno}: bad vertex count {head[2]!r}") from None
    edges = [_edge_line(parts, lineno, "e") for lineno, parts in lines[1:]]
    try:
        return WeightedGraph(directed=directed, n=n, edges=tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def graph_to_text(graph: WeightedGraph) -> str:
    kind = "directed" if graph.directed else "undirected"
    rows = sorted(
        (_norm_pair(graph.directed, u, v) + (w,)) for u, v, w in graph.edges
    )
    body = "".join(f"e {u} {v} {format_fraction(w)}\n" for u, v, w in rows)
    return f"graph {kind} {graph.n}\n{body}"


def write_graph(graph: WeightedGraph, dst: Source) -> None:
    _write_text(dst, graph_to_text(graph))


def read_weights(src: Source, graph: WeightedGraph) -> WeightMap:
    """Weight map aligned with ``graph.edges``; edge sets must match exactly."""
    table: dict[tuple[int, int], Fraction] = {}
    for lineno, parts in _lines(src):
        u, v, w = _edge_line(parts, lineno, "w")
        key = _norm_pair(graph.directed, u, v)
        if key in table:
            raise ParseError(f"line {lineno}: duplicate weight for edge ({u},{v})")
        table[key] = w
    weights = []
    for u, v, _ in graph.edges:
        key = _norm_pair(graph.directed, u, v)
        if key not in table:
            raise ParseError(f"missing weight for edge ({u},{v})")
        weights.append(table.pop(key))
    if table:
        extra = sorted(table)[0]
        raise ParseError(f"weight given for non-edge {extra}")
    return WeightMap(tuple(weights))


def weights_to_text(graph: WeightedGraph, wmap: WeightMap) -> str:
    wmap.validate_for(graph)
    rows = sorted(
        (_norm_pair(graph.directed, u, v) + (w,))
        for (u, v, _), w in zip(graph.edges, wmap.weights)
    )
    return "".join(f"w {u} {v} {format_fraction(w)}\n" for u, v, w in rows)


def write_weights(graph: WeightedGraph, wmap: WeightMap, dst: Source) -> None:
    _write_text(dst, weights_to_text(graph, wmap))


def read_paths(src: Source, graph: WeightedGraph | None = None) -> PathSystem:
    entries = {}
    for lineno, parts in _lines(src):
        if parts[0] != "path" or len(parts) < 4:
            raise ParseError(f"line {lineno}: expected 'path <s> <t> <v0> ... <vk>'")
        try:
            nums = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex index") from None
        s, t, verts = nums[0], nums[1], tuple(nums[2:])
        if verts[0] != s or verts[-1] != t:
            raise ParseError(f"line {lineno}: path endpoints disagree with pair")
        if (s, t) in entries:
            raise ParseError(f"line {lineno}: duplicate designated pair ({s},{t})")
        entries[(s, t)] = verts
    system = PathSystem(entries=entries)
    if graph is not None:
        system.validate_in(graph)
    return system


def paths_to_text(system: PathSystem) -> str:
    rows = []
    for (s, t) in system.pairs():
        verts = " ".join(str(v) for v in system.entries[(s, t)])
        rows.append(f"path {s} {t} {verts}\n")
    return "".join(rows)


def write_paths(system: PathSystem, dst: Source) -> None:
    _write_text(dst, paths_to_text(system))
