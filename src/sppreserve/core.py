"""Weighted graphs over exact rational weights.

Everything in this package computes with ``fractions.Fraction`` (or with
integers scaled from them by a common denominator); no floating point is used
anywhere, because the constructions of interest involve weights spanning
exponential ranges where floats would silently lose strictness gaps.
All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]

#: A path (or walk) given as its vertex sequence.
Path = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded its configured work budget.

    Raised instead of silently truncating, so a check can never report a
    verdict it did not actually establish.
    """


class WorkBudget:
    """A mutable countdown shared across enumeration calls."""

    __slots__ = ("left", "limit")

    def __init__(self, limit: int):
        self.left = limit
        self.limit = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError(
                f"enumeration exceeded budget of {self.limit} expansions"
            )


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if any(ch in value for ch in ".eE"):
            raise ValueError(f"not an exact rational: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as canonical ``p/q`` text (lowest terms)."""
    return f"{value.numerator}/{value.denominator}"


def scale_to_integers(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """``(ints, D)`` with ints[i] = values[i] * D and D the lcm of the
    denominators.  Scaling by the same positive D changes no comparison
    between sums of the values, so searches may run on ``ints`` (a sum x of
    them stands for the rational x / D), and a linear equation may be
    multiplied through by D.
    """
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with positive rational edge weights.

    Vertices are the dense indices ``0..n-1``.  Edges are (tail, head, weight)
    triples; for undirected graphs the (tail, head) order is cosmetic and the
    edge may be traversed both ways.  Self-loops and duplicate edges (on the
    ordered pair when directed, the unordered pair when undirected) are
    rejected.
    """

    directed: bool
    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            w = as_fraction(w)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge on pair ({u},{v})")
            seen.add(key)
            norm.append((u, v, w))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, _, w in self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex outgoing (neighbor, edge_index) pairs, sorted.

        For undirected graphs each edge appears in both endpoint lists.
        """
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, (u, v, _) in enumerate(self.edges):
            out[u].append((v, idx))
            if not self.directed:
                out[v].append((u, idx))
        return tuple(tuple(sorted(nbrs)) for nbrs in out)

    @cached_property
    def incoming(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex incoming (neighbor, edge_index) pairs, sorted: the
        adjacency of the reversed graph (``adjacency`` itself if undirected).
        """
        if not self.directed:
            return self.adjacency
        into: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, (u, v, _) in enumerate(self.edges):
            into[v].append((u, idx))
        return tuple(tuple(sorted(nbrs)) for nbrs in into)

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for idx, (u, v, _) in enumerate(self.edges):
            table[(u, v)] = idx
            if not self.directed:
                table[(v, u)] = idx
        return table

    def edge_index(self, u: int, v: int) -> int:
        """Index of the edge traversed from u to v; ValueError if absent."""
        try:
            return self._edge_index[(u, v)]
        except KeyError:
            raise ValueError(f"({u},{v}) is not an edge") from None

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def with_weights(self, wmap: "WeightMap") -> "WeightedGraph":
        """The same graph under an alternative weight assignment."""
        wmap.validate_for(self)
        return WeightedGraph(
            self.directed,
            self.n,
            tuple((u, v, w) for (u, v, _), w in zip(self.edges, wmap.weights)),
        )

    def path_weight(self, path: Sequence[int], wmap: "WeightMap | None" = None) -> Fraction:
        """Total weight of a walk given as a vertex sequence."""
        if len(path) < 1:
            raise ValueError("a path has at least one vertex")
        weights = self.weights if wmap is None else wmap.weights
        total = Fraction(0)
        for u, v in zip(path, path[1:]):
            total += weights[self.edge_index(u, v)]
        return total

    def is_valid_path(self, path: Sequence[int]) -> bool:
        if len(path) < 1 or not all(0 <= v < self.n for v in path):
            return False
        return all(self.has_edge(u, v) for u, v in zip(path, path[1:]))


@dataclass(frozen=True)
class WeightMap:
    """An alternative weight assignment, index-aligned with a graph's edges."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ws = tuple(as_fraction(w) for w in self.weights)
        for i, w in enumerate(ws):
            if w <= 0:
                raise ValueError(f"weight #{i} is non-positive: {w}")
        object.__setattr__(self, "weights", ws)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, idx: int) -> Fraction:
        return self.weights[idx]

    def validate_for(self, graph: WeightedGraph) -> None:
        if len(self.weights) != graph.m:
            raise ValueError(
                f"weight map has {len(self.weights)} entries, graph has {graph.m} edges"
            )


def aspect_ratio(graph: WeightedGraph, wmap: WeightMap | None = None) -> Fraction:
    """Max edge weight divided by min edge weight; always at least 1."""
    if graph.m == 0:
        raise ValueError("no edges")
    if wmap is not None:
        wmap.validate_for(graph)
        weights = wmap.weights
    else:
        weights = graph.weights
    return max(weights) / min(weights)


def is_simple(path: Sequence[int]) -> bool:
    return len(set(path)) == len(path)


@dataclass(frozen=True)
class PathSystem:
    """A family of designated paths, keyed by ordered endpoint pair.

    ``ties_allowed`` lists the pairs whose designation is not required to be
    the strictly unique shortest path; every other entry is read as a
    unique-shortest requirement.  ``alpha`` optionally records the separation
    factor a construction claims for its designated family.
    """

    entries: Mapping[tuple[int, int], Path]
    ties_allowed: frozenset[tuple[int, int]] = frozenset()
    alpha: Fraction | None = None

    def __post_init__(self) -> None:
        fixed: dict[tuple[int, int], Path] = {}
        for (s, t), path in self.entries.items():
            path = tuple(path)
            if len(path) < 1 or path[0] != s or path[-1] != t:
                raise ValueError(f"designated path for ({s},{t}) has wrong endpoints")
            fixed[(s, t)] = path
        object.__setattr__(self, "entries", fixed)
        object.__setattr__(self, "ties_allowed", frozenset(self.ties_allowed))

    def __len__(self) -> int:
        return len(self.entries)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def uniqueness_required(self, pair: tuple[int, int]) -> bool:
        return pair not in self.ties_allowed

    def validate_in(self, graph: WeightedGraph) -> None:
        for (s, t), path in self.entries.items():
            if not graph.is_valid_path(path):
                raise ValueError(f"designated path for ({s},{t}) is not a path of the graph")
