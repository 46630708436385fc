"""Benchmark graphs and their Cartesian powers.

Vertices are indexed 0..N-1. Lattice and power graphs use mixed-radix
little-endian indexing: coordinate 0 is the least significant digit, so
vertex (x0, x1, ..., x_{d-1}) of an n-ary lattice has index
sum(x_j * n**j). This makes tensor-product identities exact Kronecker
index identities downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import state_cap


class StateCapError(ValueError):
    """Requested construction exceeds the configured dense-state cap."""


def _shown(k: int) -> str:
    """k in decimal, or its bit length when it is too long to print (the
    interpreter refuses to format integers of more than 4300 digits)."""
    return str(k) if k.bit_length() <= 64 else f"[{k.bit_length()}-bit number]"


def _check_cap(n_states: int) -> None:
    cap = state_cap()
    if n_states > cap:
        raise StateCapError(f"{_shown(n_states)} states exceeds the configured cap of {cap}")


def _power_count(n: int, d: int) -> int:
    """n**d states for n >= 1, multiplied out one factor at a time and
    refused as soon as it passes the cap, before the power is formed."""
    cap = state_cap()
    count = 1
    for _ in range(d if n > 1 else 0):
        count *= n
        if count > cap:
            raise StateCapError(
                f"{_shown(n)}^{_shown(d)} states exceeds the configured cap of {cap}"
            )
    return count


def _edge_set(u: np.ndarray, v: np.ndarray) -> frozenset[tuple[int, int]]:
    """Normalized (low, high) pairs of two index arrays, duplicates merged."""
    return frozenset(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def breadth_first_levels(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Breadth-first levels from vertex 0 along the arcs tails[k] -> heads[k]
    on vertices 0..n-1; an unreached vertex has level -1."""
    order = np.argsort(tails, kind="stable")
    heads = heads[order]
    offsets = np.searchsorted(tails[order], np.arange(n + 1))
    out_degree = np.diff(offsets)
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        first = offsets[frontier]
        counts = out_degree[frontier]
        ends = counts.cumsum()
        # arc positions first[i] .. first[i] + counts[i] - 1 of each frontier vertex
        reached = heads[np.arange(ends[-1]) + (first - ends + counts).repeat(counts)]
        reached = reached[level[reached] < 0]
        # one copy of each new vertex: the last position that names it
        slot = np.arange(reached.size)
        level[reached] = slot
        frontier = reached[level[reached] == slot]
        level[frontier] = depth
    return level


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: no self-loops, no duplicate edges."""

    n: int
    edges: frozenset[tuple[int, int]]
    kind_tag: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex_count must be positive, got {self.n}")
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for {self.n} vertices")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """The edges as an (E, 2) integer array."""
        return np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)

    def degrees(self) -> np.ndarray:
        return np.bincount(self._edge_array.ravel(), minlength=self.n)

    def neighbors(self, v: int) -> list[int]:
        E = self._edge_array
        return sorted(E[E[:, 0] == v, 1].tolist() + E[E[:, 1] == v, 0].tolist())

    def adjacency_matrix(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        u, v = self._edge_array.T
        A[u, v] = 1.0
        A[v, u] = 1.0
        return A

    def is_connected(self) -> bool:
        u, v = self._edge_array.T
        level = breadth_first_levels(self.n, np.concatenate([u, v]), np.concatenate([v, u]))
        return bool((level >= 0).all())


def _vertices_along(n: int, d: int, j: int, values: np.ndarray) -> np.ndarray:
    """The index grid of Z_n^d with its coordinate-j axis indexed by values,
    flattened: for values of length n, entry x is the index of vertex x
    with coordinate x_j replaced by values[x_j]."""
    grid = np.arange(n**d).reshape((n,) * d)  # axis d-1-j holds coordinate j
    return grid.take(values, axis=d - 1 - j).ravel()


def lattice_step(n: int, d: int, j: int, sign: int) -> np.ndarray:
    """Index of every vertex of Z_n^d moved by sign (+1 or -1) along
    coordinate j."""
    return _vertices_along(n, d, j, (np.arange(n) + sign) % n)


def lattice_difference(n: int, d: int) -> np.ndarray:
    """D[y, x] = index of the vertex y - x of Z_n^d, so a chain that
    commutes with the translations and has column 0 equal to c is c[D]."""
    size = _power_count(n, d)
    idx = np.arange(size)
    D = np.zeros((size, size), dtype=np.intp)
    for j in range(d):
        digit = idx // n**j % n
        D += (np.subtract.outer(digit, digit) % n) * n**j
    return D


def _lattice_edges(n: int, d: int) -> frozenset[tuple[int, int]]:
    """Edges of Z_n^d: every vertex joined to its +1 step along each
    coordinate, which also covers the -1 steps."""
    size = _power_count(n, d)
    steps = [lattice_step(n, d, j, 1) for j in range(d)]
    return _edge_set(np.tile(np.arange(size), d), np.concatenate(steps))


def cycle(n: int) -> Graph:
    """Cycle Z_n; n = 2 degenerates to a single edge."""
    if n < 2:
        raise ValueError(f"cycle needs n >= 2, got n={n}")
    return Graph(n, _lattice_edges(n, 1), f"cycle({n})")


def path(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"path needs n >= 2, got n={n}")
    _check_cap(n)
    return Graph(n, _edge_set(np.arange(n - 1), np.arange(1, n)), f"path({n})")


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"complete needs N >= 2, got N={n}")
    _check_cap(n)
    return Graph(n, _edge_set(*np.triu_indices(n, 1)), f"complete({n})")


def hypercube(d: int) -> Graph:
    """Z_2^d with bit j of the vertex index as coordinate j: lattice(2, d)."""
    if d < 1:
        raise ValueError(f"hypercube needs d >= 1, got d={d}")
    return Graph(_power_count(2, d), _lattice_edges(2, d), f"hypercube({d})")


def lattice(n: int, d: int) -> Graph:
    """Periodic lattice Z_n^d, little-endian mixed-radix indexing."""
    if n < 2:
        raise ValueError(f"lattice needs n >= 2, got n={n}")
    if d < 1:
        raise ValueError(f"lattice needs d >= 1, got d={d}")
    return Graph(_power_count(n, d), _lattice_edges(n, d), f"lattice({n},{d})")


_BUILDERS = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete": (complete, 1),
    "hypercube": (hypercube, 1),
    "lattice": (lattice, 2),
}


def build_graph(kind: str, params: list[int]) -> Graph:
    """Construct a named graph; see _BUILDERS for the parameter counts."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {sorted(_BUILDERS)}")
    fn, arity = _BUILDERS[kind]
    if len(params) != arity:
        raise ValueError(f"{kind} takes {arity} parameter(s), got {list(params)}")
    return fn(*params)


def cartesian_power(G: Graph, d: int) -> Graph:
    """d-th Cartesian power: tuples adjacent iff they differ in exactly
    one coordinate by an edge of G. Coordinate 0 is least significant."""
    if d < 1:
        raise ValueError(f"cartesian_power needs d >= 1, got d={d}")
    size = _power_count(G.n, d)
    low, high = G._edge_array.T
    tails = [_vertices_along(G.n, d, j, low) for j in range(d)]
    heads = [_vertices_along(G.n, d, j, high) for j in range(d)]
    edges = _edge_set(np.concatenate(tails), np.concatenate(heads))
    out = Graph(size, edges, f"power({G.kind_tag},{d})")
    # sanity: |V|^d vertices and summed coordinate degrees
    assert out.n == G.n**d
    deg_base = G.degrees()
    deg_out = out.degrees()
    for v in (0, size - 1):
        digits = [(v // G.n**j) % G.n for j in range(d)]
        assert deg_out[v] == sum(deg_base[x] for x in digits)
    return out


def parse_edge_list(text: str) -> Graph:
    """Parse the "N on the first line, then one 'u v' per line" format."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge list")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}") from exc
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"self-loop {u} {v} rejected")
        e = (min(u, v), max(u, v))
        if e in edges:
            raise ValueError(f"duplicate edge {u} {v} rejected")
        edges.add(e)
    return Graph(n, frozenset(edges), "custom")


def format_edge_list(G: Graph) -> str:
    lines = [str(G.n)]
    for (u, v) in sorted(G.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
