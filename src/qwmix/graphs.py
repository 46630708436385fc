"""Benchmark graphs and their Cartesian powers.

Vertices are indexed 0..N-1. Lattice and power graphs use mixed-radix
little-endian indexing: coordinate 0 is the least significant digit, so
vertex (x0, x1, ..., x_{d-1}) of an n-ary lattice has index
sum(x_j * n**j). This makes tensor-product identities exact Kronecker
index identities downstream.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import claimed_cap, state_cap


class StateCapError(ValueError):
    """Requested construction exceeds the configured state cap, or the
    limit it sets on what a claimed object stores."""


def _shown(k: int) -> str:
    """k in decimal, or its bit length when it is too long to print (the
    interpreter refuses to format integers of more than 4300 digits)."""
    return str(k) if k.bit_length() <= 64 else f"[{k.bit_length()}-bit number]"


def _limit(claimed: bool) -> tuple[int, str]:
    """The state cap, or claimed_cap() for what a claimed object stores,
    and how a refusal names it."""
    limit = claimed_cap() if claimed else state_cap()
    return limit, f"the configured cap of {limit}" + (" for claimed objects" if claimed else "")


def _check_cap(count: int, claimed: bool = False, what: str = "states") -> None:
    limit, name = _limit(claimed)
    if count > limit:
        raise StateCapError(f"{_shown(count)} {what} exceeds {name}")


def _power_count(n: int, d: int, claimed: bool) -> int:
    """n**d states for n >= 1, multiplied out one factor at a time and
    refused as soon as it passes the limit, before the power is formed."""
    limit, name = _limit(claimed)
    count = 1
    for _ in range(d if n > 1 else 0):
        count *= n
        if count > limit:
            raise StateCapError(f"{_shown(n)}^{_shown(d)} states exceeds {name}")
    return count


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


class Graph:
    """Undirected simple graph: no self-loops, no duplicate edges.

    edges, an (E, 2) integer array-like of vertex pairs in any orientation
    and order, is stored as a read-only int64 array of its distinct pairs
    (u, v) with u < v, sorted. Graphs compare and hash by identity. Such a
    graph carries no lattice claim: one on Z_n^d that commutes with its
    translations is built from vertex 0's neighbours, its steps
    (_from_steps), and forms its edges on first read.
    """

    def __init__(self, n: int, edges: np.ndarray, kind_tag: str = "custom"):
        if n < 1:
            raise ValueError(f"vertex_count must be positive, got {n}")
        _check_cap(n)  # the keys u * n + v below fit in an int64 for n < 3.0e9
        E = np.asarray(edges)
        E = E.reshape(0, 2).astype(np.int64) if E.shape == (0,) else E
        if E.ndim != 2 or E.shape[1] != 2 or not np.issubdtype(E.dtype, np.integer):
            raise ValueError(f"edges must be (E, 2) integers, not {type(edges).__name__}")
        loops = E[E[:, 0] == E[:, 1]]
        if loops.size:
            raise ValueError(f"self-loop at vertex {loops[0, 0]}")
        stray = E[((E < 0) | (E >= n)).any(axis=1)]
        if stray.size:
            raise ValueError(f"edge {tuple(stray[0].tolist())} out of range for {n} vertices")
        # sorting the keys u * n + v sorts the pairs by (u, v) and makes repeats adjacent
        E = E.astype(np.int64, copy=False)
        key = np.minimum(E[:, 0], E[:, 1]) * n
        key += np.maximum(E[:, 0], E[:, 1])
        key.sort()
        key = np.concatenate((key[:1], key[1:][key[1:] != key[:-1]]))
        self.edges = np.column_stack(np.divmod(key, n))
        self.edges.setflags(write=False)
        self.n, self.kind_tag, self.lattice, self.steps = n, kind_tag, None, None

    @classmethod
    def _from_steps(cls, n: int, d: int, steps, kind_tag: str) -> Graph:
        """x ~ x + z on Z_n^d for each step z, true to the claim by
        construction. The steps, in 1..N-1 and closed under negation, are
        stored sorted, distinct and read-only."""
        size = _lattice_size(n, d)
        steps = np.array(sorted(set(np.asarray(steps, dtype=np.int64).tolist())), dtype=np.int64)
        if steps.size and not 1 <= steps[0] <= steps[-1] < size:
            raise ValueError(f"steps of lattice {(n, d)} must lie in 1..{size - 1}")
        if not np.array_equal(np.sort(lattice_sum(n, d, 0, steps, -1)), steps):
            raise ValueError(f"steps of lattice {(n, d)} are not closed under negation")
        steps.setflags(write=False)
        self = cls.__new__(cls)
        self.n, self.kind_tag, self.lattice, self.steps = size, kind_tag, (n, d), steps
        return self

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """x joined to x + z for each step z: as -z is a step too, the pairs
        with x < x + z, each x's ends sorted, are the edges in (u, v) order.
        An N x |S| array, so N is counted against the state cap first."""
        _check_cap(self.n)
        x = np.arange(self.n)[:, None]
        ends = np.sort(lattice_sum(*self.lattice, x, self.steps), axis=1)
        keep = ends > x
        edges = np.column_stack((np.broadcast_to(x, ends.shape)[keep], ends[keep]))
        edges.setflags(write=False)
        return edges

    def degrees(self) -> np.ndarray:
        if self.lattice is not None:
            return np.full(self.n, self.steps.size, dtype=np.int64)
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def neighbors(self, v: int) -> list[int]:
        E = self.edges
        return sorted(E[E[:, 0] == v, 1].tolist() + E[E[:, 1] == v, 0].tolist())

    def adjacency_matrix(self) -> np.ndarray:
        u, v = self.edges.T  # a claimed graph's edges check the state cap
        A = np.zeros((self.n, self.n))
        A[u, v] = 1.0
        A[v, u] = 1.0
        return A

    def is_connected(self) -> bool:
        """Whether every vertex reaches every other; on a claimed graph,
        whether the steps generate Z_n^d (lattice_span)."""
        if self.lattice is not None:
            steps = np.zeros(self.n, dtype=bool)
            steps[self.steps] = True
            return bool(lattice_span(*self.lattice, steps).all())
        level = breadth_first_levels(self.n, self.edges.ravel(), self.edges[:, ::-1].ravel())
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


def lattice_sum(n: int, d: int, x, z, sign: int = 1) -> np.ndarray:
    """Index of the vertex x + sign * z of Z_n^d (sign +1 or -1), digit by
    digit, broadcast over the index arrays x and z."""
    out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(z)), dtype=np.int64)
    place = 1
    for _ in range(d):
        out += ((x // place + sign * (z // place)) % n) * place
        place *= n
    return out


@functools.lru_cache(maxsize=16)
def lattice_negation(n: int, d: int) -> np.ndarray:
    """Index of -z for every vertex z of Z_n^d: every coordinate negated.
    Read-only, and cached: every chain on the lattice reads it."""
    neg = lattice_sum(n, d, 0, np.arange(_power_count(n, d, claimed=True)), -1)
    neg.setflags(write=False)
    return neg


def lattice_annihilator(n: int, d: int, steps: np.ndarray) -> np.ndarray:
    """The wave vectors k of Z_n^d, as a boolean (n,) * d grid, whose
    character exp(-2 pi i k.z / n) is 1 at every step z, steps being a
    boolean vector over the vertices. h = fftn(steps) sums each character
    over the steps, and a step where it is not 1 has real part at most
    cos(2 pi / n). So Re h[k] is |steps| on the annihilator and at most
    |steps| - (1 - cos 2 pi / n) off it; half that gap separates the two,
    far above the transform's rounding."""
    h = np.fft.fftn(steps.reshape((n,) * d))
    return h.real > np.count_nonzero(steps) - 0.5 * (1.0 - np.cos(2.0 * np.pi / n))


def lattice_span(n: int, d: int, steps: np.ndarray) -> np.ndarray:
    """The vertices of Z_n^d that sums of the steps reach from 0, as a
    boolean vector: the subgroup the steps generate (in a finite group
    -z is a sum of copies of z), which is where every character of
    lattice_annihilator is 1. The inverse transform of the annihilator's
    indicator is |annihilator| / N there and 0 elsewhere, so the span is
    where it passes half its value at 0. Two transforms of N entries, with
    no breadth-first search and no list of arcs."""
    a = np.fft.ifftn(lattice_annihilator(n, d, steps)).real.ravel()
    return a > 0.5 * a[0]


def _check_lattice_size(lattice: tuple[int, int], count: int, what: str) -> None:
    """Refuse a lattice claim (n, d) unless n**d == count."""
    n, d = lattice
    # n >= 2 gives n**d >= 2**d, so a d past count's bit length cannot match
    if not (n >= 2 and 1 <= d <= count.bit_length() and n**d == count):
        raise ValueError(f"lattice {lattice} does not have {count} {what}")


def lattice_circulant(column: np.ndarray, n: int, d: int) -> np.ndarray:
    """M[y, x] = column[y - x], the chain that commutes with the
    translations of Z_n^d and has column 0 equal to column, as one strided
    copy of the column. Its (n,) * d grid, wrapped by n - 1 entries before
    each axis, holds column[k - (n - 1)] at k digit by digit, so M[y, x]
    is the wrapped grid at (n - 1) + y - x: a view from that corner with
    the grid's strides along y's axes and their negatives along x's. N is
    counted against the state cap first."""
    size = _power_count(n, d, claimed=False)
    wrap = np.arange(1 - n, n) % n
    grid = np.reshape(column, (n,) * d)[np.ix_(*[wrap] * d)]
    corner = grid[(slice(n - 1, None),) * d]
    strides = grid.strides + tuple(-s for s in grid.strides)
    view = np.lib.stride_tricks.as_strided(corner, (n,) * (2 * d), strides, writeable=False)
    return np.ascontiguousarray(view).reshape(size, size)


def _unit_steps(n: int, d: int) -> np.ndarray:
    """The +-1 steps along each axis of Z_n^d, formed after the cap check."""
    _lattice_size(n, d)
    place = n ** np.arange(d, dtype=np.int64)
    return np.concatenate((place, (n - 1) * place))


def cycle(n: int) -> Graph:
    """Cycle Z_n; n = 2 degenerates to a single edge."""
    if n < 2:
        raise ValueError(f"cycle needs n >= 2, got n={n}")
    return Graph._from_steps(n, 1, _unit_steps(n, 1), f"cycle({n})")


def path(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"path needs n >= 2, got n={n}")
    _check_cap(n)
    return Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))), f"path({n})")


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"complete needs N >= 2, got N={n}")
    _check_cap(n)
    return Graph(n, np.column_stack(np.triu_indices(n, 1)), f"complete({n})")


def hypercube(d: int) -> Graph:
    """Z_2^d with bit j of the vertex index as coordinate j: lattice(2, d)."""
    if d < 1:
        raise ValueError(f"hypercube needs d >= 1, got d={d}")
    return Graph._from_steps(2, d, _unit_steps(2, d), f"hypercube({d})")


def lattice(n: int, d: int) -> Graph:
    """Periodic lattice Z_n^d, little-endian mixed-radix indexing."""
    return Graph._from_steps(n, d, _unit_steps(n, d), f"lattice({n},{d})")


def _lattice_size(n: int, d: int) -> int:
    """The n**d vertices of Z_n^d, refusing n < 2, d < 1 and a count past
    claimed_cap()."""
    if n < 2:
        raise ValueError(f"lattice needs n >= 2, got n={n}")
    if d < 1:
        raise ValueError(f"lattice needs d >= 1, got d={d}")
    return _power_count(n, d, claimed=True)


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
    one coordinate by an edge of G. Coordinate 0 is least significant, so
    the power of Z_n^k is Z_n^(kd) in the same layout and keeps the claim,
    built from G's steps alone."""
    if d < 1:
        raise ValueError(f"cartesian_power needs d >= 1, got d={d}")
    size = _power_count(G.n, d, claimed=G.lattice is not None)
    tag = f"power({G.kind_tag},{d})"
    if G.lattice is not None:  # vertex 0's neighbours: G's steps in one coordinate j
        steps = np.concatenate([G.steps * G.n**j for j in range(d)])
        return Graph._from_steps(G.lattice[0], G.lattice[1] * d, steps, tag)
    # the edge (low, high) of G along coordinate j, at every setting of the others
    pairs = [np.column_stack([_vertices_along(G.n, d, j, x) for x in G.edges.T]) for j in range(d)]
    return Graph(size, np.concatenate(pairs), tag)
