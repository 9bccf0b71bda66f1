"""Integer multiplicity vectors over a graph of groups and their boundary map.

A vertex-space vector holds one integer block per vertex group, indexed by
that group's canonical irreducible order; an edge-space vector holds one
block per oriented edge (each geometric edge appears twice). The boundary
map compares the two edge-group restrictions of a vertex-space vector; its
kernel intersected with the nonnegative cone is exactly the set of vectors
realizable by genuine representations.

Norms are exact rationals (denominators are the vertex and edge counts).
The projection onto the kernel cone is exact. When the links of the map
form a spanning tree and every edge preserves dimension, it is a dynamic
program over that tree; otherwise it is an integer program solved by HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import NumericalError, ValidationError

VERTEX_SIDE = "vertex"
EDGE_SIDE = "edge"
MILP_ROUNDING_ATOL = 0.25  # |exact distance of the rounded MILP point - solver optimum|
DP_MAX_CANDIDATES = 20000  # per-vertex candidates above which the projection uses HiGHS


def as_integer(x, what: str) -> int:
    """`x` as an int; ints, numpy integers and integral floats are accepted."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValidationError(f"{what} must be an integer, got {x!r}")


@dataclass(frozen=True)
class MultiplicityVector:
    """Integer blocks per vertex (or per oriented edge)."""

    side: str
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.side not in (VERTEX_SIDE, EDGE_SIDE):
            raise ValidationError(f"side must be '{VERTEX_SIDE}' or '{EDGE_SIDE}'")
        object.__setattr__(self, "blocks", tuple(
            tuple(as_integer(x, "multiplicity") for x in b) for b in self.blocks))

    def _binary(self, other: "MultiplicityVector", op) -> "MultiplicityVector":
        if self.side != other.side or [len(b) for b in self.blocks] != [len(b) for b in other.blocks]:
            raise ValidationError("vectors live in different spaces")
        return MultiplicityVector(self.side, tuple(
            tuple(op(x, y) for x, y in zip(a, b))
            for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for b in self.blocks for x in b)

    def is_zero(self) -> bool:
        return all(x == 0 for b in self.blocks for x in b)

    def flatten(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)

    @staticmethod
    def from_flat(side: str, flat, block_lengths) -> "MultiplicityVector":
        flat = list(flat)
        blocks, off = [], 0
        for ln in block_lengths:
            blocks.append(tuple(flat[off:off + ln]))
            off += ln
        if off != len(flat):
            raise ValidationError("flat vector length does not match block layout")
        return MultiplicityVector(side, tuple(blocks))


@dataclass(frozen=True, eq=False)
class BoundaryMap:
    """Integer boundary map from vertex space to edge space.

    `matrix` has one row block per oriented edge: + the restriction at the
    terminus, - the restriction at the origin, so the block of edge 2k+1 is
    the negation of the block of 2k. Applying the map to the multiplicity
    vector of a genuine representation gives zero on every oriented edge.
    """

    vertex_dims: tuple[tuple[int, ...], ...]       # irrep dims per vertex block
    edge_dims: tuple[tuple[int, ...], ...]         # irrep dims per oriented edge block
    matrix: np.ndarray                             # edge coordinates x vertex coordinates
    trivial_indices: tuple[int, ...]               # trivial-irrep coordinate per vertex

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_dims)

    @property
    def vertex_block_lengths(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.vertex_dims)

    @property
    def edge_block_lengths(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.edge_dims)

    def _require(self, vec: MultiplicityVector, side: str):
        lengths = self.vertex_block_lengths if side == VERTEX_SIDE else self.edge_block_lengths
        if vec.side != side or tuple(len(b) for b in vec.blocks) != lengths:
            raise ValidationError(f"vector does not live in the {side} space of this map")

    def _norm(self, vec: MultiplicityVector, side: str) -> Fraction:
        """Average over blocks of the dimension-weighted l1 block norms."""
        self._require(vec, side)
        dims = self.vertex_dims if side == VERTEX_SIDE else self.edge_dims
        if not dims:
            return Fraction(0)
        total = sum(abs(x) * d for ds, b in zip(dims, vec.blocks) for d, x in zip(ds, b))
        return Fraction(total, len(dims))

    def vertex_norm(self, vec: MultiplicityVector) -> Fraction:
        """Average over vertices of the dimension-weighted l1 block norms."""
        return self._norm(vec, VERTEX_SIDE)

    def edge_norm(self, vec: MultiplicityVector) -> Fraction:
        """Average over all oriented edges of the weighted block norms."""
        return self._norm(vec, EDGE_SIDE)

    def apply(self, vec: MultiplicityVector) -> MultiplicityVector:
        """Exact integer image of a vertex-space vector in edge space."""
        self._require(vec, VERTEX_SIDE)
        image = self.matrix @ np.array(vec.flatten(), dtype=object)
        return MultiplicityVector.from_flat(EDGE_SIDE, image.tolist(), self.edge_block_lengths)

    def kernel_norm(self, vec: MultiplicityVector) -> int:
        """Vertex norm of a kernel-cone vector, which must be an integer.

        Raises ValidationError unless `vec` is a nonnegative vertex-space
        vector with zero boundary.
        """
        self._require(vec, VERTEX_SIDE)
        if not vec.is_nonnegative() or not self.apply(vec).is_zero():
            raise ValidationError("vector is not in the kernel cone of the boundary map")
        norm = self.vertex_norm(vec)
        if norm.denominator != 1:
            raise ValidationError("kernel cone vector has non-integer norm; inconsistent blocks")
        return int(norm)

    @cached_property
    def vertex_weights(self) -> np.ndarray:
        """Flattened irrep dimensions, the l1 weights on vertex coordinates."""
        return np.array([d for dims in self.vertex_dims for d in dims], dtype=np.int64)

    @cached_property
    def edge_tree(self) -> "EdgeTree | None":
        """Loops and spanning-tree links for the projection DP; see `_edge_tree`."""
        return _edge_tree(self)

    def trivial_vector(self) -> MultiplicityVector:
        """One copy of the trivial irrep on every vertex; lies in the kernel."""
        blocks = []
        for v, dims in enumerate(self.vertex_dims):
            b = [0] * len(dims)
            b[self.trivial_indices[v]] = 1
            blocks.append(tuple(b))
        return MultiplicityVector(VERTEX_SIDE, tuple(blocks))


def project_to_kernel_cone(lam: MultiplicityVector, bmap: BoundaryMap) -> MultiplicityVector:
    """Nearest point of the kernel cone, in the vertex norm, not larger than lam.

    Minimizes ||lam - mu||_V over integer mu >= 0 with boundary zero and
    ||mu||_V <= ||lam||_V; ties are broken toward the lexicographically
    smallest optimum in canonical coordinate order. When the links of the
    map form a spanning tree and every edge preserves dimension, this is an
    exact dynamic program over that tree (`_project_on_tree`); otherwise,
    or when a vertex has more than `DP_MAX_CANDIDATES` candidates, it is a
    mixed-integer program solved by HiGHS (`_project_by_milp`). The
    returned point is re-verified in exact integer arithmetic. The zero
    vector is always feasible.
    """
    bmap._require(lam, VERTEX_SIDE)
    if not lam.is_nonnegative():
        raise ValidationError("projection input must lie in the nonnegative cone")
    if bmap.apply(lam).is_zero():
        return lam

    lam_flat = np.array(lam.flatten(), dtype=np.int64)
    mu = _project_on_tree(lam_flat, bmap)
    if mu is None:
        mu = _project_by_milp(lam_flat, bmap)

    out = MultiplicityVector.from_flat(VERTEX_SIDE, mu.tolist(), bmap.vertex_block_lengths)
    if not out.is_nonnegative():
        raise NumericalError("projection produced a negative coordinate")
    if not bmap.apply(out).is_zero():
        raise NumericalError("projection left the kernel; solver output failed exact verification")
    if bmap.vertex_norm(out) > bmap.vertex_norm(lam):
        raise NumericalError("projection violated the norm cap")
    return out


@dataclass(frozen=True)
class EdgeTree:
    """The geometric edges of a boundary map whose links form a spanning tree.

    `loops[v]` holds the blocks of the edges that touch only vertex v, on
    its columns: a kernel vector has `loop @ mu_v = 0` for each. A link
    `(u, v, r_u, r_v)` touches exactly u and v, and a kernel vector has
    `r_u @ mu_u = r_v @ mu_v`.
    """

    loops: tuple[tuple[np.ndarray, ...], ...]
    links: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]


def _edge_tree(bmap: BoundaryMap) -> EdgeTree | None:
    """The loops and links of `bmap`, or None when the DP cannot use them.

    None unless every oriented block pair is (B, -B), every block touches at
    most two vertices, every block preserves dimension (the edge dimensions
    of a link's restrictions are the vertex weights on both sides, with
    opposite signs, and those of a loop cancel), and the links form a
    spanning tree. Then every kernel vector has the same dimension at every
    vertex.
    """
    w = bmap.vertex_weights
    if len(bmap.edge_dims) % 2 or (w <= 0).any():
        return None
    v_off = np.cumsum([0, *bmap.vertex_block_lengths])
    e_off = np.cumsum([0, *bmap.edge_block_lengths])
    cols = [slice(v_off[v], v_off[v + 1]) for v in range(bmap.n_vertices)]
    loops = [[] for _ in range(bmap.n_vertices)]
    links = []
    component = list(range(bmap.n_vertices))
    for k in range(0, len(bmap.edge_dims), 2):
        block = bmap.matrix[e_off[k]:e_off[k + 1]]
        if not np.array_equal(bmap.matrix[e_off[k + 1]:e_off[k + 2]], -block):
            return None
        dims = np.array(bmap.edge_dims[k], dtype=np.int64) @ block
        touched = [v for v in range(bmap.n_vertices) if block[:, cols[v]].any()]
        if len(touched) > 2:
            return None
        if len(touched) < 2:
            if dims.any():
                return None
            if touched:
                loops[touched[0]].append(block[:, cols[touched[0]]])
            continue
        u, v = touched
        sign = 1 if np.array_equal(dims[cols[v]], w[cols[v]]) else -1
        if not (np.array_equal(dims[cols[v]], sign * w[cols[v]])
                and np.array_equal(dims[cols[u]], -sign * w[cols[u]])):
            return None
        cu, cv = component[u], component[v]
        if cu == cv:
            return None
        component = [cu if c == cv else c for c in component]
        links.append((u, v, block[:, cols[u]], -block[:, cols[v]]))
    if len(links) != bmap.n_vertices - 1:
        return None
    return EdgeTree(tuple(map(tuple, loops)), tuple(links))


def _candidates(w: np.ndarray, d_cap: int) -> np.ndarray:
    """All mu >= 0 with w @ mu <= d_cap, one per row, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    room = np.array([d_cap], dtype=np.int64)
    for wi in w:
        counts = room // wi + 1
        parent = np.repeat(np.arange(len(rows)), counts)
        values = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], values])
        room = room[parent] - values * wi
    return rows


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Group ids of the rows of an integer matrix, equal rows sharing one.

    The ids follow the lexicographic order of the rows, as those of
    `np.unique(keys, axis=0, return_inverse=True)`; a lexsort on the columns
    is several times faster than that structured-row sort.
    """
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    return group, int(starts.sum())


def _project_on_tree(lam_flat: np.ndarray, bmap: BoundaryMap) -> np.ndarray | None:
    """Exact projection by dynamic programming over the links of `bmap.edge_tree`.

    Every kernel vector has one dimension D at all vertices, so the norm cap
    is D <= cap // n_vertices. A vertex's candidates are its mu_v >= 0 of
    weight at most that, which satisfy its loops; their cost is the weighted
    l1 distance to lam_v. The tie-break roots the DP at each vertex in turn
    and fixes the first optimal candidate, the lexicographically smallest.
    None when the map has no such tree, or when some vertex could have more
    than DP_MAX_CANDIDATES candidates.
    """
    tree = bmap.edge_tree
    w = bmap.vertex_weights
    n = bmap.n_vertices
    d_cap = int(w @ lam_flat) // n
    if tree is None or any(comb(d_cap + ln, ln) > DP_MAX_CANDIDATES
                           for ln in bmap.vertex_block_lengths):
        return None
    bounds = np.cumsum([0, *bmap.vertex_block_lengths])
    cands, costs = [], []
    for v in range(n):
        wv, lv = w[bounds[v]:bounds[v + 1]], lam_flat[bounds[v]:bounds[v + 1]]
        c = _candidates(wv, d_cap)
        for loop in tree.loops[v]:
            c = c[~(c @ loop.T).any(axis=1)]
        cands.append(c)
        costs.append((np.abs(c - lv) @ wv).astype(float))

    # neighbours[x]: (y, group of each candidate of x, of y, group count),
    # candidates of the two ends grouped by their common link key
    neighbours = [[] for _ in range(n)]
    for u, v, ru, rv in tree.links:
        group, ng = _group_rows(np.vstack([cands[u] @ ru.T, cands[v] @ rv.T]))
        gu, gv = group[:len(cands[u])], group[len(cands[u]):]
        neighbours[u].append((v, gu, gv, ng))
        neighbours[v].append((u, gv, gu, ng))

    choice = []
    for root in range(n):
        order, via = [root], {root: None}
        for x in order:
            for y, gx, gy, ng in neighbours[x]:
                if y not in via:
                    via[y] = (x, gx, gy, ng)
                    order.append(y)
        value = list(costs)
        for y in reversed(order[1:]):
            x, gx, gy, ng = via[y]
            best = np.full(ng, np.inf)
            np.minimum.at(best, gy, value[y])
            value[x] = value[x] + best[gx]
        i = int(np.argmin(value[root]))
        fixed = np.full(len(costs[root]), np.inf)
        fixed[i] = costs[root][i]
        costs[root] = fixed
        choice.append(cands[root][i])
    return np.concatenate(choice)


def _project_by_milp(lam_flat: np.ndarray, bmap: BoundaryMap) -> np.ndarray:
    """The projection as one mixed-integer program (HiGHS branch and bound).

    Solved once for the distance, then for the lexicographic tie-break one
    chunk of coordinates per solve, each chunk fixed once solved. Every
    solve asks for a zero relative gap: a tie-break objective reaches about
    1e15, where HiGHS's default gap of 1e-4 accepts a point whose low
    positional digits are off.
    """
    w = bmap.vertex_weights
    n = lam_flat.size
    cap = int(w @ lam_flat)
    rows = bmap.matrix.shape[0]

    def distance(x) -> int:
        return int(np.abs(lam_flat - x) @ w)

    # variables: [mu (integer), s (continuous slack with s >= |lam - mu|)];
    # rows: boundary = 0, mu - s <= lam, -mu - s <= -lam, ||mu||_V <= cap,
    # and the distance, uncapped until its optimum is known
    eye, zero, wf = np.eye(n), np.zeros(n), w.astype(float)
    a = np.block([[bmap.matrix, np.zeros((rows, n))], [eye, -eye], [-eye, -eye],
                  [wf, zero], [zero, wf]])
    a_lo = np.concatenate([np.zeros(rows), np.full(2 * n + 2, -np.inf)])
    a_hi = np.concatenate([np.zeros(rows), lam_flat, -lam_flat, [cap, np.inf]])
    integrality = np.concatenate([np.ones(n), np.zeros(n)])
    lo = np.zeros(2 * n)
    hi = np.concatenate([[cap // int(wi) if wi > 0 else cap for wi in w], np.full(n, np.inf)])

    def solve(c, context: str):
        res = milp(c=c, constraints=LinearConstraint(a, a_lo, a_hi),
                   integrality=integrality, bounds=Bounds(lo, hi),
                   options={"mip_rel_gap": 0})
        if not res.success or res.x is None:
            raise NumericalError(f"integer program failed during {context}: {res.message}")
        return res

    res = solve(np.concatenate([zero, wf]), "distance minimization")
    best = distance(np.round(res.x[:n]).astype(np.int64))
    if abs(best - res.fun) > MILP_ROUNDING_ATOL:
        raise NumericalError(
            f"rounded solution has distance {best} but the solver reported {res.fun:.6f}")
    a_hi[-1] = best

    # tie-break on chunks of k coordinates, each fixed once solved: the
    # positional objective in base cap + 2 is exact in doubles while
    # k * log2(cap + 2) < 52
    base = cap + 2
    k = max([j for j in range(1, n + 1) if j * np.log2(base) < 52], default=1)
    mu = np.empty(n, dtype=np.int64)
    for start in range(0, n, k):
        chunk = slice(start, min(start + k, n))
        c_lex = np.zeros(2 * n)
        c_lex[chunk] = base ** np.arange(chunk.stop - start - 1, -1, -1, dtype=float)
        res = solve(c_lex, f"lexicographic tie-break from coordinate {start}")
        mu[chunk] = np.round(res.x[chunk])
        lo[chunk] = hi[chunk] = mu[chunk]
    if distance(mu) != best:
        raise NumericalError("tie-break stage drifted from the optimal distance")

    return mu


def pad_with_trivial(lam_kernel: MultiplicityVector, target: int,
                     bmap: BoundaryMap) -> MultiplicityVector:
    """Raise a kernel-cone vector to a target norm by adding trivial summands.

    Adds (target - current norm) copies of the trivial irreducible at every
    vertex; the trivial vector lies in the kernel, so the result does too,
    with vertex norm exactly `target`.
    """
    norm = bmap.kernel_norm(lam_kernel)
    deficit = as_integer(target, "target norm") - norm
    if deficit < 0:
        raise ValidationError(f"target {target} is below the current norm {norm}")
    if deficit == 0:
        return lam_kernel
    triv = bmap.trivial_vector()
    scaled = MultiplicityVector(VERTEX_SIDE, tuple(
        tuple(x * deficit for x in b) for b in triv.blocks))
    return lam_kernel + scaled
