"""Graphs of finite groups and approximate representations of their covers.

A graph is stored Serre-style: geometric edge k owns the oriented pair
(2k, 2k+1), with 2k running origin -> terminus as entered and 2k+1 the
opposite. The fundamental group is presented on the vertex-group elements
and one stable letter per geometric edge, modulo a stable-letter relator per
tree edge and a conjugation relator per (geometric edge, nonidentity
edge-group element), indexed once per graph of groups, with the words as
display and oracle form.

An AlmostRep assigns an exact unitary representation to every vertex group
and an arbitrary unitary to every stable letter; its defect is the largest
normalized p-Schatten distance from a relator image to the identity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import VERTEX_SIDE, BoundaryMap, MultiplicityVector
from .errors import ValidationError
from .groups import FiniteGroup, GroupHom, group_hom
from .irreps import (UNITARY_ATOL, UnitaryRep, _read_only, conjugate_rep,
                     multiplicities, restriction_matrix, unitary_rep)
from .rng import as_generator, random_hermitian
from .schatten import _normalized_norms, max_normalized_norm, singular_values

PERTURB_EDGES = "edges-only"
PERTURB_FULL = "edges-and-conjugate-vertices"


@dataclass(frozen=True, eq=False)
class SerreGraph:
    """Connected graph with explicit edge involution."""

    n_vertices: int
    endpoints: tuple[tuple[int, int], ...]  # (origin, terminus) per geometric edge

    @property
    def n_geometric_edges(self) -> int:
        return len(self.endpoints)

    @property
    def n_oriented_edges(self) -> int:
        return 2 * len(self.endpoints)

    def origin(self, e: int) -> int:
        o, t = self.endpoints[e // 2]
        return o if e % 2 == 0 else t

    def terminus(self, e: int) -> int:
        o, t = self.endpoints[e // 2]
        return t if e % 2 == 0 else o

    def opposite(self, e: int) -> int:
        return e ^ 1

    @cached_property
    def tree(self) -> "SpanningTree":
        return spanning_tree(self)  # once per graph: serre_graph fills it


def serre_graph(n_vertices: int, endpoints) -> SerreGraph:
    """Validated connected graph from (origin, terminus) pairs."""
    if n_vertices <= 0:
        raise ValidationError("graph needs at least one vertex")
    eps = tuple((int(o), int(t)) for o, t in endpoints)
    for o, t in eps:
        if not (0 <= o < n_vertices and 0 <= t < n_vertices):
            raise ValidationError(f"edge endpoint out of range: ({o}, {t})")
    graph = SerreGraph(n_vertices=n_vertices, endpoints=eps)
    graph.tree  # rejects a disconnected graph
    return graph


@dataclass(frozen=True)
class TreeStep:
    """One spanning-tree attachment: the child vertex and the oriented edge
    pointing from the child to its already-visited parent."""

    child: int
    parent: int
    edge_to_parent: int  # oriented: origin = child, terminus = parent


@dataclass(frozen=True)
class SpanningTree:
    root: int
    steps: tuple[TreeStep, ...]
    geometric_edges: frozenset[int]


def spanning_tree(graph: SerreGraph) -> SpanningTree:
    """BFS tree from vertex 0, least edge index first, the same on every call.

    Raises ValidationError naming the unreachable vertices if the graph is
    not connected.
    """
    out_edges: dict[int, list[int]] = {v: [] for v in range(graph.n_vertices)}
    for e in range(graph.n_oriented_edges):
        out_edges[graph.origin(e)].append(e)
    root = 0
    seen = {root}
    steps: list[TreeStep] = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for e in out_edges[v]:
            u = graph.terminus(e)
            if u not in seen:
                seen.add(u)
                steps.append(TreeStep(child=u, parent=v,
                                      edge_to_parent=graph.opposite(e)))
                queue.append(u)
    if len(seen) != graph.n_vertices:
        missing = sorted(set(range(graph.n_vertices)) - seen)
        raise ValidationError(f"graph is not connected; unreachable vertices {missing}")
    return SpanningTree(root=root, steps=tuple(steps),
                        geometric_edges=frozenset(s.edge_to_parent // 2 for s in steps))


@dataclass(frozen=True, eq=False)
class GraphOfGroups:
    """Finite groups on vertices and edges with injective edge inclusions."""

    graph: SerreGraph
    vertex_groups: tuple[FiniteGroup, ...]
    edge_groups: tuple[FiniteGroup, ...]      # per geometric edge, shared by the pair
    injections: tuple[GroupHom, ...]          # per oriented edge e: G_e -> G_{terminus(e)}
    name: str = ""

    @cached_property
    def _relator_index(self) -> tuple[tuple[int, ...], tuple]:
        """The presentation: the sorted tree edges, and per geometric edge k,
        over the nonidentity g of its edge group, the terminus elements
        i_{2k}(g) and the origin inverses inv(i_{2k+1}(g))."""
        conjugations = []
        for k, group in enumerate(self.edge_groups):
            rest = np.arange(group.order) != group.identity
            origin_inv = self.vertex_groups[self.graph.origin(2 * k)].inv
            conjugations.append((_read_only(self.injections[2 * k].map[rest]),
                                 _read_only(origin_inv[self.injections[2 * k + 1].map[rest]])))
        return tuple(sorted(self.graph.tree.geometric_edges)), tuple(conjugations)


def graph_of_groups(graph: SerreGraph, vertex_groups, edge_groups,
                    injection_maps, name: str = "") -> GraphOfGroups:
    """Assemble and validate a graph of groups.

    `injection_maps[e]` is the element map of the inclusion of the geometric
    edge group of e//2 into the vertex group at the terminus of oriented
    edge e; every inclusion is checked to be an injective homomorphism.
    """
    vgs = tuple(vertex_groups)
    egs = tuple(edge_groups)
    if len(vgs) != graph.n_vertices:
        raise ValidationError("one vertex group required per vertex")
    if len(egs) != graph.n_geometric_edges:
        raise ValidationError("one edge group required per geometric edge")
    if len(injection_maps) != graph.n_oriented_edges:
        raise ValidationError("one injection required per oriented edge")
    injections = []
    for e, mapping in enumerate(injection_maps):
        injections.append(group_hom(egs[e // 2], vgs[graph.terminus(e)], mapping,
                                    require_injective=True))
    return GraphOfGroups(graph=graph, vertex_groups=vgs, edge_groups=egs,
                         injections=tuple(injections), name=name)


# Relator words: tuples of tokens, evaluated left to right.
#   ("v", vertex, element)        vertex-group element
#   ("s", geometric_edge, +/-1)   stable letter or its inverse


def relators(gog: GraphOfGroups) -> tuple[tuple, ...]:
    """Defining relator words: the display and oracle form of the presentation index."""
    tree_edges, conjugations = gog._relator_index
    words = [(("s", k, 1),) for k in tree_edges]
    for k, ((o, t), (terminus, origin_inv)) in enumerate(zip(gog.graph.endpoints, conjugations)):
        words += [(("s", k, -1), ("v", t, int(a)), ("s", k, 1), ("v", o, int(b)))
                  for a, b in zip(terminus, origin_inv)]
    return tuple(words)


@dataclass(frozen=True, eq=False)
class AlmostRep:
    """Exact vertex representations plus one unitary per stable letter."""

    dim: int
    vertex_reps: tuple[UnitaryRep, ...]
    edge_unitaries: tuple[np.ndarray, ...]  # per geometric edge


def _check_fits(gog: GraphOfGroups, vertex_reps, edge_unitaries) -> None:
    """ValidationError unless there is one representation of each vertex's
    own group and one letter per geometric edge."""
    if len(vertex_reps) != gog.graph.n_vertices:
        raise ValidationError("one representation required per vertex")
    if len(edge_unitaries) != gog.graph.n_geometric_edges:
        raise ValidationError("one unitary required per geometric edge")
    for v, (rep, group) in enumerate(zip(vertex_reps, gog.vertex_groups)):
        if rep.group is not group:
            raise ValidationError(f"vertex {v} representation has the wrong group")


def almost_rep(gog: GraphOfGroups, vertex_reps, edge_unitaries,
               check: bool = True) -> AlmostRep:
    """Validated almost-representation container.

    Vertex representations must be exact unitary representations of the
    corresponding vertex groups (that they satisfy the vertex relations is
    what makes this a map from the free product); stable-letter matrices
    need only be unitary. Groups and shapes are checked on every call;
    `check=False` skips only the unitarity and homomorphism checks.
    """
    vreps = tuple(vertex_reps)
    edges = tuple(np.ascontiguousarray(u, dtype=complex) for u in edge_unitaries)
    _check_fits(gog, vreps, edges)
    dim = vreps[0].dim
    if dim <= 0:
        raise ValidationError("dimension must be positive")
    if any(rep.dim != dim for rep in vreps):
        raise ValidationError("vertex representations must share one dimension")
    for k, u in enumerate(edges):
        if u.shape != (dim, dim):
            raise ValidationError(f"edge {k} unitary has shape {u.shape}, expected {(dim, dim)}")
    if check:
        eye = np.eye(dim)
        for v, rep in enumerate(vreps):
            unitary_rep(rep.group, rep.matrices, check=True)
        for k, u in enumerate(edges):
            if np.abs(u @ u.conj().T - eye).max() > UNITARY_ATOL:
                raise ValidationError(f"edge {k} matrix is not unitary")
    for u in edges:
        u.setflags(write=False)
    return AlmostRep(dim=dim, vertex_reps=vreps, edge_unitaries=edges)


def evaluate_word(rho: AlmostRep, word: tuple) -> np.ndarray:
    """Matrix of a relator word under an almost-representation."""
    out = np.eye(rho.dim, dtype=complex)
    for token in word:
        kind, idx, arg = token
        if kind == "v":
            out = out @ rho.vertex_reps[idx].matrices[arg]
        elif kind == "s":
            u = rho.edge_unitaries[idx]
            out = out @ (u if arg == 1 else u.conj().T)
        else:
            raise ValidationError(f"unknown word token {token!r}")
    return out


def _relator_norms(rho: AlmostRep, gog: GraphOfGroups,
                   p: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """The normalized p-Schatten norms of the relator images minus I, read
    off the presentation index in one stack, and per geometric edge k the
    view of its own: s - I first when k is a tree edge, then s^H A s B - I
    per conjugation relator, multiplied left to right as in
    `evaluate_word`. Raises ValidationError when `rho` does not fit the
    graph of groups."""
    _check_fits(gog, rho.vertex_reps, rho.edge_unitaries)
    tree_edges, conjugations = gog._relator_index
    eye = np.eye(rho.dim)
    diffs, ends = [np.empty((0, rho.dim, rho.dim))], [0]
    for k, ((o, t), (terminus, origin_inv), u) in enumerate(
            zip(gog.graph.endpoints, conjugations, rho.edge_unitaries)):
        if k in tree_edges:
            diffs.append(u[None] - eye)
        if len(terminus):
            a, b = rho.vertex_reps[t].matrices[terminus], rho.vertex_reps[o].matrices[origin_inv]
            diffs.append(u.conj().T @ a @ u @ b - eye)
        ends.append(ends[-1] + (k in tree_edges) + len(terminus))
    norms = _normalized_norms(np.concatenate(diffs), p)
    return norms, [norms[i:j] for i, j in zip(ends, ends[1:])]


def measure_defect(rho: AlmostRep, gog: GraphOfGroups, p: float) -> float:
    """Largest normalized p-Schatten distance from a relator image to I:
    of s - I per tree letter s, and of s^H A s B - I per conjugation
    relator, as `_relator_norms` reads them. Raises ValidationError when
    `rho` does not fit the graph of groups."""
    return float(_relator_norms(rho, gog, p)[0].max(initial=0.0))


def rep_multiplicities(rho: AlmostRep, vertex_tables) -> MultiplicityVector:
    """Per-vertex multiplicity blocks of the vertex representations."""
    blocks = tuple(tuple(int(x) for x in multiplicities(rep, table))
                   for rep, table in zip(rho.vertex_reps, vertex_tables))
    return MultiplicityVector(VERTEX_SIDE, blocks)


def generator_distance(rho1: AlmostRep, rho2: AlmostRep, p: float) -> float:
    """Max distance over the generating set: nonidentity vertex elements and
    stable letters. Both vertex representations are exact, so the identity
    element adds nothing but rounding; it is left out, as in `relators`."""
    def shapes(rho):
        return [r.matrices.shape for r in rho.vertex_reps] + [u.shape for u in rho.edge_unitaries]

    if shapes(rho1) != shapes(rho2):
        raise ValidationError("almost-representations are not comparable")
    diffs = []
    for r1, r2 in zip(rho1.vertex_reps, rho2.vertex_reps):
        rest = np.arange(r1.group.order) != r1.group.identity
        diffs.append(r1.matrices[rest] - r2.matrices[rest])
    diffs += [(u1 - u2)[None] for u1, u2 in zip(rho1.edge_unitaries, rho2.edge_unitaries)]
    return max_normalized_norm(np.concatenate(diffs), p)


def _unit_frobenius_hermitian(dim: int, rng) -> np.ndarray:
    h = random_hermitian(dim, rng)
    # Kept on the singular values, in the arithmetic of the SVD route of
    # schatten_norm_normalized(h, 2.0): this scale fixes every perturbed
    # input, and the Frobenius form of the same norm can differ in the last
    # bit, which would change the perturbed inputs of every sweep.
    sv = singular_values(h)
    scale = float(sv[0] * np.sum((sv / sv[0]) ** 2.0) ** 0.5) / dim ** 0.5
    return h / scale


def _exp_i(h: np.ndarray, eps: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def perturb(rho: AlmostRep, gog: GraphOfGroups, eps: float, mode: str = PERTURB_EDGES,
            rng=None) -> AlmostRep:
    """Multiply stable-letter unitaries by exp(i*eps*H) with unit-HS Hermitian H.

    In mode "edges-and-conjugate-vertices" each vertex representation is
    additionally conjugated by an independent exp(i*eps*H_v), which keeps it
    an exact representation.
    """
    if not 0 <= eps < np.inf:
        raise ValidationError(f"perturbation size must be finite and nonnegative, got {eps}")
    if mode not in (PERTURB_EDGES, PERTURB_FULL):
        raise ValidationError(f"unknown perturbation mode {mode!r}")
    rng = as_generator(rng)
    dim = rho.dim
    edges = []
    for u in rho.edge_unitaries:
        h = _unit_frobenius_hermitian(dim, rng)
        edges.append(_exp_i(h, eps) @ u)
    vreps = rho.vertex_reps
    if mode == PERTURB_FULL:
        vreps = tuple(conjugate_rep(rep, _exp_i(_unit_frobenius_hermitian(dim, rng), eps))
                      for rep in vreps)
    return almost_rep(gog, vreps, edges, check=False)


def boundary_map(gog: GraphOfGroups, vertex_tables, edge_tables) -> BoundaryMap:
    """Boundary map of a graph of groups in the given canonical tables.

    Per geometric edge k, the restrictions at its origin (along the
    injection of 2k+1) and at its terminus (along that of 2k); the map's
    row blocks and edge tree are built from them by `BoundaryMap._from_edges`.
    """
    vertex_tables = tuple(vertex_tables)
    edges = []
    for k, ((o, t), table) in enumerate(zip(gog.graph.endpoints, edge_tables)):
        edges.append((o, t, tuple(int(d) for d in table.dims),
                      restriction_matrix(gog.injections[2 * k + 1], table, vertex_tables[o]),
                      restriction_matrix(gog.injections[2 * k], table, vertex_tables[t])))
    return BoundaryMap._from_edges(tuple(tuple(int(d) for d in t.dims) for t in vertex_tables),
                                   edges, tuple(t.trivial_index for t in vertex_tables))
