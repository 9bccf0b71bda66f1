"""Correction of almost-representations of a graph-of-groups cover.

The pipeline: measure the defect, read off the per-vertex multiplicity
vector, project it onto the kernel cone of the boundary map, pad with
trivial summands back to the input dimension, then rebuild exact vertex
representations by induction over a spanning tree (correcting each vertex
against the edge restriction of its already-corrected parent) and solve the
stable-letter unitaries on the remaining edges. The output is an exact
representation whose generator distance to the input is of the order of the
input defect.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import (BoundaryMap, MultiplicityVector, pad_with_trivial,
                    project_to_kernel_cone)
from .errors import (GuardExceededError, IsomorphyError, NumericalError,
                     ValidationError)
from .graphs import (AlmostRep, GraphOfGroups, SpanningTree, almost_rep,
                     boundary_map, generator_distance, measure_defect,
                     rep_multiplicities, spanning_tree)
from .groups import GroupHom, trivial_embedding
from .irreps import (IrrepTable, UnitaryRep, complement, compress, conjugate_rep,
                     irrep_table, irreducible_components, multiplicities, pullback,
                     rep_from_multiplicities, restriction_matrix, unitary_rep)
from .intertwiners import DEFAULT_THRESHOLD, unitary_intertwiner
from .presets import cyclic_group
from .rng import as_generator, derived_generator
from .schatten import rep_distance

DEFAULT_GUARD = 0.2


@contextmanager
def _stage(name: str):
    """Tag numerical failures with the pipeline stage they occurred in."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc


@dataclass(frozen=True, eq=False)
class CorrectionContext:
    """Precomputed tables, tree, and boundary map for one graph of groups."""

    gog: GraphOfGroups
    tree: SpanningTree
    p: float
    vertex_tables: tuple[IrrepTable, ...]
    edge_tables: tuple[IrrepTable, ...]
    trivial_table: IrrepTable
    boundary: BoundaryMap
    threshold: float = DEFAULT_THRESHOLD

    @classmethod
    def build(cls, gog: GraphOfGroups, p: float, seed: int = 0,
              threshold: float = DEFAULT_THRESHOLD) -> "CorrectionContext":
        if not p >= 1.0:
            raise ValidationError(f"Schatten exponent must be >= 1, got {p}")
        vertex_tables = tuple(irrep_table(g, seed=derived_generator(seed, 0, v))
                              for v, g in enumerate(gog.vertex_groups))
        edge_tables = tuple(irrep_table(g, seed=derived_generator(seed, 1, k))
                            for k, g in enumerate(gog.edge_groups))
        trivial_table = irrep_table(cyclic_group(1), seed=0)
        bmap = boundary_map(gog, vertex_tables, edge_tables)
        return cls(gog=gog, tree=spanning_tree(gog.graph), p=float(p),
                   vertex_tables=vertex_tables, edge_tables=edge_tables,
                   trivial_table=trivial_table, boundary=bmap, threshold=threshold)


@dataclass(frozen=True)
class StabilizationReport:
    """Measured quantities from one correction run."""

    p: float
    dim: int
    delta: float                      # input defect
    epsilon: float                    # generator distance input -> output
    output_defect: float
    cone_gap: Fraction                # ||lambda_in - lambda_out||_V
    lambda_in: MultiplicityVector
    lambda_out: MultiplicityVector
    hypothesis_ok: bool               # cone gap within delta^p * dim
    timings_ms: dict


def uniform_lambda(ctx: CorrectionContext, dim: int) -> MultiplicityVector:
    """Kernel-cone vector of a given dimension: regular copies plus trivial padding.

    Per vertex: floor(dim/|G|) copies of the regular multiplicities (every
    irreducible with multiplicity its dimension) topped up with trivial
    summands. Verified to lie in the kernel; for graphs where this recipe
    falls outside supply an explicit vector instead.
    """
    if dim <= 0:
        raise ValidationError("dimension must be positive")
    blocks = []
    for table in ctx.vertex_tables:
        order = table.group.order
        q, r = divmod(dim, order)
        block = [q * int(d) for d in table.dims]
        block[table.trivial_index] += r
        blocks.append(tuple(block))
    lam = MultiplicityVector("vertex", tuple(blocks))
    if not ctx.boundary.apply(lam).is_zero():
        raise ValidationError(
            "the uniform recipe does not land in the kernel for this graph; "
            "pass an explicit multiplicity vector")
    return lam


def replace_summands(rho: UnitaryRep, target, table: IrrepTable, rng=None) -> UnitaryRep:
    """Representation with the target multiplicities sharing rho's common part.

    Keeps a rho-invariant subspace carrying the coordinatewise minimum of
    the two multiplicity vectors (first components in decomposition order
    within each isotypic block) and fills the orthogonal complement with
    canonical blocks realizing the remainder of the target.
    """
    rng = as_generator(rng)
    target = np.asarray(target, dtype=int)
    lam = multiplicities(rho, table)
    if int(target @ table.dims) != rho.dim:
        raise ValidationError("target multiplicities do not match the dimension")
    if np.array_equal(lam, target):
        return rho
    common = np.minimum(lam, target)
    kept = []
    if common.sum() > 0:
        buckets: dict[int, list] = {}
        for comp in irreducible_components(rho, rng):
            buckets.setdefault(table.match_character(comp.character), []).append(comp)
        for k in range(len(table)):
            have = buckets.get(k, [])
            if len(have) != lam[k]:
                raise NumericalError(
                    f"decomposition found {len(have)} components of irrep {k}, expected {lam[k]}")
            kept.extend(c.basis for c in have[:int(common[k])])
    q1 = np.hstack(kept) if kept else np.zeros((rho.dim, 0), dtype=complex)
    q2 = complement(q1, rho.dim)
    mats = np.zeros_like(rho.matrices)
    if q1.shape[1] > 0:
        mats += q1 @ compress(rho.matrices, q1) @ q1.conj().T
    fresh = target - common
    if fresh.sum() > 0:
        sigma = rep_from_multiplicities(table, fresh)
        if sigma.dim != q2.shape[1]:
            raise NumericalError("complement dimension does not match the replacement block")
        mats += q2 @ sigma.matrices @ q2.conj().T
    return unitary_rep(rho.group, mats, check=True)


def correct_vertex(hom: GroupHom, tau: UnitaryRep, rho: UnitaryRep, target,
                   table_sub: IrrepTable, table: IrrepTable, p: float,
                   rng=None, threshold: float = DEFAULT_THRESHOLD,
                   delta_hint: float | None = None) -> UnitaryRep:
    """Correct one vertex representation against an edge constraint.

    Returns a representation with the target multiplicities whose pullback
    along `hom` equals `tau` exactly: the summands of `rho` outside the
    common part are replaced, then the whole space is conjugated by a
    unitary intertwiner matching the pullback to `tau`. The distance moved
    is of the order of max(d(pullback(rho), tau), replaced fraction^(1/p)).
    """
    rng = as_generator(rng)
    target = np.asarray(target, dtype=int)
    tau_mults = multiplicities(tau, table_sub)
    restricted = restriction_matrix(hom, table_sub, table) @ target
    if not np.array_equal(restricted, tau_mults):
        raise IsomorphyError(
            "target multiplicities restrict to "
            f"{restricted.tolist()}, but the constraint representation has {tau_mults.tolist()}",
            left=restricted, right=tau_mults)

    measured = rep_distance(pullback(hom, rho), tau, p)
    allowance = max(measured, delta_hint or 0.0)
    lam = multiplicities(rho, table)
    gap = int(np.abs(lam - target) @ table.dims)
    if gap > 0 and gap > (allowance ** p) * rho.dim:
        warnings.warn(
            f"multiplicity gap {gap} exceeds delta^p * dim = {(allowance ** p) * rho.dim:.3g}; "
            "correction runs but the distance bound is not guaranteed", stacklevel=2)
    if delta_hint is not None and measured > delta_hint + 1e-12:
        warnings.warn(f"measured edge distance {measured:.3e} exceeds the hint {delta_hint:.3e}",
                      stacklevel=2)

    rho1 = replace_summands(rho, target, table, rng)
    t = unitary_intertwiner(tau, pullback(hom, rho1), p, table=table_sub,
                            rng=rng, threshold=threshold)
    rho_out = conjugate_rep(rho1, t.conj().T)
    err = np.abs(pullback(hom, rho_out).matrices - tau.matrices).max()
    if err > 1e-8:
        raise NumericalError(f"corrected vertex fails the edge constraint (deviation {err:.3e})")
    return rho_out


def realize(lam: MultiplicityVector, ctx: CorrectionContext, seed=0) -> AlmostRep:
    """Exact representation with the given kernel-cone multiplicity vector.

    Induction over the spanning tree: fix a canonical representation at the
    root, then conjugate a fresh canonical representation at each child so
    that the two edge-group restrictions across the tree edge agree exactly.
    Tree stable letters are the identity; the remaining stable letters are
    unitary intertwiners between the two restrictions across their edge.
    """
    ctx.boundary._require(lam, "vertex")
    if not lam.is_nonnegative():
        raise ValidationError("multiplicity vector must be nonnegative")
    if not ctx.boundary.apply(lam).is_zero():
        raise ValidationError("multiplicity vector is not in the kernel of the boundary map")
    norm = ctx.boundary.vertex_norm(lam)
    if norm.denominator != 1 or norm <= 0:
        raise ValidationError("kernel vector must have positive integer norm")
    dim = int(norm)
    rng = as_generator(seed)
    graph = ctx.gog.graph

    reps: dict[int, UnitaryRep] = {
        ctx.tree.root: rep_from_multiplicities(ctx.vertex_tables[ctx.tree.root],
                                               lam.blocks[ctx.tree.root])}
    for step in ctx.tree.steps:
        k = step.edge_to_parent // 2
        into_parent = ctx.gog.injection(step.edge_to_parent)
        into_child = ctx.gog.injection(graph.opposite(step.edge_to_parent))
        fresh = rep_from_multiplicities(ctx.vertex_tables[step.child], lam.blocks[step.child])
        s = unitary_intertwiner(pullback(into_child, fresh),
                                pullback(into_parent, reps[step.parent]),
                                ctx.p, table=ctx.edge_tables[k], rng=rng,
                                threshold=ctx.threshold, warn_far=False)
        reps[step.child] = conjugate_rep(fresh, s)

    edges = []
    eye = np.eye(dim, dtype=complex)
    for k in range(graph.n_geometric_edges):
        if k in ctx.tree.geometric_edges:
            edges.append(eye)
            continue
        e = 2 * k
        into_t = ctx.gog.injection(e)
        into_o = ctx.gog.injection(graph.opposite(e))
        u = unitary_intertwiner(pullback(into_o, reps[graph.origin(e)]),
                                pullback(into_t, reps[graph.terminus(e)]),
                                ctx.p, table=ctx.edge_tables[k], rng=rng,
                                threshold=ctx.threshold, warn_far=False)
        edges.append(u)
    return almost_rep(ctx.gog, tuple(reps[v] for v in range(graph.n_vertices)), edges,
                      check=False)


def stabilize(rho: AlmostRep, ctx: CorrectionContext, seed=0,
              guard: float = DEFAULT_GUARD) -> tuple[AlmostRep, StabilizationReport]:
    """Correct an almost-representation to an exact one, with a report.

    Refuses when the measured defect reaches `guard` (the correction bounds
    are vacuous for large defects; raise the guard to experiment anyway).
    """
    rng = as_generator(seed)
    graph = ctx.gog.graph
    dim = rho.dim
    timings: dict[str, float] = {}

    tic = time.perf_counter()
    delta = measure_defect(rho, ctx.gog, ctx.p, ctx.tree)
    timings["measure_defect"] = (time.perf_counter() - tic) * 1e3
    if delta >= guard:
        raise GuardExceededError(
            f"measured defect {delta:.4g} is not below the guard {guard:.4g}",
            measured=delta, guard=guard)

    tic = time.perf_counter()
    with _stage("cone_projection"):
        lam = rep_multiplicities(rho, ctx.vertex_tables)
        lam_kernel = project_to_kernel_cone(lam, ctx.boundary)
        lam_out = pad_with_trivial(lam_kernel, dim, ctx.boundary)
    cone_gap = ctx.boundary.vertex_norm(lam - lam_out)
    timings["cone_projection"] = (time.perf_counter() - tic) * 1e3
    hypothesis_ok = float(cone_gap) <= (delta ** ctx.p) * dim

    # per-vertex allowance: the vector-norm hypothesis concentrates on a
    # vertex with a factor of the vertex count
    hint = delta * graph.n_vertices ** (1.0 / ctx.p)

    tic = time.perf_counter()
    with _stage("vertex_corrections"):
        trivial_group = ctx.trivial_table.group
        tau0 = unitary_rep(trivial_group, np.eye(dim, dtype=complex)[None], check=False)
        root = ctx.tree.root
        new_reps: dict[int, UnitaryRep] = {
            root: correct_vertex(trivial_embedding(ctx.gog.vertex_groups[root], trivial_group),
                                 tau0, rho.vertex_reps[root], lam_out.blocks[root],
                                 ctx.trivial_table, ctx.vertex_tables[root], ctx.p,
                                 rng=rng, threshold=ctx.threshold, delta_hint=hint)}
        for step in ctx.tree.steps:
            k = step.edge_to_parent // 2
            into_parent = ctx.gog.injection(step.edge_to_parent)
            into_child = ctx.gog.injection(graph.opposite(step.edge_to_parent))
            tau = pullback(into_parent, new_reps[step.parent])
            new_reps[step.child] = correct_vertex(
                into_child, tau, rho.vertex_reps[step.child], lam_out.blocks[step.child],
                ctx.edge_tables[k], ctx.vertex_tables[step.child], ctx.p,
                rng=rng, threshold=ctx.threshold, delta_hint=hint)
    timings["vertex_corrections"] = (time.perf_counter() - tic) * 1e3

    tic = time.perf_counter()
    edges = []
    eye = np.eye(dim, dtype=complex)
    with _stage("edge_corrections"):
        for k in range(graph.n_geometric_edges):
            if k in ctx.tree.geometric_edges:
                edges.append(eye)
                continue
            e = 2 * k
            into_t = ctx.gog.injection(e)
            into_o = ctx.gog.injection(graph.opposite(e))
            s = rho.edge_unitaries[k]
            pulled = pullback(into_o, new_reps[graph.origin(e)])
            conjugated = unitary_rep(pulled.group,
                                     np.matmul(np.matmul(s, pulled.matrices), s.conj().T),
                                     check=False)
            t = unitary_intertwiner(conjugated, pullback(into_t, new_reps[graph.terminus(e)]),
                                    ctx.p, table=ctx.edge_tables[k], rng=rng,
                                    threshold=ctx.threshold)
            edges.append(t @ s)
    timings["edge_corrections"] = (time.perf_counter() - tic) * 1e3

    out = almost_rep(ctx.gog, tuple(new_reps[v] for v in range(graph.n_vertices)),
                     edges, check=False)
    tic = time.perf_counter()
    output_defect = measure_defect(out, ctx.gog, ctx.p, ctx.tree)
    epsilon = generator_distance(rho, out, ctx.p)
    timings["verification"] = (time.perf_counter() - tic) * 1e3

    report = StabilizationReport(p=ctx.p, dim=dim, delta=delta, epsilon=epsilon,
                                 output_defect=output_defect, cone_gap=cone_gap,
                                 lambda_in=lam, lambda_out=lam_out,
                                 hypothesis_ok=hypothesis_ok, timings_ms=timings)
    return out, report


def boundary_defect_bound(rho: AlmostRep, ctx: CorrectionContext) -> tuple[float, float]:
    """Edge norm of the boundary of the multiplicity vector, and its bound.

    The bound is (2*delta)^p * dim with delta the measured defect: across
    any edge the two restrictions share invariant subspaces of codimension
    at most (2*delta)^p * dim, so the boundary blocks are at most that large.
    """
    lam = rep_multiplicities(rho, ctx.vertex_tables)
    lhs = float(ctx.boundary.edge_norm(ctx.boundary.apply(lam)))
    delta = measure_defect(rho, ctx.gog, ctx.p, ctx.tree)
    rhs = (2.0 * delta) ** ctx.p * rho.dim
    return lhs, rhs
