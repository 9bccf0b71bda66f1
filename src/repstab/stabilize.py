"""Correction of almost-representations of a graph-of-groups cover.

The pipeline: measure the defect, read off the per-vertex multiplicity
vector, project it onto the kernel cone of the boundary map, pad with
trivial summands back to the input dimension, then rebuild exact vertex
representations by induction over a spanning tree (the root swaps only the
summands whose multiplicities change, each child is corrected against the
edge restriction of its already-corrected parent; across a trivial edge group
that restriction constrains nothing and the child only swaps summands) and
solve the stable-letter unitaries on the remaining edges. The output is an
exact representation whose generator distance to the input is of the order
of the input defect. Of the two tree walks only `stabilize` reads the
Schatten exponent of its context; `realize` builds the same representation
at every exponent.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cones import (BoundaryMap, MultiplicityVector, pad_with_trivial,
                    project_to_kernel_cone)
from .errors import (GuardExceededError, IsomorphyError, NumericalError,
                     ValidationError)
from .graphs import (AlmostRep, GraphOfGroups, _relator_norms, almost_rep, boundary_map,
                     generator_distance, measure_defect, rep_multiplicities)
from .groups import GroupHom
from .irreps import (IrrepTable, UnitaryRep, _column_blocks, _isotypic_frame, conjugate_rep,
                     irrep_table, multiplicities, pullback, rep_from_multiplicities,
                     restriction_matrix, unitary_rep)
from .intertwiners import INTERTWINE_ATOL, _polar_letter, unitary_intertwiner
from .rng import derived_generator
from .schatten import _check_exponent, _distance_or_bound

DEFAULT_GUARD = 0.2
HINT_SLACK = 1e-12  # how far a measured edge distance may exceed delta_hint unwarned


@contextmanager
def _stage(name: str, timings: dict):
    """Time a pipeline stage into `timings[name]` (ms) and tag its numerical
    failures with the stage name."""
    tic = time.perf_counter()
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc
    timings[name] = (time.perf_counter() - tic) * 1e3


@dataclass(frozen=True, eq=False)
class CorrectionContext:
    """Precomputed tables and boundary map for one graph of groups."""

    gog: GraphOfGroups
    p: float
    vertex_tables: tuple[IrrepTable, ...]
    edge_tables: tuple[IrrepTable, ...]
    boundary: BoundaryMap

    @classmethod
    def build(cls, gog: GraphOfGroups, p: float, seed: int = 0) -> "CorrectionContext":
        p = _check_exponent(p)
        vertex_tables = tuple(irrep_table(g, seed=derived_generator(seed, 0, v))
                              for v, g in enumerate(gog.vertex_groups))
        edge_tables = tuple(irrep_table(g, seed=derived_generator(seed, 1, k))
                            for k, g in enumerate(gog.edge_groups))
        return cls(gog=gog, p=p, vertex_tables=vertex_tables, edge_tables=edge_tables,
                   boundary=boundary_map(gog, vertex_tables, edge_tables))


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


def replace_summands(rho: UnitaryRep, target, table: IrrepTable) -> UnitaryRep:
    """Representation with the target multiplicities sharing rho's common part.

    Keeps the rho-invariant subspace carrying the coordinatewise minimum of
    the two multiplicity vectors (the first copies of each irreducible in
    the isotypic frame of rho) and fills the dropped copies with canonical
    blocks realizing the remainder of the target. The result carries the
    frame it is built in.
    """
    target = np.asarray(target, dtype=int)
    lam = multiplicities(rho, table)
    if int(target @ table.dims) != rho.dim:
        raise ValidationError("target multiplicities do not match the dimension")
    if np.array_equal(lam, target):
        return rho
    common = np.minimum(lam, target)
    bases = _column_blocks(_isotypic_frame(rho, table).basis, lam * table.dims)
    kept = [b[:, :c] for b, c in zip(bases, common * table.dims)]
    dropped = np.hstack([b[:, c:] for b, c in zip(bases, common * table.dims)])
    fill = _column_blocks(dropped, (target - common) * table.dims)
    out = conjugate_rep(rep_from_multiplicities(table, target),
                        np.hstack([b for pair in zip(kept, fill) for b in pair]))
    unitary_rep(rho.group, out.matrices)   # ValidationError unless exact
    return out


def _warn_gap(rho: UnitaryRep, target, table: IrrepTable, allowance: float, p: float):
    """Warn when the summands swapped to reach `target` exceed allowance^p * dim."""
    gap = int(np.abs(multiplicities(rho, table) - target) @ table.dims)
    if gap > 0 and gap > (allowance ** p) * rho.dim:
        warnings.warn(
            f"multiplicity gap {gap} exceeds delta^p * dim = {(allowance ** p) * rho.dim:.3g}; "
            "correction runs but the distance bound is not guaranteed", stacklevel=3)


def correct_vertex(hom: GroupHom, tau: UnitaryRep, rho: UnitaryRep, target,
                   table_sub: IrrepTable, table: IrrepTable, p: float,
                   delta_hint: float | None = None) -> UnitaryRep:
    """Correct one vertex representation against an edge constraint.

    Returns a representation with the target multiplicities whose pullback
    along `hom` equals `tau` exactly: the summands of `rho` outside the
    common part are replaced, then the whole space is conjugated by a
    unitary intertwiner matching the pullback to `tau`. Over a trivial edge
    group the constraint is empty: nothing is measured and the conjugation
    is skipped, so the hint warning cannot fire there and the allowance of
    the multiplicity-gap warning is `delta_hint`. Elsewhere the distance is
    bounded first, by `schatten._distance_or_bound`. The distance moved is of
    the order of max(d(pullback(rho), tau), replaced fraction^(1/p)).
    """
    target = np.asarray(target, dtype=int)
    tau_mults = multiplicities(tau, table_sub)
    restricted = restriction_matrix(hom, table_sub, table) @ target
    if not np.array_equal(restricted, tau_mults):
        raise IsomorphyError(
            "target multiplicities restrict to "
            f"{restricted.tolist()}, but the constraint representation has {tau_mults.tolist()}",
            left=restricted, right=tau_mults)

    trivial_edge = tau.group.order == 1
    measured = 0.0 if trivial_edge else _distance_or_bound(pullback(hom, rho), tau, p,
                                                           delta_hint or 0.0)
    _warn_gap(rho, target, table, max(measured, delta_hint or 0.0), p)
    if delta_hint is not None and measured > delta_hint + HINT_SLACK:
        warnings.warn(f"measured edge distance {measured:.3e} exceeds the hint {delta_hint:.3e}",
                      stacklevel=2)

    rho_out = replace_summands(rho, target, table)
    if not trivial_edge:
        t = unitary_intertwiner(tau, pullback(hom, rho_out), p, table=table_sub)
        rho_out = conjugate_rep(rho_out, t.conj().T)
    err = np.abs(pullback(hom, rho_out).matrices - tau.matrices).max()
    if err > INTERTWINE_ATOL:
        raise NumericalError(f"corrected vertex fails the edge constraint (deviation {err:.3e})")
    return rho_out


def _walk_tree(ctx: CorrectionContext, root_rep: UnitaryRep, fit_child) -> tuple[UnitaryRep, ...]:
    """Vertex representations by induction over the spanning tree.

    The root gets `root_rep`; each child, in tree order, gets
    `fit_child(child, into_child, tau, edge_table)`, which must pull back
    along `into_child` to `tau`, the restriction of the already-fitted
    parent to the group of the tree edge between them.
    """
    graph = ctx.gog.graph
    reps = {graph.tree.root: root_rep}
    for step in graph.tree.steps:
        into_parent = ctx.gog.injections[step.edge_to_parent]
        into_child = ctx.gog.injections[graph.opposite(step.edge_to_parent)]
        reps[step.child] = fit_child(step.child, into_child,
                                     pullback(into_parent, reps[step.parent]),
                                     ctx.edge_tables[step.edge_to_parent // 2])
    return tuple(reps[v] for v in range(graph.n_vertices))


def _stable_letters(ctx: CorrectionContext, reps, fit_edge) -> list[np.ndarray]:
    """Stable-letter unitaries: the identity on tree edges, and on every other
    geometric edge k, `fit_edge(k, origin, terminus)` from the restrictions
    of the origin and terminus representations to the edge group."""
    graph = ctx.gog.graph
    eye = np.eye(reps[0].dim, dtype=complex)
    edges = []
    for k, (o, t) in enumerate(graph.endpoints):
        if k in graph.tree.geometric_edges:
            edges.append(eye)
            continue
        origin = pullback(ctx.gog.injections[2 * k + 1], reps[o])
        terminus = pullback(ctx.gog.injections[2 * k], reps[t])
        edges.append(fit_edge(k, origin, terminus))
    return edges


def realize(lam: MultiplicityVector, ctx: CorrectionContext, seed=0) -> AlmostRep:
    """Exact representation with the given kernel-cone multiplicity vector.

    Induction over the spanning tree: fix a canonical representation at the
    root, then conjugate a fresh canonical representation at each child so
    that the two edge-group restrictions across the tree edge agree exactly.
    Tree stable letters are the identity; the remaining stable letters are
    unitary intertwiners between the two restrictions across their edge.
    No random number is drawn: `seed` has no effect on the output.
    """
    if ctx.boundary.kernel_norm(lam) <= 0:
        raise ValidationError("kernel cone vector must have positive norm")

    def fit_child(child, into_child, tau, edge_table):
        fresh = rep_from_multiplicities(ctx.vertex_tables[child], lam.blocks[child])
        if tau.group.order == 1:  # a trivial edge group constrains nothing
            return fresh
        s = unitary_intertwiner(pullback(into_child, fresh), tau, table=edge_table)
        return conjugate_rep(fresh, s)

    def fit_edge(k, origin, terminus):
        return unitary_intertwiner(origin, terminus, table=ctx.edge_tables[k])

    root = ctx.gog.graph.tree.root
    reps = _walk_tree(ctx, rep_from_multiplicities(ctx.vertex_tables[root], lam.blocks[root]),
                      fit_child)
    return almost_rep(ctx.gog, reps, _stable_letters(ctx, reps, fit_edge), check=False)


def stabilize(rho: AlmostRep, ctx: CorrectionContext, seed=0,
              guard: float = DEFAULT_GUARD) -> tuple[AlmostRep, StabilizationReport]:
    """Correct an almost-representation to an exact one, with a report.

    Refuses when the measured defect reaches `guard` (the correction bounds
    are vacuous for large defects; raise the guard to experiment anyway).
    A NaN guard, which no defect reaches, is rejected. No random number is
    drawn: `seed` has no effect on the output.

    Each non-tree letter s becomes the polar factor of its twisted average
    F(s) = mean_h b(h) s a(h)^H over the edge group, a and b the corrected
    restrictions at its origin and terminus, read off their isotypic frames.
    The input letters are not checked to be unitary: F(c s) = c F(s), so a
    positive multiple of a unitary ends at the same letter as the unitary.
    A letter warns, as `unitary_intertwiner` does, when the largest norm of
    its edge's conjugation relators, measured in stage 1, reaches
    FAR_DISTANCE; for a unitary s that norm is the distance from
    s a(h) s^H to b(h). The distance moved takes each tree letter's norm
    from stage 1 too, since its output letter is I.
    """
    if np.isnan(guard):
        raise ValidationError("guard must not be NaN")
    dim = rho.dim
    timings: dict[str, float] = {}

    with _stage("measure_defect", timings):
        norms, edge_norms = _relator_norms(rho, ctx.gog, ctx.p)
        delta = float(norms.max(initial=0.0))
    if delta >= guard:
        raise GuardExceededError(
            f"measured defect {delta:.4g} is not below the guard {guard:.4g}",
            measured=delta, guard=guard)

    with _stage("cone_projection", timings):
        lam = rep_multiplicities(rho, ctx.vertex_tables)
        lam_kernel = project_to_kernel_cone(lam, ctx.boundary)
        lam_out = pad_with_trivial(lam_kernel, dim, ctx.boundary)
        cone_gap = ctx.boundary.vertex_norm(lam - lam_out)
    hypothesis_ok = float(cone_gap) <= (delta ** ctx.p) * dim

    # per-vertex allowance: the vector-norm hypothesis concentrates on a
    # vertex with a factor of the vertex count
    hint = delta * ctx.gog.graph.n_vertices ** (1.0 / ctx.p)

    def fit_child(child, into_child, tau, edge_table):
        return correct_vertex(into_child, tau, rho.vertex_reps[child], lam_out.blocks[child],
                              edge_table, ctx.vertex_tables[child], ctx.p, delta_hint=hint)

    def fit_edge(k, origin, terminus):
        # for a unitary s, |s a(h) s^H - b(h)|'_p is the norm of the
        # conjugation relator s^H b(h) s a(h)^-1 - I, measured in stage 1
        return _polar_letter(origin, terminus, ctx.edge_tables[k], rho.edge_unitaries[k],
                             far=lambda: edge_norms[k].max(initial=0.0))

    with _stage("vertex_corrections", timings):
        # an input vertex without a frame is decomposed here, which checks
        # that it is an exact representation
        for rep, table in zip(rho.vertex_reps, ctx.vertex_tables):
            _isotypic_frame(rep, table)
        root = ctx.gog.graph.tree.root
        at_root = (rho.vertex_reps[root], lam_out.blocks[root], ctx.vertex_tables[root])
        _warn_gap(*at_root, hint, ctx.p)
        new_reps = _walk_tree(ctx, replace_summands(*at_root), fit_child)

    with _stage("edge_corrections", timings):
        edges = _stable_letters(ctx, new_reps, fit_edge)

    out = almost_rep(ctx.gog, new_reps, edges, check=False)
    with _stage("verification", timings):
        output_defect = measure_defect(out, ctx.gog, ctx.p)
        # each output tree letter is I, so it moved by the norm of its tree
        # relator s - I from stage 1; the input with its tree letters set to
        # I differs from the output there by exact zeros, which take no kernel
        tree = ctx.gog.graph.tree.geometric_edges
        tree_set = replace(rho, edge_unitaries=tuple(
            edges[k] if k in tree else s for k, s in enumerate(rho.edge_unitaries)))
        epsilon = float(max([generator_distance(tree_set, out, ctx.p),
                             *(edge_norms[k][0] for k in tree)]))

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
    delta = measure_defect(rho, ctx.gog, ctx.p)
    rhs = (2.0 * delta) ** ctx.p * rho.dim
    return lhs, rhs
