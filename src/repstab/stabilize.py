"""Correction of almost-representations of a graph-of-groups cover.

The pipeline: measure the defect, read off the per-vertex multiplicity
vector, project it onto the kernel cone of the boundary map, pad with
trivial summands back to the input dimension, then rebuild exact vertex
representations by induction over a spanning tree (the root swaps only the
summands whose multiplicities change, and each child, by `correct_vertex`,
swaps its summands too and is corrected against the edge restriction of its
already-corrected parent; across a trivial edge group that restriction
constrains nothing) and solve the stable-letter unitaries on the remaining
edges. The output is an exact representation whose generator distance to
the input is of the order of the input defect. `realize` is the same tree
walk and the same letters, started from the canonical representations of a
kernel-cone vector with no input letters and no Schatten exponent, so it
builds the same representation at every exponent.
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
from .irreps import (INTERTWINE_ATOL, IrrepTable, UnitaryRep, _column_blocks, _isotypic_frame,
                     _synthesize, conjugate_rep, irrep_table, pullback, rep_from_multiplicities,
                     restriction_matrix, unitary_rep)
from .intertwiners import _polar_letter, unitary_intertwiner
from .rng import derived_generator
from .schatten import BOUND_RTOL, _check_exponent

DEFAULT_GUARD = 0.2


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
    hypothesis_ok: bool               # cone gap within delta^p * dim (1 + BOUND_RTOL)
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
    the isotypic frame of rho, which a frameless rho is decomposed and
    checked for) and fills the dropped copies with canonical blocks
    realizing the remainder of the target. The result is synthesized from
    the frame it is built in, the kept and filled copies of each irreducible
    side by side (`irreps._synthesize`), and carries it.
    """
    target = np.asarray(target, dtype=int)
    if int(target @ table.dims) != rho.dim:
        raise ValidationError("target multiplicities do not match the dimension")
    frame = _isotypic_frame(rho, table)
    lam = frame.mults
    if np.array_equal(lam, target):
        return rho
    common = np.minimum(lam, target)
    bases = _column_blocks(frame.basis, lam * table.dims)
    kept = [b[:, :c] for b, c in zip(bases, common * table.dims)]
    dropped = np.hstack([b[:, c:] for b, c in zip(bases, common * table.dims)])
    fill = _column_blocks(dropped, (target - common) * table.dims)
    out = _synthesize(table, target, np.hstack([b for pair in zip(kept, fill) for b in pair]))
    unitary_rep(rho.group, out.matrices)   # ValidationError unless exact
    return out


def correct_vertex(hom: GroupHom, tau: UnitaryRep, rho: UnitaryRep, target,
                   table_sub: IrrepTable, table: IrrepTable, p: float | None) -> UnitaryRep:
    """Correct one vertex representation against an edge constraint: the
    step of each child of the tree walk.

    Checks that the target restricts to the multiplicities of `tau`, read
    off its isotypic frame, then returns `rho` with the target multiplicities
    (`replace_summands`), conjugated by the unitary intertwiner from its
    pullback along `hom` to `tau` (none across a trivial edge group, which
    constrains nothing), and checked to pull back to `tau` on the edge
    group's generators to INTERTWINE_ATOL. Given `p`, the intertwiner warns
    when the two restrictions are far apart; `realize` passes None. The
    distance moved is of the order of max(d(pullback(rho), tau), replaced
    fraction^(1/p)).
    """
    if tau.group is not table_sub.group:
        raise ValidationError("representation and table belong to different groups")
    tau_mults = _isotypic_frame(tau, table_sub).mults
    restricted = restriction_matrix(hom, table_sub, table) @ target
    if not np.array_equal(restricted, tau_mults):
        raise IsomorphyError(
            "target multiplicities restrict to "
            f"{restricted.tolist()}, but the constraint representation has {tau_mults.tolist()}",
            left=restricted, right=tau_mults)
    rho = replace_summands(rho, target, table)
    if tau.group.order > 1:
        rho = conjugate_rep(rho, unitary_intertwiner(pullback(hom, rho), tau, p, table=table_sub))
    gens = tau.group.generators
    err = np.abs(rho.matrices[hom.map[gens]] - tau.matrices[gens]).max(initial=0.0)
    if err > INTERTWINE_ATOL:
        raise NumericalError(f"corrected vertex fails the edge constraint (deviation {err:.3e})")
    return rho


def _walk_tree(ctx: CorrectionContext, vertex_reps, blocks,
               p: float | None) -> tuple[UnitaryRep, ...]:
    """Vertex representations with the multiplicities `blocks`, by induction
    over the spanning tree from `vertex_reps`: the root swaps summands, and
    each child, in tree order, is corrected (`correct_vertex`) against the
    restriction of its already-corrected parent to its tree edge's group.
    The blocks lie in the kernel cone, so every restriction matches."""
    graph = ctx.gog.graph
    root = graph.tree.root
    reps = {root: replace_summands(vertex_reps[root], blocks[root], ctx.vertex_tables[root])}
    for step in graph.tree.steps:
        edge = step.edge_to_parent
        tau = pullback(ctx.gog.injections[edge], reps[step.parent])
        reps[step.child] = correct_vertex(
            ctx.gog.injections[graph.opposite(edge)], tau, vertex_reps[step.child],
            blocks[step.child], ctx.edge_tables[edge // 2], ctx.vertex_tables[step.child], p)
    return tuple(reps[v] for v in range(graph.n_vertices))


def _stable_letters(ctx: CorrectionContext, reps, letters, edge_norms) -> list[np.ndarray]:
    """Stable-letter unitaries: the identity on tree edges, and on every other
    geometric edge k the polar factor of F(s) = mean_h b(h) s a(h)^H
    (`_polar_letter`), a and b the restrictions of the origin and terminus
    representations to the edge group and s the letter `letters[k]`, or I
    without letters. Given the conjugation-relator norms of each edge,
    `edge_norms[k]`, the letter warns when their largest reaches
    FAR_DISTANCE."""
    graph = ctx.gog.graph
    eye = np.eye(reps[0].dim, dtype=complex)
    edges = []
    for k, (o, t) in enumerate(graph.endpoints):
        if k in graph.tree.geometric_edges:
            edges.append(eye)
            continue
        edges.append(_polar_letter(
            pullback(ctx.gog.injections[2 * k + 1], reps[o]),
            pullback(ctx.gog.injections[2 * k], reps[t]), ctx.edge_tables[k],
            None if letters is None else letters[k],
            far=None if edge_norms is None else (lambda: edge_norms[k].max(initial=0.0))))
    return edges


def realize(lam: MultiplicityVector, ctx: CorrectionContext, seed=0) -> AlmostRep:
    """Exact representation with the given kernel-cone multiplicity vector.

    The tree walk and letters of `stabilize`, from the canonical
    representations of `lam` and with no letters: each child is conjugated
    so that the two edge-group restrictions across its tree edge agree
    exactly, and each non-tree letter is the unitary intertwiner between
    the two restrictions across its edge. No Schatten exponent is read, so
    nothing warns and the output is the same at every p. No random number
    is drawn: `seed` has no effect on the output.
    """
    if ctx.boundary.kernel_norm(lam) <= 0:
        raise ValidationError("kernel cone vector must have positive norm")
    canonical = [rep_from_multiplicities(table, block)
                 for table, block in zip(ctx.vertex_tables, lam.blocks)]
    reps = _walk_tree(ctx, canonical, lam.blocks, None)
    return almost_rep(ctx.gog, reps, _stable_letters(ctx, reps, None, None), check=False)


def stabilize(rho: AlmostRep, ctx: CorrectionContext, seed=0,
              guard: float = DEFAULT_GUARD) -> tuple[AlmostRep, StabilizationReport]:
    """Correct an almost-representation to an exact one, with a report.

    Refuses when the measured defect reaches `guard` (the correction bounds
    are vacuous for large defects; raise the guard to experiment anyway).
    A NaN guard, which no defect reaches, is rejected. No random number is
    drawn: `seed` has no effect on the output.

    A vertex warns when its multiplicity gap, the dimension-weighted l1
    distance between its input and output blocks, exceeds
    (delta * n^(1/p))^p * dim for n vertices by more than the relative
    slack `schatten.BOUND_RTOL`: the correction still runs, but
    `hypothesis_ok`, the cone gap within delta^p * dim by the same slack, is
    then False.

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
    # a gap can equal its bound in exact arithmetic (at p = 1 a swapped line
    # gives its relator one singular value 2), so the last bit of delta must
    # not decide it: both bounds take a relative slack of BOUND_RTOL
    hypothesis_ok = float(cone_gap) <= (delta ** ctx.p) * dim * (1.0 + BOUND_RTOL)
    # per-vertex allowance: the vector-norm hypothesis concentrates on a
    # vertex with a factor of the vertex count
    allowance = (delta * ctx.gog.graph.n_vertices ** (1.0 / ctx.p)) ** ctx.p * dim
    allowance *= 1.0 + BOUND_RTOL
    for before, after, table in zip(lam.blocks, lam_out.blocks, ctx.vertex_tables):
        gap = int(np.abs(np.subtract(before, after)) @ table.dims)
        if gap > allowance:
            warnings.warn(f"multiplicity gap {gap} exceeds delta^p * dim = {allowance:.3g}; "
                          "correction runs but the distance bound is not guaranteed",
                          stacklevel=2)

    with _stage("vertex_corrections", timings):
        new_reps = _walk_tree(ctx, rho.vertex_reps, lam_out.blocks, ctx.p)

    with _stage("edge_corrections", timings):
        edges = _stable_letters(ctx, new_reps, rho.edge_unitaries, edge_norms)

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
