"""Graphs of groups beyond the presets, and the inputs built on them.

The graph recipes match the ones the repository's rich-graph and
integration tests use; they are restated here so that the benchmark never
imports the test suite.
"""

from __future__ import annotations

import numpy as np

import repstab as rs
from repstab.rng import random_unitary


def s3_twisted_amalgam() -> rs.GraphOfGroups:
    """Two S3 vertices glued over S3, one inclusion twisted by a transposition.

    The boundary map vanishes, but the two pullbacks across the edge differ
    as matrix representations, so `realize` must match large complements.
    """
    s3 = rs.symmetric_group(3)
    g0 = 1  # a transposition
    twist = [int(s3.mult[s3.mult[g0, x], s3.inv[g0]]) for x in range(6)]
    return rs.graph_of_groups(rs.serre_graph(2, [(0, 1)]), [s3, s3], [s3],
                              [list(range(6)), twist], name="s3_twisted_amalgam")


def z4_chain() -> rs.GraphOfGroups:
    """Three Z4 vertices in a chain, amalgamated over Z2 at both steps."""
    z4, z2 = rs.cyclic_group(4), rs.cyclic_group(2)
    onto = [0, 2]
    return rs.graph_of_groups(rs.serre_graph(3, [(0, 1), (1, 2)]), [z4, z4, z4],
                              [z2, z2], [onto] * 4, name="z4_chain")


def double_loop() -> rs.GraphOfGroups:
    """One Z4 vertex with two Z2 loops."""
    z4, z2 = rs.cyclic_group(4), rs.cyclic_group(2)
    onto = [0, 2]
    return rs.graph_of_groups(rs.serre_graph(1, [(0, 0), (0, 0)]), [z4], [z2, z2],
                              [onto] * 4, name="double_loop")


def twisted_hnn() -> rs.GraphOfGroups:
    """One V4 vertex with a Z2 loop included as two different subgroups."""
    v4, z2 = rs.klein_four_group(), rs.cyclic_group(2)
    return rs.graph_of_groups(rs.serre_graph(1, [(0, 0)]), [v4], [z2],
                              [[0, 1], [0, 2]], name="twisted_hnn")


def z2_amalgam() -> rs.GraphOfGroups:
    """Two Z2 vertices over a Z2 edge with identity inclusions."""
    z2 = rs.cyclic_group(2)
    return rs.graph_of_groups(rs.serre_graph(2, [(0, 1)]), [z2, z2], [z2],
                              [[0, 1], [0, 1]], name="z2_amalgam")


def s3_lambda(dim: int, rng) -> rs.MultiplicityVector:
    """Equal blocks on both S3 vertices, a third of the dimension per copy of
    the 2-dimensional irreducible; the seed splits the rest between the two
    characters. Inner twists preserve characters, so this is in the kernel."""
    two_dim = dim // 3
    rest = dim - 2 * two_dim
    a = int(rng.integers(1, rest))
    block = (a, rest - a, two_dim)
    return rs.MultiplicityVector("vertex", (block, block))


def random_kernel_vector(bmap: rs.BoundaryMap, dim: int, rng,
                         batch: int = 4096) -> rs.MultiplicityVector:
    """Uniform random per-vertex compositions of `dim`, rejected until the
    boundary vanishes. Every vertex irreducible must be 1-dimensional."""
    if any(d != 1 for dims in bmap.vertex_dims for d in dims):
        raise ValueError("rejection sampling assumes 1-dimensional irreducibles")
    a = bmap.matrix
    while True:
        parts = []
        for length in bmap.vertex_block_lengths:
            cuts = np.sort(rng.integers(0, dim + 1, size=(batch, length - 1)), axis=1)
            edges = np.hstack([np.zeros((batch, 1), int), cuts, np.full((batch, 1), dim)])
            parts.append(np.diff(edges, axis=1))
        x = np.hstack(parts)
        hits = np.flatnonzero(~np.any(x @ a.T, axis=1))
        if hits.size:
            return rs.MultiplicityVector.from_flat("vertex", x[hits[0]].tolist(),
                                                   bmap.vertex_block_lengths)


def conjugated(rho: rs.AlmostRep, gog: rs.GraphOfGroups, rng) -> rs.AlmostRep:
    """The same almost-representation in a Haar-random basis: defect and
    multiplicities are unchanged, but no summand is axis-aligned."""
    w = random_unitary(rho.dim, rng)
    return rs.almost_rep(gog, [rs.conjugate_rep(r, w) for r in rho.vertex_reps],
                         [w @ u @ w.conj().T for u in rho.edge_unitaries], check=False)


def amalgam_imbalance(ctx: rs.CorrectionContext, imbalance: int, dim: int) -> rs.AlmostRep:
    """Z2 amalgam with vertex blocks (h + i, h - i) and (h, h) and an identity
    stable letter: the vertex multiplicities sit off the kernel cone."""
    half = dim // 2
    r0 = rs.rep_from_multiplicities(ctx.vertex_tables[0], (half + imbalance, half - imbalance))
    r1 = rs.rep_from_multiplicities(ctx.vertex_tables[1], (half, half))
    return rs.almost_rep(ctx.gog, [r0, r1], [np.eye(dim)], check=False)


def hnn_skew(ctx: rs.CorrectionContext, block: tuple[int, int, int]) -> rs.AlmostRep:
    """Twisted HNN with one summand swapped off the kernel cone.

    Realizes the kernel vector (a, b, b, d), whose root representation is
    canonical and block-diagonal, then replaces one copy of the third
    irreducible by the second and keeps the realized stable letter: every
    relator holds except on the swapped line.
    """
    a, b, d = block
    exact = rs.realize(rs.MultiplicityVector("vertex", ((a, b, b, d),)), ctx, seed=0)
    skew = rs.rep_from_multiplicities(ctx.vertex_tables[0], (a, b + 1, b - 1, d))
    return rs.almost_rep(ctx.gog, [skew], exact.edge_unitaries, check=False)


def enumerate_cone(bmap: rs.BoundaryMap, total: int) -> np.ndarray:
    """All nonnegative integer vectors of weighted size at most `total`."""
    w = bmap.vertex_weights
    axes = [np.arange(total // int(wi) + 1) for wi in w]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(w))
    return grid[grid @ w <= total]
