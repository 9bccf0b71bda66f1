"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The perturbation sweep shared by several criteria
runs once per session.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import repstab as rs
from repstab.groups import trivial_embedding
from repstab.irreps import direct_sum
from repstab.presets import group_preset, group_preset_names
from repstab.rng import derived_generator, random_hermitian
from repstab.stabilize import boundary_defect_bound

from conftest import enumerate_cone, enumerate_kernel_cone, random_rep

PRESETS = ("Z2_free_Z3", "infinite_dihedral", "hnn_Z4_over_Z2")
EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
P_GRID = (1.0, 2.0, 4.0)
DIMS = (6, 12)
SEEDS = 20


@dataclass(frozen=True)
class Cell:
    preset: str
    dim: int
    eps: float
    p: float
    seed: int
    delta: float
    epsilon_out: float
    output_defect: float
    boundary_lhs: float
    boundary_rhs: float


@pytest.fixture(scope="session")
def sweep_cells():
    """Full acceptance grid: 3 presets x 2 dims x 4 eps x 3 p x 20 seeds."""
    cells = []
    contexts = {(name, p): rs.CorrectionContext.build(rs.graph_preset(name), p=p, seed=0)
                for name in PRESETS for p in P_GRID}
    tic = time.perf_counter()
    for ni, name in enumerate(PRESETS):
        for di, dim in enumerate(DIMS):
            for qi, p in enumerate(P_GRID):
                ctx = contexts[(name, p)]
                lam = rs.uniform_lambda(ctx, dim)
                for ei, eps in enumerate(EPS_GRID):
                    for seed in range(SEEDS):
                        rng = derived_generator(0, ni, di, qi, ei, seed)
                        base = rs.realize(lam, ctx, seed=rng)
                        inst = rs.perturb(base, ctx.gog, eps, rng=rng)
                        _, report = rs.stabilize(inst, ctx, seed=rng)
                        lhs = float(ctx.boundary.edge_norm(
                            ctx.boundary.apply(report.lambda_in)))
                        rhs = (2.0 * report.delta) ** p * dim
                        cells.append(Cell(name, dim, eps, p, seed, report.delta,
                                          report.epsilon, report.output_defect,
                                          lhs, rhs))
    elapsed = time.perf_counter() - tic
    return cells, elapsed


def test_criterion_1_exact_correction(sweep_cells):
    cells, elapsed = sweep_cells
    assert len(cells) == len(PRESETS) * len(DIMS) * len(EPS_GRID) * len(P_GRID) * SEEDS
    worst = max(c.output_defect for c in cells)
    assert worst <= 1e-9, f"worst output defect {worst:.3e}"
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: {len(cells)} runs, worst output defect {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_stability_trend(sweep_cells):
    cells, _ = sweep_cells
    worst_spread = 0.0
    for name in PRESETS:
        for p in P_GRID:
            for dim in DIMS:
                medians = []
                for eps in EPS_GRID:
                    ratios = [c.epsilon_out / c.delta for c in cells
                              if (c.preset, c.p, c.dim, c.eps) == (name, p, dim, eps)
                              and c.delta > 0]
                    assert len(ratios) == SEEDS
                    medians.append(float(np.median(ratios)))
                spread = max(medians) / min(medians)
                worst_spread = max(worst_spread, spread)
                assert spread < 5.0, (name, p, dim, medians)
    print(f"\nPASS criterion 2: worst median eps/delta spread across decades "
          f"{worst_spread:.3f} (< 5)")


def test_criterion_3_intertwiner_bounds():
    groups = [rs.cyclic_group(2), rs.cyclic_group(3), rs.cyclic_group(4),
              rs.klein_four_group(), rs.cyclic_group(6), rs.symmetric_group(3)]
    tables = [rs.irrep_table(g, seed=0) for g in groups]
    checked = 0
    worst_t, worst_tp = 0.0, 0.0
    idx = 0
    while checked < 100:
        rng = derived_generator(42, idx)
        idx += 1
        table = tables[idx % len(tables)]
        p = P_GRID[idx % len(P_GRID)]
        dim = int(rng.integers(4, 25))
        eps = (1e-2, 3e-3, 1e-3)[idx % 3]
        rho1 = random_rep(table, dim, rng)
        h = random_hermitian(dim, rng)
        h /= rs.schatten_norm_normalized(h, 2.0)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * eps * w)) @ v.conj().T
        rho2 = rs.conjugate_rep(rho1, u)
        delta = rs.rep_distance(rho1, rho2, p)
        if not 0 < delta < 0.05:
            continue
        res = rs.invariant_intertwiner(rho1, rho2, p, table=table)
        assert res.kept_dim >= (1 - (2 * delta) ** p) * dim
        assert res.identity_distance <= 3 * delta + 1e-12
        tprime = rs.unitary_intertwiner(rho1, rho2, p, table=table)
        dev = rs.schatten_norm_normalized(tprime - np.eye(dim), p)
        assert dev <= 5 * delta + 1e-12
        err = np.abs(np.matmul(rho2.matrices, tprime)
                     - np.matmul(tprime, rho1.matrices)).max()
        assert err < 1e-8
        worst_t = max(worst_t, res.identity_distance / delta)
        worst_tp = max(worst_tp, dev / delta)
        checked += 1
    print(f"\nPASS criterion 3: 100 instances, max ||T-I||/delta {worst_t:.3f} (<= 3), "
          f"max ||T'-I||/delta {worst_tp:.3f} (<= 5)")


def test_criterion_4_padding_oracle():
    groups = [rs.cyclic_group(2), rs.cyclic_group(3), rs.cyclic_group(4),
              rs.symmetric_group(3)]
    tables = [rs.irrep_table(g, seed=0) for g in groups]
    for i in range(50):
        rng = derived_generator(77, i)
        table = tables[i % len(tables)]
        p = (1.0, 1.5, 2.0, 3.0, 4.0)[i % 5]
        big = int(rng.integers(8, 21))
        small = int(rng.integers(1, 3))
        rho = random_rep(table, big, rng)
        sig1 = random_rep(table, small, rng)
        sig2 = random_rep(table, small, rng)
        measured, bound = rs.direct_sum_padding_distance(rho, sig1, sig2, p)
        # the natural delta = (dim sigma / total)^(1/p) satisfies the
        # dimension precondition with equality
        assert measured <= bound + 1e-12
    z2_table = rs.irrep_table(rs.cyclic_group(2), seed=0)
    rho = rs.rep_from_multiplicities(z2_table, [9, 0])
    sig1 = rs.rep_from_multiplicities(z2_table, [1, 0])
    sig2 = rs.rep_from_multiplicities(z2_table, [0, 1])
    measured, bound = rs.direct_sum_padding_distance(rho, sig1, sig2, 2.0)
    assert abs(measured - 2 / np.sqrt(10)) <= 1e-12
    assert abs(bound - 2 * (1 / 10) ** 0.5) <= 1e-12
    print("\nPASS criterion 4: 50 padding instances within 2*delta; "
          "equality case matches to 1e-12")


def test_criterion_5_realization_roundtrip():
    total = 0
    for name in PRESETS:
        ctx = rs.CorrectionContext.build(rs.graph_preset(name), p=2.0, seed=0)
        b = ctx.boundary
        n_coords = sum(b.vertex_block_lengths)
        assert n_coords <= 5
        for lam in enumerate_kernel_cone(b, 12):
            norm = b.vertex_norm(lam)
            if norm == 0:
                continue
            rho = rs.realize(lam, ctx, seed=derived_generator(5, total))
            assert rs.measure_defect(rho, ctx.gog, 2.0) <= 1e-10, (name, lam)
            assert rs.rep_multiplicities(rho, ctx.vertex_tables) == lam
            total += 1
    print(f"\nPASS criterion 5: {total} exhaustive kernel-cone realizations "
          "round-trip exactly")


def test_criterion_6_projection_oracle(z2_amalgam):
    graphs = [rs.graph_preset(name) for name in PRESETS] + [z2_amalgam]
    total = 0
    checked_lex = 0
    for gog in graphs:
        ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
        b = ctx.boundary
        n = sum(b.vertex_block_lengths)
        assert n <= 6
        w = np.array(b.vertex_weights)
        kernel = enumerate_kernel_cone(b, 8)
        kmat = np.array([mu.flatten() for mu in kernel], dtype=np.int64)
        knorm = kmat @ w
        lams = list(enumerate_cone(b.vertex_dims, 8 * b.n_vertices))
        lmat = np.array([lam.flatten() for lam in lams], dtype=np.int64)
        # vectorized brute-force optimal distances
        for lam, flat in zip(lams, lmat):
            cap = int(flat @ w)
            feasible = knorm <= cap
            dists = np.abs(kmat[feasible] - flat) @ w
            best = int(dists.min())
            out = rs.project_to_kernel_cone(lam, b)
            got = int(np.abs(np.array(out.flatten()) - flat) @ w)
            assert got == best, (gog.name, lam.blocks, out.blocks, best)
            assert b.apply(out).is_zero()
            assert b.vertex_norm(out) <= b.vertex_norm(lam)
            if total % 37 == 0:  # spot-check the lexicographic tie-break
                opts = kmat[feasible][dists == best]
                lex = min(tuple(int(x) for x in row) for row in opts)
                assert out.flatten() == lex
                checked_lex += 1
            total += 1
    print(f"\nPASS criterion 6: {total} cone instances match the brute-force "
          f"optimum exactly ({checked_lex} lexicographic spot checks)")


def test_criterion_7_boundary_bound(sweep_cells, z2_amalgam):
    cells, _ = sweep_cells
    for c in cells:
        assert c.boundary_lhs <= c.boundary_rhs + 1e-12, c
    engineered = 0
    for p in P_GRID:
        ctx = rs.CorrectionContext.build(z2_amalgam, p=p, seed=0)
        for imbalance, dim in ((1, 10), (1, 16), (2, 12), (3, 16)):
            half = dim // 2
            r0 = rs.rep_from_multiplicities(ctx.vertex_tables[0],
                                            (half + imbalance, half - imbalance))
            r1 = rs.rep_from_multiplicities(ctx.vertex_tables[1], (half, half))
            rho = rs.almost_rep(ctx.gog, [r0, r1], [np.eye(dim)])
            lhs, rhs = boundary_defect_bound(rho, ctx)
            assert 0 < lhs <= rhs + 1e-12
            engineered += 1
    print(f"\nPASS criterion 7: boundary norm within (2*delta)^p * dim on "
          f"{len(cells)} sweep instances and {engineered} engineered instances")


def test_criterion_8_norm_unit_suite():
    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    for n in range(1, 65):
        for p in ps:
            assert abs(rs.schatten_norm_normalized(np.eye(n), p) - 1.0) <= 1e-12
    rng = np.random.default_rng(123)
    from repstab.rng import random_unitary
    for i in range(100):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        p = ps[i % 5]
        assert abs(rs.schatten_norm_normalized(u @ a @ v, p)
                   - rs.schatten_norm_normalized(a, p)) <= 1e-10
    flip = np.diag([1.0, -1.0]) - np.eye(2)
    for p in ps:
        assert abs(rs.schatten_norm_normalized(flip, p) - 2 ** (1 - 1 / p)) <= 1e-12
    print("\nPASS criterion 8: unit norms, unitary invariance, and the "
          "sign-flip values all hold")


def test_criterion_9_representation_suite():
    for name in group_preset_names():
        g = group_preset(name)
        table = rs.irrep_table(g, seed=0)
        assert int(np.sum(table.dims ** 2)) == g.order, name

    z1, z2, s3 = rs.cyclic_group(1), rs.cyclic_group(2), rs.symmetric_group(3)
    t1, t2, t3 = (rs.irrep_table(g, seed=0) for g in (z1, z2, s3))
    i = trivial_embedding(z2, z1)
    j = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    lhs = rs.restriction_matrix(rs.group_hom(z1, s3, j.map[i.map]), t1, t3)
    rhs = rs.restriction_matrix(i, t1, t2) @ rs.restriction_matrix(j, t2, t3)
    assert lhs.tolist() == rhs.tolist()

    tables = [t2, t3, rs.irrep_table(rs.cyclic_group(4), seed=0)]
    for k in range(50):
        rng = derived_generator(99, k)
        table = tables[k % 3]
        r1 = random_rep(table, int(rng.integers(1, 9)), rng)
        r2 = random_rep(table, int(rng.integers(1, 9)), rng)
        total = rs.multiplicities(direct_sum(r1, r2), table)
        parts = rs.multiplicities(r1, table) + rs.multiplicities(r2, table)
        assert total.tolist() == parts.tolist()
    print("\nPASS criterion 9: completeness, restriction functoriality, and "
          "multiplicity additivity hold")
