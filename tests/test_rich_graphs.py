"""Stress tests on structurally rich graphs of groups.

Non-abelian edge groups put multi-dimensional irreducibles into the edge
tables; inclusions twisted by inner automorphisms force the realization to
intertwine genuinely different matrix representations; multiple loops and
longer chains compound the induction.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

import repstab as rs
from repstab import cones
from repstab.rng import random_hermitian, random_unitary

from conftest import brute_force_projection, enumerate_cone, enumerate_kernel_cone


@pytest.fixture(scope="module")
def s3_twisted_amalgam():
    """Two S3 vertices glued over S3 itself, one side twisted by conjugation.

    Inner automorphisms fix characters, so the boundary map vanishes and
    every cone vector is realizable, but the two pullbacks across the edge
    differ as matrix representations and the stable letter must intertwine
    a 2-dimensional irreducible block.
    """
    s3 = rs.symmetric_group(3)
    graph = rs.serre_graph(2, [(0, 1)])
    g0 = 1  # a transposition
    twist = [int(s3.mult[s3.mult[g0, x], s3.inv[g0]]) for x in range(6)]
    return rs.graph_of_groups(graph, [s3, s3], [s3],
                              [list(range(6)), twist], name="s3_twisted_amalgam")


@pytest.fixture(scope="module")
def double_loop():
    """One Z4 vertex with two independent Z2 loops (rank-two correction)."""
    z4 = rs.cyclic_group(4)
    z2 = rs.cyclic_group(2)
    graph = rs.serre_graph(1, [(0, 0), (0, 0)])
    onto = [0, 2]
    return rs.graph_of_groups(graph, [z4], [z2, z2], [onto, onto, onto, onto],
                              name="double_loop")


@pytest.fixture(scope="module")
def z4_chain():
    """Chain of three Z4 vertices amalgamated over Z2 at both steps."""
    z4 = rs.cyclic_group(4)
    z2 = rs.cyclic_group(2)
    graph = rs.serre_graph(3, [(0, 1), (1, 2)])
    onto = [0, 2]
    return rs.graph_of_groups(graph, [z4, z4, z4], [z2, z2],
                              [onto, onto, onto, onto], name="z4_chain")


@pytest.fixture(scope="module")
def twisted_hnn():
    """One V4 vertex with a Z2 loop included as two different subgroups."""
    v4, z2 = rs.klein_four_group(), rs.cyclic_group(2)
    return rs.graph_of_groups(rs.serre_graph(1, [(0, 0)]), [v4], [z2], [[0, 1], [0, 2]],
                              name="twisted_hnn")


def test_projection_dp_agrees_with_highs(z2_amalgam, twisted_hnn, z4_chain,
                                         s3_twisted_amalgam, milp_calls, monkeypatch):
    # every off-kernel input of small weighted total, projected by the DP and
    # then by HiGHS alone (a zero candidate budget forces the fallback)
    graphs = [(rs.graph_preset(name), 4) for name in rs.graph_preset_names()]
    graphs += [(z2_amalgam, 4), (twisted_hnn, 5), (z4_chain, 3), (s3_twisted_amalgam, 5)]
    cases = []
    for gog, total in graphs:
        b = rs.CorrectionContext.build(gog, p=2.0, seed=0).boundary
        cases += [(lam, b) for lam in enumerate_cone(b.vertex_dims, total)
                  if not b.apply(lam).is_zero()]
    by_dp = [rs.project_to_kernel_cone(lam, b) for lam, b in cases]
    assert len(milp_calls) == 0
    monkeypatch.setattr(cones, "DP_MAX_CANDIDATES", 0)
    by_highs = [rs.project_to_kernel_cone(lam, b) for lam, b in cases]
    assert len(milp_calls) >= 2 * len(cases)
    assert by_dp == by_highs


def test_twisted_amalgam_realize_needs_twist(s3_twisted_amalgam):
    ctx = rs.CorrectionContext.build(s3_twisted_amalgam, p=2.0, seed=0)
    # inner twists preserve characters, so the kernel asks for equal blocks
    assert ctx.boundary.apply(rs.MultiplicityVector("vertex", ((1, 0, 1), (1, 0, 1)))).is_zero()
    assert not ctx.boundary.apply(rs.MultiplicityVector("vertex", ((1, 0, 1), (0, 1, 1)))).is_zero()
    lam = rs.MultiplicityVector("vertex", ((2, 1, 2), (2, 1, 2)))
    rho = rs.realize(lam, ctx, seed=0)
    assert rho.dim == 7  # 2 + 1 + 2*2
    assert rs.measure_defect(rho, s3_twisted_amalgam, 2.0) <= 1e-10
    assert rs.rep_multiplicities(rho, ctx.vertex_tables) == lam
    # the aligned vertex representations genuinely differ across the twist
    assert rs.rep_distance(rho.vertex_reps[0], rho.vertex_reps[1], 2.0) > 0.1


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_twisted_amalgam_stabilize(s3_twisted_amalgam, p):
    ctx = rs.CorrectionContext.build(s3_twisted_amalgam, p=p, seed=0)
    lam = rs.MultiplicityVector("vertex", ((2, 2, 4), (2, 2, 4)))
    base = rs.realize(lam, ctx, seed=0)
    assert base.dim == 12
    for seed in range(5):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, s3_twisted_amalgam, 1e-2,
                          mode="edges-and-conjugate-vertices", rng=rng)
        out, report = rs.stabilize(inst, ctx, seed=rng)
        assert report.output_defect <= 1e-9
        assert report.epsilon <= 15 * report.delta
        assert rs.rep_multiplicities(out, ctx.vertex_tables) == lam


def test_double_loop_realize_and_stabilize(double_loop):
    ctx = rs.CorrectionContext.build(double_loop, p=2.0, seed=0)
    assert ctx.tree.geometric_edges == frozenset()
    lam = rs.uniform_lambda(ctx, 10)
    base = rs.realize(lam, ctx, seed=1)
    assert rs.measure_defect(base, double_loop, 2.0) <= 1e-10
    words = rs.relators(double_loop)
    assert len(words) == 2  # one conjugation relator per loop
    for seed in range(5):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, double_loop, 1e-2, rng=rng)
        out, report = rs.stabilize(inst, ctx, seed=rng)
        assert report.output_defect <= 1e-9
        assert report.epsilon <= 10 * report.delta


def test_chain_induction_accumulates_gracefully(z4_chain):
    ctx = rs.CorrectionContext.build(z4_chain, p=2.0, seed=0)
    assert len(ctx.tree.steps) == 2
    lam = rs.uniform_lambda(ctx, 8)
    base = rs.realize(lam, ctx, seed=0)
    assert rs.measure_defect(base, z4_chain, 2.0) <= 1e-10
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, z4_chain, 1e-3,
                          mode="edges-and-conjugate-vertices", rng=rng)
        out, report = rs.stabilize(inst, ctx, seed=rng)
        assert report.output_defect <= 1e-9
        # both tree letters pinned to the identity
        for k in sorted(ctx.tree.geometric_edges):
            assert np.abs(out.edge_unitaries[k] - np.eye(8)).max() == 0.0
        ratios.append(report.epsilon / report.delta)
    assert np.median(ratios) < 15.0


def test_projection_oracle_on_twisted_hnn():
    v4 = rs.klein_four_group()
    z2 = rs.cyclic_group(2)
    graph = rs.serre_graph(1, [(0, 0)])
    gog = rs.graph_of_groups(graph, [v4], [z2], [[0, 1], [0, 2]], name="twisted_hnn")
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    b = ctx.boundary
    kernel = enumerate_kernel_cone(b, 12)  # covers every sampled norm
    rng = np.random.default_rng(2)
    for _ in range(30):
        flat = rng.integers(0, 4, size=4)
        lam = rs.MultiplicityVector.from_flat("vertex", flat.tolist(),
                                              b.vertex_block_lengths)
        out = rs.project_to_kernel_cone(lam, b)
        dist, argmin = brute_force_projection(lam, b, kernel)
        assert b.vertex_norm(lam - out) == dist
        assert out == argmin


def test_desk_scale_dimension_sixty(s3_twisted_amalgam):
    # upper end of the intended working range: dim 60 over non-abelian groups
    ctx = rs.CorrectionContext.build(s3_twisted_amalgam, p=2.0, seed=0)
    lam = rs.MultiplicityVector("vertex", ((10, 10, 20), (10, 10, 20)))
    base = rs.realize(lam, ctx, seed=0)
    assert base.dim == 60
    assert rs.measure_defect(base, s3_twisted_amalgam, 2.0) <= 1e-10
    inst = rs.perturb(base, s3_twisted_amalgam, 1e-2,
                      mode="edges-and-conjugate-vertices",
                      rng=np.random.default_rng(0))
    out, report = rs.stabilize(inst, ctx, seed=1)
    assert report.output_defect <= 1e-9
    assert report.epsilon <= 15 * report.delta


def test_sweep_at_dim_24():
    from repstab.sweep import SweepConfig, run_sweep
    config = SweepConfig(presets=("Z2_free_Z3", "infinite_dihedral", "hnn_Z4_over_Z2"),
                         dim=24, eps_grid=(1e-2, 1e-3), p_grid=(1.0, 2.0),
                         seeds_per_cell=2, master_seed=3)
    rows = run_sweep(config)
    assert len(rows) == 24
    assert all(not r.error for r in rows)
    assert all(r.dim == 24 for r in rows)


def test_nonabelian_edge_table_has_two_dim_irrep(s3_twisted_amalgam):
    ctx = rs.CorrectionContext.build(s3_twisted_amalgam, p=2.0, seed=0)
    assert ctx.edge_tables[0].dims.tolist() == [1, 1, 2]
    # restriction along the twisted inclusion is a permutation-free identity
    # on multiplicities (inner twists preserve characters)
    m = -ctx.boundary.matrix[:3, :3]  # origin block of oriented edge 0
    assert m.tolist() == np.eye(3, dtype=int).tolist()


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("block", [(4, 4, 4), (3, 4, 3)])
def test_epsilon_is_continuous_in_the_stable_letter(block, p):
    # twisted HNN with one summand swapped off the kernel cone, in a
    # Haar-random basis (the cone-imbalance benchmark input): the corrected
    # stable letter must be a continuous function of the input letter, so
    # 1e-14 jitters must not move the reported distance
    v4, z2 = rs.klein_four_group(), rs.cyclic_group(2)
    gog = rs.graph_of_groups(rs.serre_graph(1, [(0, 0)]), [v4], [z2], [[0, 1], [0, 2]],
                             name="twisted_hnn")
    ctx = rs.CorrectionContext.build(gog, p=p, seed=0)
    a, b, d = block
    exact = rs.realize(rs.MultiplicityVector("vertex", ((a, b, b, d),)), ctx, seed=0)
    skew = rs.rep_from_multiplicities(ctx.vertex_tables[0], (a, b + 1, b - 1, d))
    rng = np.random.default_rng(0)
    w = random_unitary(exact.dim, rng)
    vertex = rs.conjugate_rep(skew, w)
    letter = w @ exact.edge_unitaries[0] @ w.conj().T
    epsilons = []
    for _ in range(6):
        h = random_hermitian(exact.dim, rng)
        jitter = scipy.linalg.expm(1e-14j * h / np.linalg.norm(h, 2))
        inst = rs.almost_rep(gog, [vertex], [letter @ jitter], check=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # far-apart restrictions, by design
            out, report = rs.stabilize(inst, ctx, seed=0, guard=1.0)
        assert report.output_defect <= 1e-9
        epsilons.append(report.epsilon)
    assert max(epsilons) - min(epsilons) <= 1e-12
