"""Integration tests on graphs beyond the presets.

These exercise the branches the presets cannot reach: tree-step corrections
with a genuine edge mismatch (vertex-conjugated perturbations), an HNN
whose two inclusions land in different subgroups, parallel edges, and
non-integer Schatten exponents through the whole pipeline.
"""

import numpy as np
import pytest

import repstab as rs
from repstab.errors import NumericalError
from repstab.graphs import evaluate_word

from conftest import context_apart


@pytest.fixture(scope="module")
def twisted_hnn():
    """One V4 vertex, a Z2 loop included as two different subgroups.

    The boundary map is genuinely nonzero on a single vertex: kernel
    vectors must give the two order-two subgroups isomorphic restrictions.
    """
    v4 = rs.klein_four_group()
    z2 = rs.cyclic_group(2)
    graph = rs.serre_graph(1, [(0, 0)])
    # V4 elements are pairs over Z2 x Z2 in lexicographic order:
    # 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)
    return rs.graph_of_groups(graph, [v4], [z2], [[0, 1], [0, 2]],
                              name="twisted_hnn")


@pytest.fixture(scope="module")
def parallel_edges():
    """Two vertices joined by two parallel trivial edges: one tree edge and
    one free stable letter."""
    z2, z3 = rs.cyclic_group(2), rs.cyclic_group(3)
    z1 = rs.cyclic_group(1)
    graph = rs.serre_graph(2, [(0, 1), (0, 1)])
    return rs.graph_of_groups(graph, [z2, z3], [z1, z1],
                              [[0], [0], [0], [0]], name="parallel_edges")


def test_twisted_hnn_kernel_structure(twisted_hnn):
    ctx = rs.CorrectionContext.build(twisted_hnn, p=2.0, seed=0)
    b = ctx.boundary
    # restrictions agree exactly when the two nontrivial characters that
    # differ on the subgroups carry equal multiplicity
    ok = rs.MultiplicityVector("vertex", ((2, 1, 1, 3),))
    bad = rs.MultiplicityVector("vertex", ((2, 1, 0, 3),))
    assert b.apply(ok).is_zero()
    assert not b.apply(bad).is_zero()


def test_twisted_hnn_realize_and_project(twisted_hnn):
    ctx = rs.CorrectionContext.build(twisted_hnn, p=2.0, seed=0)
    lam = rs.MultiplicityVector("vertex", ((2, 1, 1, 3),))
    rho = rs.realize(lam, ctx, seed=1)
    assert rs.measure_defect(rho, twisted_hnn, 2.0) <= 1e-10
    assert rs.rep_multiplicities(rho, ctx.vertex_tables) == lam
    # the loop unitary is forced to do real work: identity will not satisfy
    # the conjugation relators here
    naive = rs.almost_rep(twisted_hnn, rho.vertex_reps, [np.eye(rho.dim)])
    assert rs.measure_defect(naive, twisted_hnn, 2.0) > 0.1

    skew = rs.MultiplicityVector("vertex", ((2, 1, 0, 3),))
    proj = rs.project_to_kernel_cone(skew, ctx.boundary)
    assert ctx.boundary.apply(proj).is_zero()
    assert ctx.boundary.vertex_norm(skew - proj) == 1


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_twisted_hnn_stabilize(twisted_hnn, p):
    ctx = rs.CorrectionContext.build(twisted_hnn, p=p, seed=0)
    lam = rs.MultiplicityVector("vertex", ((3, 2, 2, 1),))
    base = rs.realize(lam, ctx, seed=0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, twisted_hnn, 1e-2,
                          mode="edges-and-conjugate-vertices", rng=rng)
        out, report = rs.stabilize(inst, ctx, seed=rng)
        assert report.output_defect <= 1e-9
        assert report.delta > 1e-4
        assert report.epsilon <= 12 * report.delta


def test_vertex_conjugated_perturbation_hits_tree_step(z2_amalgam):
    # vertex conjugations leave multiplicities alone but desynchronize the
    # edge restrictions, so the child correction must apply a genuine
    # intertwiner close to the identity
    ctx = rs.CorrectionContext.build(z2_amalgam, p=2.0, seed=0)
    lam = rs.MultiplicityVector("vertex", ((4, 4), (4, 4)))
    base = rs.realize(lam, ctx, seed=0)
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, z2_amalgam, 1e-2,
                          mode="edges-and-conjugate-vertices", rng=rng)
        out, report = rs.stabilize(inst, ctx, seed=rng)
        assert report.output_defect <= 1e-9
        # the corrected child really moved: its representation differs from
        # the input's by more than numerical noise
        moved = rs.rep_distance(out.vertex_reps[1], inst.vertex_reps[1], 2.0)
        assert moved > 1e-6
        ratios.append(report.epsilon / report.delta)
    assert np.median(ratios) < 12.0


def test_parallel_edges_free_letter(parallel_edges):
    ctx = rs.CorrectionContext.build(parallel_edges, p=2.0, seed=0)
    assert ctx.gog.graph.tree.geometric_edges == frozenset({0})
    lam = rs.uniform_lambda(ctx, 6)
    rho = rs.realize(lam, ctx, seed=0)
    assert rs.measure_defect(rho, parallel_edges, 2.0) <= 1e-10
    # the non-tree stable letter is unconstrained (trivial edge group), and
    # correction leaves what it finds there
    inst = rs.perturb(rho, parallel_edges, 5e-2, rng=np.random.default_rng(1))
    out, report = rs.stabilize(inst, ctx, seed=2)
    assert report.output_defect <= 1e-9
    np.testing.assert_allclose(out.edge_unitaries[1], inst.edge_unitaries[1],
                               atol=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_non_integer_exponent_pipeline(p):
    ctx = rs.CorrectionContext.build(rs.graph_preset("hnn_Z4_over_Z2"), p=p, seed=0)
    base = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 1e-2, rng=np.random.default_rng(3))
    out, report = rs.stabilize(inst, ctx, seed=4)
    assert report.output_defect <= 1e-9
    assert 0 < report.epsilon < 1.0


def test_defect_is_orientation_invariant(twisted_hnn):
    # evaluating the conjugation relator from either orientation gives the
    # same distance to the identity, by unitary invariance
    ctx = rs.CorrectionContext.build(twisted_hnn, p=2.0, seed=0)
    lam = rs.MultiplicityVector("vertex", ((2, 1, 1, 2),))
    rho = rs.perturb(rs.realize(lam, ctx, seed=0), twisted_hnn, 0.05,
                     rng=np.random.default_rng(0))
    g = twisted_hnn.graph
    z2 = twisted_hnn.edge_groups[0]
    i_fwd, i_rev = twisted_hnn.injections[0].map, twisted_hnn.injections[1].map
    v4 = twisted_hnn.vertex_groups[0]
    eye = np.eye(rho.dim)
    for elem in range(1, z2.order):
        forward = (("s", 0, -1), ("v", 0, i_fwd[elem]), ("s", 0, 1),
                   ("v", 0, v4.inv[i_rev[elem]]))
        reverse = (("s", 0, 1), ("v", 0, i_rev[elem]), ("s", 0, -1),
                   ("v", 0, v4.inv[i_fwd[elem]]))
        d_fwd = rs.schatten_norm_normalized(evaluate_word(rho, forward) - eye, 2.0)
        d_rev = rs.schatten_norm_normalized(evaluate_word(rho, reverse) - eye, 2.0)
        assert d_fwd == pytest.approx(d_rev, abs=1e-12)


def test_stage_tags_on_numerical_failure(z2_amalgam, monkeypatch):
    import sys
    st = sys.modules["repstab.stabilize"]
    from repstab.errors import NumericalError

    ctx = rs.CorrectionContext.build(z2_amalgam, p=2.0, seed=0)
    base = rs.realize(rs.MultiplicityVector("vertex", ((2, 2), (2, 2))), ctx, seed=0)

    def boom(*args, **kwargs):
        raise NumericalError("instrumented failure")

    monkeypatch.setattr(st, "correct_vertex", boom)
    with pytest.raises(NumericalError, match=r"\[vertex_corrections\]"):
        rs.stabilize(base, ctx, seed=0)



def _failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.filterwarnings("ignore:measured distance")
@pytest.mark.parametrize("graph, p, eps, mode, stage", [
    pytest.param("z2_amalgam", 2.0, 0.5, "edges-and-conjugate-vertices", "vertex_corrections",
                 id="2.0-vertex_corrections"),
    pytest.param("hnn_Z4_over_Z2", 2.0, 0.75, "edges-only", "edge_corrections",
                 id="2.0-edge_corrections"),
    pytest.param("Z2_free_Z3", 1.0, 1e-3, "edges-only", "measure_defect",
                 id="1.0-measure_defect")])
def test_stage_tags_on_svd_failure(z2_amalgam, monkeypatch, graph, p, eps, mode, stage):
    # p = 2 measures the defect without an SVD, so the first SVD is that of a
    # multiplicity block of the first polar factor: across the Z2 tree edge
    # of z2_amalgam in the vertex stage, and across the Z2 loop of the HNN
    # (one vertex, no tree edge) in the edge stage; p = 1 fails while
    # measuring the defect
    gog = z2_amalgam if graph == "z2_amalgam" else rs.graph_preset(graph)
    ctx = rs.CorrectionContext.build(gog, p=p, seed=0)
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    rho = rs.perturb(base, ctx.gog, eps, mode=mode, rng=np.random.default_rng(0))

    monkeypatch.setattr(np.linalg, "svd", _failing_svd)
    with pytest.raises(NumericalError) as info:
        rs.stabilize(rho, ctx, seed=0, guard=5.0)
    assert str(info.value).startswith(f"[{stage}]")


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("name", ["Z2_free_Z3", "infinite_dihedral"])
def test_free_products_stabilize_without_svd(preset_contexts, monkeypatch, name, p):
    # the edge group is trivial: no intertwiner is built, and the norms at
    # p = 2 and p = 4 take no SVD
    ctx = preset_contexts[(name, p)]
    for dim in (12, 96):
        base = rs.realize(rs.uniform_lambda(ctx, dim), ctx, seed=0)
        rho = rs.perturb(base, ctx.gog, 1e-2, mode="edges-and-conjugate-vertices",
                         rng=np.random.default_rng(1))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", _failing_svd)
            _, report = rs.stabilize(rho, ctx, seed=0)
        assert report.output_defect < 1e-10
        # the multiplicities hold, so the vertices stay as they are and only
        # the tree letter moves, to I: the distance moved is the defect, read
        # off the same matrix whatever zero differences share its stack
        assert report.lambda_out == report.lambda_in
        assert report.epsilon == report.delta > 0.0


@pytest.mark.parametrize("name, p, svds", [
    (name, p, 0 if p != 1.0 else 3 if name == "hnn_Z4_over_Z2" else 1)
    for name in rs.graph_preset_names() for p in (1.0, 2.0, 4.0)])
def test_svd_budget_of_one_stabilize(preset_contexts, monkeypatch, name, p, svds):
    # library-built inputs carry their isotypic frames, so realize and
    # stabilize run no eigh, no isotypic decomposition and no SVD of a
    # dim x dim matrix, even when the input was realized with a context
    # built apart from the one that stabilizes it. At p = 1 one SVD stack
    # each for the input defect, the output defect and the distance moved.
    # A free product takes only the first: its output defect is a stack of
    # exact zeros (its tree letter is I), and its distance moved reads the
    # tree letter's norm off the input defect and measures only vertex
    # differences, which are exact zeros here. p = 2 and p = 4 measure
    # without one
    from repstab import irreps
    ctx = preset_contexts[(name, p)]
    realizing = context_apart(ctx.gog, p=2.0)
    calls = []
    for module, kernel in ((np.linalg, "svd"), (np.linalg, "eigh"),
                           (irreps, "isotypic_components")):
        def counted(a, *args, _real=getattr(module, kernel), _kernel=kernel, **kwargs):
            calls.append((_kernel, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, kernel, counted)
    base = rs.realize(rs.uniform_lambda(realizing, 12), realizing, seed=0)
    realized = list(calls)
    rho = rs.perturb(base, ctx.gog, 1e-3, mode="edges-and-conjugate-vertices",
                     rng=np.random.default_rng(1))
    calls.clear()
    _, report = rs.stabilize(rho, ctx, seed=0)
    assert report.output_defect < 1e-10
    assert [kernel for kernel, _ in realized + calls if kernel != "svd"] == []
    assert (12, 12) not in [shape for _, shape in realized + calls]
    assert [len(shape) for _, shape in realized].count(3) == 0
    assert [len(shape) for _, shape in calls].count(3) == svds
