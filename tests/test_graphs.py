import numpy as np
import pytest

import repstab as rs
from repstab.errors import ValidationError
from repstab.graphs import evaluate_word, generator_distance
from repstab.rng import random_unitary

from conftest import elementwise_inner_products


@pytest.fixture(scope="module")
def z2_loop():
    """Single vertex Z2 with a Z2 loop, both inclusions the identity."""
    z2 = rs.cyclic_group(2)
    graph = rs.serre_graph(1, [(0, 0)])
    return rs.graph_of_groups(graph, [z2], [z2], [[0, 1], [0, 1]], name="z2_loop")


def test_serre_involution_axioms():
    g = rs.serre_graph(3, [(0, 1), (1, 2), (2, 0)])
    for e in range(g.n_oriented_edges):
        assert g.opposite(g.opposite(e)) == e
        assert g.opposite(e) != e
        assert g.terminus(g.opposite(e)) == g.origin(e)
        assert g.origin(g.opposite(e)) == g.terminus(e)


def test_disconnected_graph_rejected():
    with pytest.raises(ValidationError, match="connected"):
        rs.serre_graph(3, [(0, 1)])


def test_spanning_tree_loop_is_empty():
    g = rs.serre_graph(1, [(0, 0)])
    tree = rs.spanning_tree(g)
    assert tree.steps == () and tree.geometric_edges == frozenset()


def test_spanning_tree_single_edge():
    g = rs.serre_graph(2, [(0, 1)])
    tree = rs.spanning_tree(g)
    assert tree.root == 0
    assert tree.geometric_edges == frozenset({0})
    step = tree.steps[0]
    assert (step.child, step.parent) == (1, 0)
    assert g.origin(step.edge_to_parent) == 1
    assert g.terminus(step.edge_to_parent) == 0


def test_spanning_tree_triangle_deterministic():
    g = rs.serre_graph(3, [(0, 1), (0, 2), (1, 2)])
    tree = rs.spanning_tree(g)
    # BFS from vertex 0 takes the two lowest-index edges; edge 2 is excluded
    assert tree.geometric_edges == frozenset({0, 1})
    assert [(s.parent, s.child) for s in tree.steps] == [(0, 1), (0, 2)]


def test_relators_free_product_single_tree_relator():
    gog = rs.graph_preset("Z2_free_Z3")
    words = rs.relators(gog)
    assert words == ((("s", 0, 1),),)


def test_relators_loop_with_z2_edge_group(z2_loop):
    words = rs.relators(z2_loop)
    assert len(words) == 1
    assert words[0] == (("s", 0, -1), ("v", 0, 1), ("s", 0, 1), ("v", 0, 1))


def test_relator_count_formula():
    for name in rs.graph_preset_names():
        gog = rs.graph_preset(name)
        tree = rs.spanning_tree(gog.graph)
        expected = len(tree.geometric_edges) + sum(
            g.order - 1 for g in gog.edge_groups)
        assert len(rs.relators(gog)) == expected


def test_measure_defect_exact_is_zero(preset_contexts):
    for name in rs.graph_preset_names():
        ctx = preset_contexts[(name, 2.0)]
        lam = rs.uniform_lambda(ctx, 6)
        rho = rs.realize(lam, ctx, seed=0)
        assert rs.measure_defect(rho, ctx.gog, 2.0) <= 1e-10


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
def test_measure_defect_scalar_phase(theta, preset_contexts):
    ctx = preset_contexts[("infinite_dihedral", 2.0)]
    lam = rs.uniform_lambda(ctx, 4)
    rho = rs.realize(lam, ctx, seed=0)
    phased = rs.almost_rep(ctx.gog, rho.vertex_reps,
                           [np.exp(1j * theta) * np.eye(4)], check=True)
    expected = abs(np.exp(1j * theta) - 1.0)
    for p in (1.0, 2.0, 4.0):
        assert rs.measure_defect(phased, ctx.gog, p) == pytest.approx(expected, abs=1e-12)


def test_measure_defect_rejects_a_representation_of_another_graph(preset_contexts):
    hnn = preset_contexts[("hnn_Z4_over_Z2", 2.0)].gog
    free = preset_contexts[("Z2_free_Z3", 2.0)]
    rho = rs.realize(rs.uniform_lambda(free, 6), free, seed=0)
    with pytest.raises(ValidationError, match="one representation required per vertex"):
        rs.measure_defect(rho, hnn, 2.0)
    # the same Z4 and Z2 inclusions, on two loops instead of one
    two_loops = rs.graph_of_groups(rs.serre_graph(1, [(0, 0), (0, 0)]), hnn.vertex_groups,
                                   hnn.edge_groups * 2,
                                   [hom.map for hom in hnn.injections] * 2)
    z4_table = preset_contexts[("hnn_Z4_over_Z2", 2.0)].vertex_tables[0]
    rep = rs.rep_from_multiplicities(z4_table, [1, 1, 1, 1])
    letters = [np.eye(4), random_unitary(4, np.random.default_rng(0))]
    rho = rs.almost_rep(two_loops, [rep], letters)
    assert rs.measure_defect(rho, two_loops, 2.0) > 0.1
    with pytest.raises(ValidationError, match="one unitary required per geometric edge"):
        rs.measure_defect(rho, hnn, 2.0)


def test_measure_defect_sees_a_non_unitary_stable_letter(preset_contexts):
    # a conjugation word evaluates s^-1 as s^H, so it keeps the s^H s - I part:
    # scaling the loop letter of an exact realization by c moves the defect to
    # c^2 - 1, which the two-sided form |a s - s b| would not see
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    scaled = rs.almost_rep(ctx.gog, rho.vertex_reps, [(1 + 1e-6) * rho.edge_unitaries[0]],
                           check=False)
    assert rs.measure_defect(scaled, ctx.gog, 2.0) == pytest.approx(2e-6 + 1e-12, abs=1e-9)


def test_defect_decreases_with_perturbation_size(preset_contexts):
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    lam = rs.uniform_lambda(ctx, 8)
    rho = rs.realize(lam, ctx, seed=1)
    medians = []
    for i, eps in enumerate((1e-1, 1e-2, 1e-3)):
        vals = []
        for s in range(20):
            rng = np.random.default_rng(1000 * i + s)
            vals.append(rs.measure_defect(rs.perturb(rho, ctx.gog, eps, rng=rng),
                                          ctx.gog, 2.0))
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


def test_perturb_zero_eps_is_identity(preset_contexts):
    ctx = preset_contexts[("Z2_free_Z3", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    out = rs.perturb(rho, ctx.gog, 0.0, rng=np.random.default_rng(0))
    for u1, u2 in zip(rho.edge_unitaries, out.edge_unitaries):
        np.testing.assert_allclose(u1, u2, atol=1e-14)


@pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
def test_perturb_rejects_a_bad_size(preset_contexts, eps):
    ctx = preset_contexts[("Z2_free_Z3", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        rs.perturb(rho, ctx.gog, eps, rng=np.random.default_rng(0))


def test_perturb_vertex_mode_keeps_exactness(preset_contexts):
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    out = rs.perturb(rho, ctx.gog, 0.05, mode="edges-and-conjugate-vertices",
                     rng=np.random.default_rng(3))
    for rep in out.vertex_reps:
        rs.unitary_rep(rep.group, rep.matrices, check=True)
    assert rs.measure_defect(out, ctx.gog, 2.0) > 0


def test_perturb_nonzero_defect_on_nontrivial_edge_group(z2_loop):
    table = rs.irrep_table(z2_loop.vertex_groups[0])
    rep = rs.rep_from_multiplicities(table, [2, 2])
    rho = rs.almost_rep(z2_loop, [rep], [np.eye(4)])
    pert = rs.perturb(rho, z2_loop, 1e-2, rng=np.random.default_rng(4))
    assert rs.measure_defect(pert, z2_loop, 2.0) > 1e-4


def test_rep_multiplicities_roundtrip(preset_contexts):
    ctx = preset_contexts[("Z2_free_Z3", 2.0)]
    lam = rs.MultiplicityVector("vertex", ((4, 2), (2, 2, 2)))
    rho = rs.realize(lam, ctx, seed=5)
    assert rs.rep_multiplicities(rho, ctx.vertex_tables) == lam


def test_rep_multiplicities_all_trivial(preset_contexts):
    ctx = preset_contexts[("infinite_dihedral", 2.0)]
    z2 = ctx.gog.vertex_groups[0]
    eye = np.stack([np.eye(5), np.eye(5)])
    reps = [rs.unitary_rep(g, eye) for g in ctx.gog.vertex_groups]
    rho = rs.almost_rep(ctx.gog, reps, [np.eye(5)])
    lam = rs.rep_multiplicities(rho, ctx.vertex_tables)
    assert lam.blocks == ((5, 0), (5, 0))


def test_rep_multiplicities_matches_elementwise_character_sum(preset_contexts):
    # oracle: plain per-element loops instead of class-weighted sums
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=2)
    lam = rs.rep_multiplicities(rho, ctx.vertex_tables)
    for v, (rep, table) in enumerate(zip(rho.vertex_reps, ctx.vertex_tables)):
        oracle = elementwise_inner_products(rep, table)
        assert list(lam.blocks[v]) == [round(x.real) for x in oracle]


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_generator_distance_matches_reference_with_identity(preset_contexts, p):
    # the reference also compares the identity elements, which the exact
    # vertex representations map to I up to rounding
    def reference(rho1, rho2):
        mats = [r1.matrices[g] - r2.matrices[g]
                for r1, r2 in zip(rho1.vertex_reps, rho2.vertex_reps)
                for g in range(r1.group.order)]
        mats += [u1 - u2 for u1, u2 in zip(rho1.edge_unitaries, rho2.edge_unitaries)]
        return max(rs.schatten_norm_normalized(m, p) for m in mats)

    for name in rs.graph_preset_names():
        ctx = preset_contexts[(name, p)]
        base = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
        for mode, eps in (("edges-only", 1e-3), ("edges-and-conjugate-vertices", 1e-2)):
            rho = rs.perturb(base, ctx.gog, eps, mode=mode, rng=np.random.default_rng(2))
            d = generator_distance(rho, base, p)
            assert d == pytest.approx(reference(rho, base), rel=1e-12)
            assert d > 0.0


@pytest.mark.parametrize("name", rs.graph_preset_names())
def test_generator_distance_of_a_representation_to_itself_takes_no_svd(
        monkeypatch, preset_contexts, name):
    # every vertex representation is the same object on both sides and is
    # skipped; only the letters are read, and their exact zeros take no kernel
    from repstab import graphs
    ctx = preset_contexts[(name, 1.0)]
    rho = rs.perturb(rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0), ctx.gog, 1e-2,
                     mode="edges-and-conjugate-vertices", rng=np.random.default_rng(3))
    svds, stacks = [], []
    real_svd, real_max = np.linalg.svd, graphs.max_normalized_norm

    def counting_svd(*args, **kwargs):
        svds.append(None)
        return real_svd(*args, **kwargs)

    def recorded_max(mats, p):
        stacks.append(len(mats))
        return real_max(mats, p)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(graphs, "max_normalized_norm", recorded_max)
    assert generator_distance(rho, rho, 1.0) == 0.0
    assert svds == []
    assert stacks == [ctx.gog.graph.n_geometric_edges]


def test_generator_distance_with_nothing_left_to_read_is_zero():
    # one vertex and no edge: the skipped vertex leaves an empty stack, in
    # `generator_distance` and in the verification of `stabilize`
    gog = rs.graph_of_groups(rs.serre_graph(1, []), [rs.cyclic_group(3)], [], [])
    ctx = rs.CorrectionContext.build(gog, p=1.0)
    rho = rs.realize(rs.uniform_lambda(ctx, 6), ctx)
    assert generator_distance(rho, rho, 1.0) == 0.0
    out, report = rs.stabilize(rho, ctx)
    assert out.vertex_reps[0] is rho.vertex_reps[0]
    assert report.epsilon == 0.0 and report.output_defect == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_generator_distance_still_reads_a_bad_letter(preset_contexts, bad):
    # the letters are compared even where every vertex is skipped
    for name in rs.graph_preset_names():
        ctx = preset_contexts[(name, 2.0)]
        rho = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
        letter = rho.edge_unitaries[0].copy()
        letter[1, 2] = bad
        broken = rs.almost_rep(ctx.gog, rho.vertex_reps, [letter], check=False)
        for pair in ((broken, rho), (rho, broken)):
            with pytest.raises(ValidationError, match="NaN or Inf"):
                generator_distance(*pair, 2.0)


def test_evaluate_word_inverse_tokens(z2_loop):
    table = rs.irrep_table(z2_loop.vertex_groups[0])
    rep = rs.rep_from_multiplicities(table, [1, 1])
    u = np.diag([1.0, 1j])
    rho = rs.almost_rep(z2_loop, [rep], [u])
    word = (("s", 0, -1), ("v", 0, 1), ("s", 0, 1))
    expected = u.conj().T @ rep.matrices[1] @ u
    np.testing.assert_allclose(evaluate_word(rho, word), expected, atol=1e-14)


def test_almost_rep_validation(z2_loop):
    table = rs.irrep_table(z2_loop.vertex_groups[0])
    rep = rs.rep_from_multiplicities(table, [1, 1])
    with pytest.raises(ValidationError, match="unitary"):
        rs.almost_rep(z2_loop, [rep], [np.diag([1.0, 2.0])])
    with pytest.raises(ValidationError, match="per geometric edge"):
        rs.almost_rep(z2_loop, [rep], [])


def test_almost_rep_checks_letter_shapes_without_check(preset_contexts):
    # check=False skips unitarity only; a wrong-sized letter would otherwise
    # surface later as a bare numpy error in measure_defect or stabilize
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    for check in (True, False):
        with pytest.raises(ValidationError, match=r"edge 0 unitary has shape \(3, 3\)"):
            rs.almost_rep(ctx.gog, rho.vertex_reps, [np.eye(3)], check=check)


def test_graph_json_roundtrip():
    from repstab.serialize import graph_from_json, graph_to_json
    for name in rs.graph_preset_names():
        gog = rs.graph_preset(name)
        gog2 = graph_from_json(graph_to_json(gog))
        assert gog2.graph.endpoints == gog.graph.endpoints
        for h1, h2 in zip(gog.injections, gog2.injections):
            assert np.array_equal(h1.map, h2.map)


def test_graph_json_with_preset_names():
    from repstab.serialize import graph_from_json
    obj = {
        "name": "custom",
        "vertices": [{"group": "Z2"}, {"group": "Z3"}],
        "edges": [{"origin": 0, "terminus": 1, "group": "Z1",
                   "into_terminus": [0], "into_origin": [0]}],
    }
    gog = graph_from_json(obj)
    assert gog.vertex_groups[0].order == 2
    assert gog.vertex_groups[1].order == 3
