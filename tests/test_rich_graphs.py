"""Stress tests on structurally rich graphs of groups.

Non-abelian edge groups put multi-dimensional irreducibles into the edge
tables; inclusions twisted by inner automorphisms force the realization to
intertwine genuinely different matrix representations; multiple loops and
longer chains compound the induction.
"""

import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import repstab as rs
from repstab import cones
from repstab.graphs import evaluate_word, generator_distance
from repstab.irreps import pullback
from repstab.schatten import BOUND_RTOL, max_normalized_norm, singular_values
from repstab.rng import random_hermitian, random_unitary

from conftest import (brute_force_projection, context_apart, enumerate_cone,
                      enumerate_kernel_cone)


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


RICH_GRAPHS = ("s3_twisted_amalgam", "double_loop", "z4_chain", "twisted_hnn", "z2_amalgam")


@pytest.mark.parametrize("name", rs.graph_preset_names() + RICH_GRAPHS)
def test_measure_defect_matches_the_relator_words(request, name):
    # the stacked per-edge products against the word-by-word oracle, bit for bit
    gog = request.getfixturevalue(name) if name in RICH_GRAPHS else rs.graph_preset(name)
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    base = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
    for mode in ("edges-only", "edges-and-conjugate-vertices"):
        inst = rs.perturb(base, gog, 1e-2, mode=mode, rng=np.random.default_rng(7))
        words = np.array([evaluate_word(inst, w) - np.eye(12) for w in rs.relators(gog)])
        for p in (1.0, 2.0, 4.0):
            assert rs.measure_defect(inst, gog, p) == max_normalized_norm(words, p)


@pytest.mark.parametrize("dim", [12, 96])
@pytest.mark.parametrize("name", rs.graph_preset_names() + RICH_GRAPHS)
def test_measure_defect_matches_each_relator_word_alone(request, name, dim):
    # the relator images written in place against each word's own norm, to
    # rounding: at p = 2 and 4 a matrix alone sums its squares in another
    # order than in a stack
    gog = request.getfixturevalue(name) if name in RICH_GRAPHS else rs.graph_preset(name)
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    base = rs.realize(rs.uniform_lambda(ctx, dim), ctx, seed=0)
    for mode in ("edges-only", "edges-and-conjugate-vertices"):
        inst = rs.perturb(base, gog, 1e-2, mode=mode, rng=np.random.default_rng(11))
        words = [evaluate_word(inst, w) - np.eye(dim) for w in rs.relators(gog)]
        for p in (1.0, 2.0, 3.0, 4.0):
            oracle = max(rs.schatten_norm_normalized(w, p) for w in words)
            assert rs.measure_defect(inst, gog, p) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", rs.graph_preset_names() + RICH_GRAPHS)
def test_every_preset_and_benchmark_graph_has_an_edge_tree(request, name):
    # the exact DP serves every graph of the presets and the benchmark
    gog = request.getfixturevalue(name) if name in RICH_GRAPHS else rs.graph_preset(name)
    tree = rs.CorrectionContext.build(gog, p=2.0, seed=0).boundary.edge_tree
    assert tree is not None
    assert len(tree.links) == gog.graph.n_vertices - 1


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
    assert ctx.gog.graph.tree.geometric_edges == frozenset()
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
    assert len(ctx.gog.graph.tree.steps) == 2
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
        for k in sorted(ctx.gog.graph.tree.geometric_edges):
            assert np.abs(out.edge_unitaries[k] - np.eye(8)).max() == 0.0
        ratios.append(report.epsilon / report.delta)
    assert np.median(ratios) < 15.0


def test_tree_walk_corrects_each_child_by_correct_vertex(z4_chain, monkeypatch):
    # the walk looks correct_vertex up on the module, as the tracer rebinds
    # it, and takes it once per tree step, in tree order, in both pipelines
    st = sys.modules["repstab.stabilize"]
    ctx = rs.CorrectionContext.build(z4_chain, p=2.0, seed=0)
    graph = ctx.gog.graph
    expected = [ctx.gog.injections[graph.opposite(step.edge_to_parent)]
                for step in graph.tree.steps]
    assert len(expected) == 2
    calls, correct_vertex = [], st.correct_vertex

    def counted(hom, *args, **kwargs):
        calls.append(hom)
        return correct_vertex(hom, *args, **kwargs)

    monkeypatch.setattr(st, "correct_vertex", counted)
    base = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    assert calls == expected
    calls.clear()
    inst = rs.perturb(base, z4_chain, 1e-3, mode="edges-and-conjugate-vertices",
                      rng=np.random.default_rng(0))
    out, report = rs.stabilize(inst, ctx)
    assert calls == expected
    assert report.output_defect <= 1e-9


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


@pytest.mark.parametrize("name, blocks", [
    ("twisted_hnn", ((3, 1, 1, 3),)),
    ("z4_chain", ((3, 1, 2, 2), (5, 1, 2, 0), (3, 2, 1, 2))),
])
def test_realize_does_not_depend_on_the_seed(monkeypatch, request, name, blocks):
    # both vectors give an intertwiner whose group average is singular; its
    # polar factor is read off the isotypic frames like every other, and no
    # random number is drawn
    from repstab import intertwiners
    completed = []
    frame = intertwiners._isotypic_polar
    monkeypatch.setattr(intertwiners, "_isotypic_polar",
                        lambda *args: completed.append(1) or frame(*args))
    ctx = rs.CorrectionContext.build(request.getfixturevalue(name), p=2.0, seed=0)
    lam = rs.MultiplicityVector("vertex", blocks)
    first, second = (rs.realize(lam, ctx, seed=seed) for seed in (0, 1))
    assert completed
    for a, b in zip(first.vertex_reps, second.vertex_reps):
        assert np.array_equal(a.matrices, b.matrices)
    for a, b in zip(first.edge_unitaries, second.edge_unitaries):
        assert np.array_equal(a, b)
    assert rs.measure_defect(first, ctx.gog, 2.0) < 1e-12


def _assert_carried_frame(rep, table):
    """The frame `rep` carries in `table` is read without a decomposition, is
    orthonormal and copy-major, and rep(g) B_k = B_k (I kron pi_k(g)) for
    every g."""
    from repstab.irreps import INTERTWINE_ATOL, _column_blocks, _isotypic_frame
    assert rep._frame is not None
    mults = rs.multiplicities(rep, table)
    frame = _isotypic_frame(rep, table)
    basis = frame.basis
    assert frame.mults.tolist() == mults.tolist()
    assert np.abs(basis.conj().T @ basis - np.eye(rep.dim)).max() < 1e-12
    for b, p, m in zip(_column_blocks(basis, mults * table.dims), table.irreps, mults):
        copies = b.reshape(rep.dim, m, p.dim)
        acted = np.einsum("nja,gab->gnjb", copies, p.matrices).reshape(len(p.matrices), *b.shape)
        assert np.abs(rep.matrices @ b - acted).max(initial=0.0) <= INTERTWINE_ATOL


@pytest.mark.parametrize("name", rs.graph_preset_names() + RICH_GRAPHS)
def test_library_built_representations_carry_their_isotypic_frames(request, monkeypatch, name):
    from repstab import irreps
    from repstab.graphs import PERTURB_FULL
    from repstab.stabilize import replace_summands
    gog = request.getfixturevalue(name) if name in RICH_GRAPHS else rs.graph_preset(name)
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    # stabilized with a context built apart from the one that realized
    ctx_apart = context_apart(gog, p=1.0)
    rng = np.random.default_rng(11)
    lam = rs.uniform_lambda(ctx, 12)
    realized = rs.realize(lam, ctx)
    inst = rs.perturb(realized, gog, 1e-2, mode=PERTURB_FULL, rng=rng)
    out, _ = rs.stabilize(inst, ctx_apart)

    def failing(*args, **kwargs):
        raise AssertionError("a carried frame was decomposed again")

    monkeypatch.setattr(irreps, "isotypic_components", failing)
    table = ctx.vertex_tables[0]
    built = rs.rep_from_multiplicities(table, lam.blocks[0])
    target = np.array(lam.blocks[0])
    other = next(k for k, d in enumerate(table.dims) if d == 1 and k != table.trivial_index)
    target[[table.trivial_index, other]] += [-1, 1] if target[table.trivial_index] else [1, -1]
    reps = [(built, table), (rs.conjugate_rep(built, random_unitary(12, rng)), table),
            (replace_summands(realized.vertex_reps[0], target, table), table)]
    for rho in (realized, out):
        reps += list(zip(rho.vertex_reps, ctx.vertex_tables))
        reps += [(irreps.pullback(gog.injections[e], rho.vertex_reps[gog.graph.terminus(e)],
                                  ctx.edge_tables[e // 2]), ctx.edge_tables[e // 2])
                 for e in range(gog.graph.n_oriented_edges)]
    for rep, tab in reps:
        _assert_carried_frame(rep, tab)

    # a frameless twin, decomposed from its matrices, gives the same
    # intertwiner: the averages of these close pairs are nonsingular
    monkeypatch.undo()
    for e in range(gog.graph.n_oriented_edges):
        rep = irreps.pullback(gog.injections[e], out.vertex_reps[gog.graph.terminus(e)],
                              ctx.edge_tables[e // 2])
        w, v = np.linalg.eigh(random_hermitian(12, rng))
        near = rs.conjugate_rep(rep, (v * np.exp(1e-2j * w / np.abs(w).max())) @ v.conj().T)
        twins = [rs.unitary_rep(r.group, r.matrices, check=False) for r in (rep, near)]
        framed = rs.unitary_intertwiner(rep, near, table=ctx.edge_tables[e // 2])
        assert twins[0]._frame is None
        frameless = rs.unitary_intertwiner(*twins, table=ctx.edge_tables[e // 2])
        assert np.abs(framed - frameless).max() <= 1e-12


@pytest.mark.parametrize("dim", [12, 47])
@pytest.mark.parametrize("name", rs.graph_preset_names() + RICH_GRAPHS)
def test_realize_synthesizes_no_whole_representation(request, monkeypatch, name, dim):
    # realize builds every vertex representation as a frame: no matrices of
    # a whole group are synthesized and no representation is built from
    # dense matrices; the outputs' matrices, read afterwards, pass the gates
    from repstab import irreps
    gog = request.getfixturevalue(name) if name in RICH_GRAPHS else rs.graph_preset(name)
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    lam = rs.uniform_lambda(ctx, dim)
    whole, dense = [], []
    synthesize, init = irreps._synthesize, irreps.UnitaryRep.__init__

    def counted_synthesize(frame):
        whole.append(frame)
        return synthesize(frame)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._dense is not None:
            dense.append(self)

    monkeypatch.setattr(irreps, "_synthesize", counted_synthesize)
    monkeypatch.setattr(irreps.UnitaryRep, "__init__", counted_init)
    out = rs.realize(lam, ctx)
    assert whole == [] and dense == []
    assert all(rep._dense is None and "matrices" not in vars(rep) for rep in out.vertex_reps)
    monkeypatch.undo()
    # dense twins of the synthesized matrices: checked unitary homomorphisms
    twins = rs.almost_rep(gog, [rs.unitary_rep(r.group, r.matrices) for r in out.vertex_reps],
                          out.edge_unitaries)
    assert rs.rep_multiplicities(twins, ctx.vertex_tables) == lam
    assert rs.rep_multiplicities(out, ctx.vertex_tables) == lam
    assert rs.measure_defect(twins, gog, 2.0) <= 1e-10


def _check_letters_against_the_twisted_average(ctx, rho, out):
    """Each non-tree letter L of `out` against F = mean_h b(h) s a(h)^H, formed
    by brute force from the input letter s and the output restrictions a, b
    across its edge. Where F has full rank, L is the parent route's letter
    T s, with T the unitary intertwiner from s a s^H to b; where F is
    singular, L is unitary, intertwines a to b, and L^H F is Hermitian
    positive semidefinite. Returns the ranks seen, full (True) or not."""
    gog, seen = ctx.gog, set()
    for k, (o, t) in enumerate(gog.graph.endpoints):
        if k in gog.graph.tree.geometric_edges:
            continue
        s, letter, table = rho.edge_unitaries[k], out.edge_unitaries[k], ctx.edge_tables[k]
        origin = pullback(gog.injections[2 * k + 1], out.vertex_reps[o], table)
        terminus = pullback(gog.injections[2 * k], out.vertex_reps[t], table)
        f = (terminus.matrices @ s @ origin.matrices.conj().transpose(0, 2, 1)).mean(axis=0)
        sv = singular_values(f)
        full = sv[-1] > 1e-6 * sv[0]
        if full:
            oracle = rs.unitary_intertwiner(rs.conjugate_rep(origin, s), terminus, table=table) @ s
            assert np.abs(letter - oracle).max() <= 1e-12
        else:
            assert np.abs(letter @ letter.conj().T - np.eye(rho.dim)).max() <= 1e-12
            moved = terminus.matrices @ letter - letter @ origin.matrices
            assert np.abs(moved).max() <= 1e-12
            h = letter.conj().T @ f
            assert np.abs(h - h.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh((h + h.conj().T) / 2).min() >= -1e-12
        seen.add(bool(full))
    return seen


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("name", rs.graph_preset_names() + RICH_GRAPHS)
def test_stable_letters_match_the_polar_factor_oracle(request, name, p):
    gog = request.getfixturevalue(name) if name in RICH_GRAPHS else rs.graph_preset(name)
    ctx = rs.CorrectionContext.build(gog, p=p, seed=0)
    for dim in (12, 96):
        base = rs.realize(rs.uniform_lambda(ctx, dim), ctx, seed=0)
        rho = rs.perturb(base, gog, 1e-2, mode="edges-and-conjugate-vertices",
                         rng=np.random.default_rng(dim))
        out, report = rs.stabilize(rho, ctx, seed=0)
        assert report.output_defect <= 1e-9
        assert report.delta == rs.measure_defect(rho, gog, p)
        # the distance moved reuses the tree letters' norms from the input
        # defect's stack, and a norm does not depend on its stack
        assert report.epsilon == generator_distance(rho, out, p)
        seen = _check_letters_against_the_twisted_average(ctx, rho, out)
        assert seen == (set() if gog.graph.n_geometric_edges < gog.graph.n_vertices else {True})


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("block", [(3, 3, 3), (24, 24, 24)])
def test_singular_letter_average_takes_a_polar_factor(twisted_hnn, block, p):
    # the twisted HNN skew input of the cone-imbalance benchmark, at dims 12
    # and 96: one summand swapped off the kernel cone, in a Haar-random
    # basis, makes the letter's twisted average singular
    ctx = rs.CorrectionContext.build(twisted_hnn, p=p, seed=0)
    a, b, d = block
    exact = rs.realize(rs.MultiplicityVector("vertex", ((a, b, b, d),)), ctx, seed=0)
    skew = rs.rep_from_multiplicities(ctx.vertex_tables[0], (a, b + 1, b - 1, d))
    w = random_unitary(exact.dim, np.random.default_rng(sum(block)))
    rho = rs.almost_rep(twisted_hnn, [rs.conjugate_rep(skew, w)],
                        [w @ exact.edge_unitaries[0] @ w.conj().T], check=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # far-apart restrictions, by design
        # the swapped line alone puts the defect at dim 12 and p = 4 above 1
        out, report = rs.stabilize(rho, ctx, seed=0, guard=2.0)
    assert report.output_defect <= 1e-9
    assert _check_letters_against_the_twisted_average(ctx, rho, out) == {False}


def test_gap_warning_fires_where_a_vertex_gap_exceeds_its_allowance(twisted_hnn):
    # seeded random inputs: an exact representation with some copies of one
    # character traded for another, in a Haar-random basis. At p = 1 each
    # traded line gives the relator one singular value 2, so on many of
    # these inputs (37 of the 80) the allowance (delta * n^(1/p))^p * dim
    # equals the gap in exact arithmetic and only rounding in delta puts it
    # above or below. The warning must fire exactly where a vertex's gap
    # exceeds the allowance by more than the relative slack BOUND_RTOL, which
    # breaks the paper's hypothesis; a gap at its allowance neither warns nor
    # fails `hypothesis_ok` (compared without the slack, 5 of the 37 warned
    # with OpenBLAS on x86-64)
    ctx = rs.CorrectionContext.build(twisted_hnn, p=1.0)
    table = ctx.vertex_tables[0]
    at_allowance = 0
    for seed in range(80):
        rng = np.random.default_rng(seed)
        lam = rs.MultiplicityVector("vertex", ((0, 0, 0, 0),))
        while lam.is_zero() or not ctx.boundary.apply(lam).is_zero():
            lam = rs.MultiplicityVector("vertex", (tuple(rng.integers(0, 4, size=4).tolist()),))
        exact = rs.realize(lam, ctx)
        traded = np.array(lam.blocks[0])
        i, j = rng.choice(np.flatnonzero(traded)), rng.integers(4)
        k = rng.integers(1, traded[i] + 1)
        traded[i] -= k
        traded[j] += k
        w = random_unitary(exact.dim, rng)
        rho = rs.almost_rep(twisted_hnn,
                            [rs.conjugate_rep(rs.rep_from_multiplicities(table, traded), w)],
                            [w @ exact.edge_unitaries[0] @ w.conj().T], check=False)
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            _, report = rs.stabilize(rho, ctx, guard=4.0)
        warned = any("multiplicity gap" in str(r.message) for r in records)
        allowance = (report.delta * twisted_hnn.graph.n_vertices ** (1 / ctx.p)) ** ctx.p * rho.dim
        gaps = [int(np.abs(np.subtract(a, b)) @ t.dims) for a, b, t in
                zip(report.lambda_in.blocks, report.lambda_out.blocks, ctx.vertex_tables)]
        assert warned == any(gap > allowance * (1 + BOUND_RTOL) for gap in gaps), seed
        if warned:
            assert not report.hypothesis_ok
        if any(gap and abs(gap - allowance) <= BOUND_RTOL * gap for gap in gaps):
            at_allowance += 1
            assert not warned and report.hypothesis_ok, seed
    assert at_allowance > 0
