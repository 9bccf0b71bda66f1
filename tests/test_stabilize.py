import dataclasses
import sys
import warnings

import numpy as np
import pytest

import repstab as rs
from repstab.errors import GuardExceededError, IsomorphyError, NumericalError, ValidationError
from repstab.graphs import generator_distance
import repstab.irreps as irreps_mod
from repstab.irreps import pullback
from repstab.presets import group_preset
from repstab.rng import random_hermitian, random_unitary
from repstab.stabilize import replace_summands

from conftest import boundary_defect_bound, random_rep, trivial_embedding


@pytest.fixture(scope="module")
def amalgam_ctx(z2_amalgam):
    return rs.CorrectionContext.build(z2_amalgam, p=2.0)


def _imbalanced_instance(ctx, blocks_a, blocks_b, dim):
    ta, tb = ctx.vertex_tables
    r0 = rs.rep_from_multiplicities(ta, blocks_a)
    r1 = rs.rep_from_multiplicities(tb, blocks_b)
    return rs.almost_rep(ctx.gog, [r0, r1], [np.eye(dim)])


def test_realize_all_trivial_is_identity(preset_contexts):
    for name in rs.graph_preset_names():
        ctx = preset_contexts[(name, 2.0)]
        blocks = []
        for table in ctx.vertex_tables:
            b = [0] * len(table)
            b[table.trivial_index] = 4
            blocks.append(tuple(b))
        lam = rs.MultiplicityVector("vertex", tuple(blocks))
        rho = rs.realize(lam, ctx, seed=0)
        for rep in rho.vertex_reps:
            assert np.abs(rep.matrices - np.eye(4)).max() < 1e-12
        for u in rho.edge_unitaries:
            assert np.abs(u - np.eye(4)).max() < 1e-12


def test_realize_free_product_roundtrip(preset_contexts):
    ctx = preset_contexts[("Z2_free_Z3", 2.0)]
    lam = rs.MultiplicityVector("vertex", ((3, 3), (2, 2, 2)))
    rho = rs.realize(lam, ctx, seed=1)
    assert rho.dim == 6
    assert rs.measure_defect(rho, ctx.gog, 2.0) <= 1e-10
    assert rs.rep_multiplicities(rho, ctx.vertex_tables) == lam


def test_realize_hnn_regular(preset_contexts):
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    lam = rs.MultiplicityVector("vertex", ((1, 1, 1, 1),))
    rho = rs.realize(lam, ctx, seed=2)
    assert rs.measure_defect(rho, ctx.gog, 2.0) <= 1e-10
    assert rs.rep_multiplicities(rho, ctx.vertex_tables) == lam


@pytest.mark.parametrize("name", rs.graph_preset_names())
def test_realize_does_not_read_p(preset_contexts, name):
    ctx = preset_contexts[(name, 2.0)]
    lam = rs.uniform_lambda(ctx, 12)
    rho = rs.realize(lam, ctx, seed=5)
    other = rs.realize(lam, dataclasses.replace(ctx, p=4.0), seed=5)
    for a, b in zip(rho.vertex_reps, other.vertex_reps):
        assert np.array_equal(a.matrices, b.matrices)
    for a, b in zip(rho.edge_unitaries, other.edge_unitaries):
        assert np.array_equal(a, b)


def test_realize_rejects_non_kernel(amalgam_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 0), (1, 1)))
    with pytest.raises(ValidationError, match="kernel"):
        rs.realize(lam, amalgam_ctx, seed=0)


def test_realize_amalgam_nontrivial_edge(amalgam_ctx):
    lam = rs.MultiplicityVector("vertex", ((3, 2), (3, 2)))
    rho = rs.realize(lam, amalgam_ctx, seed=3)
    assert rs.measure_defect(rho, amalgam_ctx.gog, 2.0) <= 1e-10


def test_replace_summands_identity_when_equal(s3_table):
    rng = np.random.default_rng(0)
    rho = random_rep(s3_table, 6, rng)
    target = rs.multiplicities(rho, s3_table)
    assert replace_summands(rho, target, s3_table) is rho


def _check_swap(rho, target, table):
    lam = rs.multiplicities(rho, table)
    rho1 = replace_summands(rho, target, table)
    assert rs.multiplicities(rho1, table).tolist() == target.tolist()
    # the intermediate bound: changed dimension k gives distance <= 2*(k/n)^(1/p)
    k = int(np.abs(lam - target) @ table.dims) // 2
    for p in (1.0, 2.0):
        d = rs.rep_distance(rho, rho1, p)
        assert d <= 2 * (k / rho.dim) ** (1 / p) + 1e-9


def test_replace_summands_postconditions(s3_table):
    rng = np.random.default_rng(1)
    rho = random_rep(s3_table, 12, rng)
    lam = rs.multiplicities(rho, s3_table)
    target = lam.copy()
    # swap one trivial summand for a sign summand (or vice versa)
    if target[0] > 0:
        target[0] -= 1
        target[1] += 1
    else:
        target[1] -= 1
        target[0] += 1
    _check_swap(rho, target, s3_table)
    # nonabelian swaps in a Haar-random basis: one copy of a 3-dimensional
    # irreducible of S4, and of the 2-dimensional irreducible of D4, is
    # traded for trivial summands
    for name, mults, d in (("S4", [1, 1, 1, 2, 1], 3), ("D4", [1, 2, 1, 1, 2], 2)):
        table = rs.irrep_table(group_preset(name), seed=0)
        exact = rs.rep_from_multiplicities(table, mults)
        rho = rs.conjugate_rep(exact, random_unitary(exact.dim, rng))
        target = np.array(mults)
        target[int(np.flatnonzero(table.dims == d)[0])] -= 1
        target[table.trivial_index] += d
        _check_swap(rho, target, table)


@pytest.mark.parametrize("framed", [True, False])
@pytest.mark.parametrize("name, mults, target", [
    ("S3", [2, 1, 3], [3, 2, 2]), ("S4", [1, 1, 1, 2, 1], [4, 1, 1, 1, 1]),
    ("D4", [1, 2, 1, 1, 2], [3, 2, 1, 1, 1]), ("A4", [0, 2, 1, 3], [3, 2, 1, 2])])
def test_replace_summands_synthesizes_the_conjugated_canonical_representation(
        name, mults, target, framed):
    # the output is Q D(g) Q^H, D the canonical representation of the target
    # and Q the input frame's kept copies of each irreducible followed by its
    # share of the dropped copies, dealt out in table order
    table = rs.irrep_table(group_preset(name), seed=0)
    exact = rs.rep_from_multiplicities(table, mults)
    rho = rs.conjugate_rep(exact, random_unitary(exact.dim, np.random.default_rng(3)))
    if not framed:
        rho = rs.unitary_rep(rho.group, rho.matrices)
    basis = irreps_mod._isotypic_frame(rho, table).basis
    mults, target = np.array(mults), np.array(target)
    starts = np.cumsum(mults * table.dims) - mults * table.dims
    common = np.minimum(mults, target)
    kept = [basis[:, a:a + c * d] for a, c, d in zip(starts, common, table.dims)]
    dropped = np.hstack([basis[:, a + c * d:a + m * d] for a, c, m, d in
                         zip(starts, common, mults, table.dims)])
    q, used = [], 0
    for block, c, t, d in zip(kept, common, target, table.dims):
        q += [block, dropped[:, used:used + (t - c) * d]]
        used += (t - c) * d
    q = np.hstack(q)
    out = replace_summands(rho, target, table)
    assert np.array_equal(out._frame.basis, q) and out._dense is None
    oracle = q @ rs.rep_from_multiplicities(table, target).matrices @ q.conj().T
    assert np.abs(out.matrices - oracle).max() <= 1e-13


def test_replace_summands_rejects_an_inexact_representation(s3_table):
    # one matrix moved by 1e-7: the characters still round to multiplicities,
    # but the copies are not invariant, so the swap fails instead of returning
    rng = np.random.default_rng(6)
    exact = rs.rep_from_multiplicities(s3_table, [2, 1, 2])
    mats = rs.conjugate_rep(exact, random_unitary(exact.dim, rng)).matrices.copy()
    h = random_hermitian(exact.dim, rng)
    mats[1] += 1e-7 * h / np.abs(h).max()
    rho = rs.unitary_rep(exact.group, mats, check=False)
    assert rs.multiplicities(rho, s3_table).tolist() == [2, 1, 2]
    with pytest.raises(NumericalError, match="not invariant"):
        replace_summands(rho, np.array([3, 0, 2]), s3_table)


def test_correct_vertex_nothing_to_do(z2, z2_table, s3, s3_table):
    rng = np.random.default_rng(2)
    rho = random_rep(s3_table, 8, rng)
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    tau = pullback(hom, rho, z2_table)
    target = rs.multiplicities(rho, s3_table)
    out = rs.correct_vertex(hom, tau, rho, target, z2_table, s3_table, 2.0)
    assert rs.rep_distance(out, rho, 2.0) <= 1e-8


def test_correct_vertex_trivial_subgroup_resort(s3, s3_table):
    rng = np.random.default_rng(3)
    z1 = rs.cyclic_group(1)
    t1 = rs.irrep_table(z1)
    rho = random_rep(s3_table, 9, rng)
    lam = rs.multiplicities(rho, s3_table)
    target = lam.copy()
    if target[2] > 0:
        target[2] -= 1
        target[0] += 2
    else:
        target[0] -= 1
        target[1] += 1
    tau = rs.unitary_rep(z1, np.eye(9)[None])
    hom = trivial_embedding(s3, z1)
    out = rs.correct_vertex(hom, tau, rho, target, t1, s3_table, 2.0)
    assert rs.multiplicities(out, s3_table).tolist() == target.tolist()


def test_correct_vertex_across_trivial_group_takes_no_svd(s3, s3_table, monkeypatch):
    # nothing is measured across a trivial edge group, so p = 1 needs no SVD
    rng = np.random.default_rng(3)
    z1 = rs.cyclic_group(1)
    rho = rs.conjugate_rep(rs.rep_from_multiplicities(s3_table, [3, 2, 2]),
                           random_unitary(9, rng))
    tau = rs.unitary_rep(z1, np.eye(9)[None])
    target = np.array([2, 1, 3])

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    out = rs.correct_vertex(trivial_embedding(s3, z1), tau, rho, target,
                            rs.irrep_table(z1), s3_table, 1.0)
    assert rs.multiplicities(out, s3_table).tolist() == target.tolist()


def test_correct_vertex_near_exact_pair_at_p1_takes_no_svd(z2, z2_table, s3, s3_table,
                                                          monkeypatch):
    # across a Z2 tree edge with a near-exact constraint, the Frobenius bound
    # already lies below the far cut, so p = 1 needs no SVD of
    # a 9 x 9 matrix; the polar factor takes only SVDs of its smaller
    # multiplicity blocks
    rng = np.random.default_rng(6)
    rho = random_rep(s3_table, 9, rng)
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    w, v = np.linalg.eigh(random_hermitian(9, rng) * 1e-3)
    tau = rs.conjugate_rep(pullback(hom, rho, z2_table), (v * np.exp(1j * w)) @ v.conj().T)
    target = rs.multiplicities(rho, s3_table)
    real_svd = np.linalg.svd

    def svd_below_dim_9(a, *args, **kwargs):
        if a.shape[-1] == 9:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_below_dim_9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rs.correct_vertex(hom, tau, rho, target, z2_table, s3_table, 1.0)
    assert np.abs(pullback(hom, out, z2_table).matrices - tau.matrices).max() < 1e-8


# the swap moves the pullback by 0.34, so the intertwiner also warns that its
# inputs are far apart
@pytest.mark.filterwarnings("ignore:measured distance .* is not below 1/4")
def test_correct_vertex_swapped_multiplicity(z2, z2_table, s3, s3_table):
    rng = np.random.default_rng(4)
    base = rs.rep_from_multiplicities(s3_table, [3, 2, 2])
    rho = rs.conjugate_rep(base, random_unitary(9, rng))
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    # trade one trivial plus one sign for one 2-dim summand: the restriction
    # along the transposition is unchanged, so tau from rho itself matches
    target = np.array([2, 1, 3])
    assert (rs.restriction_matrix(hom, z2_table, s3_table) @ target).tolist() == \
           (rs.restriction_matrix(hom, z2_table, s3_table) @ np.array([3, 2, 2])).tolist()
    tau = pullback(hom, rho, z2_table)
    out = rs.correct_vertex(hom, tau, rho, target, z2_table, s3_table, 2.0)
    assert rs.multiplicities(out, s3_table).tolist() == target.tolist()
    err = np.abs(pullback(hom, out, z2_table).matrices - tau.matrices).max()
    assert err < 1e-8
    d = rs.rep_distance(out, rho, 2.0)
    assert d <= 2 * (2 / 9) ** 0.5 + 1e-6  # replaced block of dimension 2 in dim 9


def test_correct_vertex_rejects_mismatched_constraint(z2, z2_table, s3, s3_table):
    rho = rs.rep_from_multiplicities(s3_table, [2, 2, 1])
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    tau = pullback(hom, rs.rep_from_multiplicities(s3_table, [4, 1, 1]), z2_table)
    with pytest.raises(IsomorphyError):
        rs.correct_vertex(hom, tau, rho, np.array([2, 2, 1]), z2_table, s3_table, 2.0)


def test_correct_vertex_rejects_a_target_restricting_otherwise(z2, z2_table, s3, s3_table):
    # same dimension 7 on both sides, across the nontrivial Z2: the target
    # restricts to (4, 3), the constraint has (5, 2), read off its frame
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    tau = pullback(hom, rs.rep_from_multiplicities(s3_table, [4, 1, 1]), z2_table)
    target = np.array([2, 1, 2])
    rho = rs.rep_from_multiplicities(s3_table, target)
    with pytest.raises(IsomorphyError, match=r"restrict to \[4, 3\].* has \[5, 2\]") as info:
        rs.correct_vertex(hom, tau, rho, target, z2_table, s3_table, 2.0)
    assert info.value.left.tolist() == (rs.restriction_matrix(hom, z2_table, s3_table)
                                        @ target).tolist() == [4, 3]
    assert info.value.right.tolist() == rs.multiplicities(tau, z2_table).tolist() == [5, 2]


def test_correct_vertex_reads_the_split_frame_of_a_pullback(z2, z2_table, s3, s3_table):
    # a pullback of a framed representation is its parent's frame split into
    # the edge table: across a trivial edge group its multiplicities are R m,
    # and across Z2 the intertwiner reads the split basis
    z1 = rs.cyclic_group(1)
    parent = rs.conjugate_rep(rs.rep_from_multiplicities(s3_table, [3, 2, 2]),
                              random_unitary(9, np.random.default_rng(5)))
    hom = trivial_embedding(s3, z1)
    tau = pullback(hom, parent, rs.irrep_table(z1))
    assert tau._dense is None and tau._frame.mults.tolist() == [9]
    out = rs.correct_vertex(hom, tau, parent, np.array([2, 1, 3]), rs.irrep_table(z1),
                            s3_table, 2.0)
    assert rs.multiplicities(out, s3_table).tolist() == [2, 1, 3]
    with pytest.raises(IsomorphyError, match=r"restrict to \[7\].* has \[9\]"):
        rs.correct_vertex(hom, tau, parent, np.array([1, 2, 2]), rs.irrep_table(z1),
                          s3_table, 2.0)
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    tau = pullback(hom, parent, z2_table)
    assert tau._dense is None and tau._frame.mults.tolist() == [5, 4]
    out = rs.correct_vertex(hom, tau, parent, np.array([3, 2, 2]), z2_table, s3_table, 2.0)
    assert np.abs(pullback(hom, out, z2_table).matrices - tau.matrices).max() < 1e-8


def test_correct_vertex_rejects_a_constraint_of_another_group(s3, s3_table):
    # two trivial groups with tables of equal contents: the constraint's own
    # frame is not read in the other group's table
    z1, other = rs.cyclic_group(1), rs.cyclic_group(1)
    tau = rs.rep_from_multiplicities(rs.irrep_table(other), [9])
    rho = rs.rep_from_multiplicities(s3_table, [3, 2, 2])
    with pytest.raises(ValidationError, match="different groups"):
        rs.correct_vertex(trivial_embedding(s3, z1), tau, rho, np.array([3, 2, 2]),
                          rs.irrep_table(z1), s3_table, 2.0)


@pytest.mark.filterwarnings("ignore:measured distance .* is not below 1/4")
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("blocks", [((5, 5), (5, 5)), ((6, 4), (5, 5)), ((4, 6), (6, 4))])
def test_stabilize_child_is_correct_vertex_bit_for_bit(z2_amalgam, blocks, p):
    # the tree walk corrects each child by correct_vertex itself, so a call
    # on the walk's own inputs agrees with its output to the last bit
    ctx = rs.CorrectionContext.build(z2_amalgam, p=p)
    rng = np.random.default_rng(blocks[0][0] + blocks[1][0])
    inst = rs.perturb(_imbalanced_instance(ctx, *blocks, 10), ctx.gog, 1e-3, rng=rng)
    w = random_unitary(10, rng)
    inst = rs.almost_rep(ctx.gog, [rs.conjugate_rep(r, w) for r in inst.vertex_reps],
                         [w @ inst.edge_unitaries[0] @ w.conj().T], check=False)
    out, report = rs.stabilize(inst, ctx, guard=1.0)
    (step,) = ctx.gog.graph.tree.steps
    edge = step.edge_to_parent
    child = rs.correct_vertex(ctx.gog.injections[ctx.gog.graph.opposite(edge)],
                              pullback(ctx.gog.injections[edge], out.vertex_reps[step.parent],
                                       ctx.edge_tables[edge // 2]),
                              inst.vertex_reps[step.child], report.lambda_out.blocks[step.child],
                              ctx.edge_tables[edge // 2], ctx.vertex_tables[step.child], p)
    assert np.array_equal(child.matrices, out.vertex_reps[step.child].matrices)


def _near_identity(dim, rng):
    w, v = np.linalg.eigh(random_hermitian(dim, rng) * 1e-3)
    return (v * np.exp(1j * w)) @ v.conj().T


def _with_nan(letter):
    letter[0, 0] = np.nan
    return letter


# a tree step's intertwiner is assembled unchecked and certified through the
# corrected vertex: conjugate_rep refuses a non-unitary or non-finite one, and
# the edge constraint one that is unitary but does not intertwine
BROKEN_INTERTWINERS = [
    pytest.param("not unitary", lambda letter, rng: 1.001 * letter, id="scaled"),
    pytest.param("fails the edge constraint",
                 lambda letter, rng: letter @ _near_identity(len(letter), rng), id="turned"),
    pytest.param("NaN or Inf", lambda letter, rng: _with_nan(letter), id="nan"),
]


def _break_intertwiners(monkeypatch, breaking):
    from repstab import intertwiners
    assembled, rng = intertwiners._isotypic_polar, np.random.default_rng(0)
    monkeypatch.setattr(intertwiners, "_isotypic_polar",
                        lambda *args: breaking(assembled(*args), rng))


@pytest.mark.parametrize("match, breaking", BROKEN_INTERTWINERS)
def test_realize_refuses_a_tree_step_whose_output_fails(monkeypatch, s3_twisted_amalgam,
                                                        match, breaking):
    ctx = rs.CorrectionContext.build(s3_twisted_amalgam, p=2.0)
    lam = rs.MultiplicityVector("vertex", ((3, 2, 2), (3, 2, 2)))
    _break_intertwiners(monkeypatch, breaking)
    with pytest.raises(NumericalError, match=match):
        rs.realize(lam, ctx)


@pytest.mark.parametrize("given_as_matrices", [False, True])
@pytest.mark.parametrize("match, breaking", BROKEN_INTERTWINERS)
def test_stabilize_tags_a_tree_step_whose_output_fails(monkeypatch, amalgam_ctx, match,
                                                       breaking, given_as_matrices):
    # a framed child is conjugated as its frame, checked by W W^H = I; a
    # child given as matrices by its matrices, checked by u u^H = I
    rng = np.random.default_rng(1)
    inst = rs.perturb(_imbalanced_instance(amalgam_ctx, (5, 5), (5, 5), 10), amalgam_ctx.gog,
                      1e-3, rng=rng)
    w = random_unitary(10, rng)
    reps = [rs.conjugate_rep(r, w) for r in inst.vertex_reps]
    if given_as_matrices:
        reps = [rs.unitary_rep(r.group, r.matrices) for r in reps]
    inst = rs.almost_rep(amalgam_ctx.gog, reps, [w @ inst.edge_unitaries[0] @ w.conj().T],
                         check=False)
    _break_intertwiners(monkeypatch, breaking)
    with pytest.raises(NumericalError, match=r"^\[vertex_corrections\] .*" + match) as info:
        rs.stabilize(inst, amalgam_ctx, guard=1.0)
    if match == "not unitary":
        assert ("matrix" if given_as_matrices else "frame") in str(info.value)


def test_a_tree_step_forms_the_generator_images_twice(monkeypatch, s3_twisted_amalgam):
    # the constraint's images and the corrected vertex's, which certify the
    # step; the intertwiner's own are not formed
    st = sys.modules["repstab.stabilize"]
    ctx = rs.CorrectionContext.build(s3_twisted_amalgam, p=2.0)
    lam = rs.MultiplicityVector("vertex", ((3, 2, 2), (3, 2, 2)))
    calls, images = [], irreps_mod._images

    def counted(*args):
        calls.append(None)
        return images(*args)

    monkeypatch.setattr(irreps_mod, "_images", counted)
    monkeypatch.setattr(st, "_images", counted)
    rho = rs.realize(lam, ctx)
    assert len(ctx.gog.graph.tree.steps) == 1
    assert len(calls) == 2
    assert rs.measure_defect(rho, ctx.gog, 2.0) < 1e-12


@pytest.mark.parametrize("eta", [1e-9, 1e-7])
@pytest.mark.parametrize("name", ["Z2_free_Z3", "hnn_Z4_over_Z2"])
def test_stabilize_refuses_vertex_maps_that_are_not_homomorphisms(preset_contexts, name, eta):
    # the last element of each vertex turned by exp(i eta H): still unitary,
    # with characters that round to the same multiplicities, but no longer a
    # homomorphism; vertex maps given from outside carry no isotypic frame,
    # so stabilize decomposes them and checks them
    ctx = preset_contexts[(name, 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
    rng = np.random.default_rng(9)
    reps = []
    for rep in base.vertex_reps:
        w, v = np.linalg.eigh(random_hermitian(12, rng))
        mats = rep.matrices.copy()
        mats[-1] = (v * np.exp(1j * eta * w / np.abs(w).max())) @ v.conj().T @ mats[-1]
        reps.append(rs.unitary_rep(rep.group, mats, check=False))
        with pytest.raises(ValidationError, match="not a homomorphism"):
            rs.unitary_rep(rep.group, mats)
    rho = rs.almost_rep(ctx.gog, reps, base.edge_unitaries, check=False)
    assert rs.rep_multiplicities(rho, ctx.vertex_tables) == rs.rep_multiplicities(base, ctx.vertex_tables)
    with pytest.raises(NumericalError, match=r"^\[vertex_corrections\] "):
        rs.stabilize(rho, ctx, seed=0)


def test_stabilize_exact_input_fixed_point(preset_contexts):
    for ctx in preset_contexts.values():
        rho = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, report = rs.stabilize(rho, ctx, seed=1)
        assert report.epsilon <= 1e-7
        assert report.output_defect <= 1e-9
        assert report.delta <= 1e-10


@pytest.mark.parametrize("name", ["Z2_free_Z3", "infinite_dihedral", "hnn_Z4_over_Z2"])
def test_stabilize_perturbed_instances(preset_contexts, name):
    ctx = preset_contexts[(name, 2.0)]
    lam = rs.uniform_lambda(ctx, 6)
    base = rs.realize(lam, ctx, seed=0)
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, ctx.gog, 1e-3, rng=rng)
        out, report = rs.stabilize(inst, ctx, seed=rng)
        assert report.output_defect <= 1e-9
        assert rs.rep_multiplicities(out, ctx.vertex_tables) == report.lambda_out
        ratios.append(report.epsilon / report.delta)
    assert np.median(ratios) <= 10.0


def test_stabilize_tree_edges_are_identity(preset_contexts):
    ctx = preset_contexts[("Z2_free_Z3", 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 1e-2, rng=np.random.default_rng(8))
    out, _ = rs.stabilize(inst, ctx, seed=9)
    for k in sorted(ctx.gog.graph.tree.geometric_edges):
        assert np.abs(out.edge_unitaries[k] - np.eye(6)).max() == 0.0


@pytest.mark.parametrize("name", ["Z2_free_Z3", "infinite_dihedral", "hnn_Z4_over_Z2"])
def test_stabilize_keeps_root_with_target_multiplicities(preset_contexts, name):
    # a conjugated root is still exact with the lambda_out multiplicities,
    # so there is no summand to swap and it must come back bit-for-bit
    ctx = preset_contexts[(name, 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 1e-3, mode="edges-and-conjugate-vertices",
                      rng=np.random.default_rng(4))
    out, report = rs.stabilize(inst, ctx, seed=5)
    root = ctx.gog.graph.tree.root
    assert report.lambda_out.blocks[root] == report.lambda_in.blocks[root]
    assert np.array_equal(out.vertex_reps[root].matrices, inst.vertex_reps[root].matrices)
    assert report.output_defect <= 1e-9


def test_stabilize_guard_refusal(preset_contexts):
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 0.8, rng=np.random.default_rng(1))
    with pytest.raises(GuardExceededError) as info:
        rs.stabilize(inst, ctx, seed=0, guard=0.05)
    assert info.value.measured > 0.05


def test_stabilize_rejects_a_nan_guard(preset_contexts):
    # no defect compares >= NaN, so a NaN guard would refuse nothing
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 0.8, rng=np.random.default_rng(1))
    with pytest.raises(ValidationError, match="guard"):
        rs.stabilize(inst, ctx, seed=0, guard=float("nan"))


@pytest.fixture(scope="module")
def contexts_at_every_p():
    return {(name, p): rs.CorrectionContext.build(rs.graph_preset(name), p=p, seed=0)
            for name in rs.graph_preset_names() for p in (1.0, 2.0, 3.0, 4.0)}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", rs.graph_preset_names())
def test_a_bad_stable_letter_is_refused(contexts_at_every_p, name, bad, p):
    # stage 1 refuses the letter: on the free products a tree letter, in the
    # one scan of the relator images; on the HNN extension the loop letter,
    # before it enters its conjugation products, with no RuntimeWarning
    ctx = contexts_at_every_p[(name, p)]
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    letter = base.edge_unitaries[0].copy()
    letter[1, 2] = bad
    inst = rs.almost_rep(ctx.gog, base.vertex_reps, [letter], check=False)
    with pytest.raises(ValidationError, match="NaN or Inf"):
        rs.measure_defect(inst, ctx.gog, p)
    with pytest.raises(ValidationError, match="NaN or Inf"):
        rs.stabilize(inst, ctx, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_bad_letter_that_no_relator_reads_is_refused(bad):
    # a loop over the trivial group has no relator, so its letter enters no
    # product in stage 1; it is still refused there, with no RuntimeWarning
    gog = rs.graph_of_groups(rs.serre_graph(1, [(0, 0)]), [rs.cyclic_group(3)],
                             [rs.cyclic_group(1)], [[0], [0]])
    ctx = rs.CorrectionContext.build(gog, p=2.0)
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx)
    letter = base.edge_unitaries[0].copy()
    letter[1, 2] = bad
    inst = rs.almost_rep(gog, base.vertex_reps, [letter], check=False)
    with pytest.raises(ValidationError, match="NaN or Inf"):
        rs.measure_defect(inst, gog, 2.0)
    with pytest.raises(ValidationError, match="NaN or Inf"):
        rs.stabilize(inst, ctx)


def test_stabilize_engineered_imbalance(amalgam_ctx):
    rho = _imbalanced_instance(amalgam_ctx, (6, 4), (5, 5), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, report = rs.stabilize(rho, amalgam_ctx, seed=0, guard=1.0)
    assert out.dim == 10
    assert report.lambda_out != report.lambda_in
    assert report.lambda_out.blocks == ((6, 4), (6, 4))
    assert report.output_defect <= 1e-9
    assert float(report.cone_gap) == 1.0
    assert np.isfinite(report.epsilon)
    # the correction hypothesis holds here: gap 1 <= delta^2 * 10 = 4
    assert report.hypothesis_ok


def test_boundary_defect_bound_zero_for_exact(preset_contexts):
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    lhs, rhs = boundary_defect_bound(rho, ctx)
    assert lhs == 0.0 and rhs <= 1e-18


def test_boundary_defect_bound_phase_perturbation(preset_contexts):
    # scalar phases leave the multiplicity vector untouched
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    rho = rs.realize(rs.uniform_lambda(ctx, 8), ctx, seed=0)
    phased = rs.almost_rep(ctx.gog, rho.vertex_reps,
                           [np.exp(0.05j) * rho.edge_unitaries[0]])
    lhs, rhs = boundary_defect_bound(phased, ctx)
    assert lhs == 0.0 and rhs > 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_boundary_defect_bound_engineered(z2_amalgam, p):
    ctx = rs.CorrectionContext.build(z2_amalgam, p=p)
    for imbalance, dim in ((1, 10), (2, 12), (3, 16)):
        half = dim // 2
        rho = _imbalanced_instance(ctx, (half + imbalance, half - imbalance),
                                   (half, half), dim)
        lhs, rhs = boundary_defect_bound(rho, ctx)
        assert lhs > 0.0
        assert lhs <= rhs + 1e-12


def test_stabilize_report_json_roundtrip(preset_contexts):
    from repstab.serialize import report_to_json
    ctx = preset_contexts[("infinite_dihedral", 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 1e-3, rng=np.random.default_rng(2))
    _, report = rs.stabilize(inst, ctx, seed=3)
    obj = report_to_json(report)
    assert obj["dim"] == 6
    assert obj["lambda_in"]["blocks"] == [[3, 3], [3, 3]]
    assert set(obj["timings_ms"]) == {"measure_defect", "cone_projection",
                                      "vertex_corrections", "edge_corrections",
                                      "verification"}


def test_uniform_lambda_rejects_impossible_graph():
    # amalgam of Z2 and Z3 over... no such injective pair exists with Z2 edge;
    # instead check the error path via a graph where the recipe leaves the kernel:
    # Z3 and Z2 vertices over the trivial edge always works, so use dim where it
    # works and assert the positive path instead
    ctx = rs.CorrectionContext.build(rs.graph_preset("Z2_free_Z3"), p=2.0)
    lam = rs.uniform_lambda(ctx, 7)
    assert ctx.boundary.apply(lam).is_zero()
    assert int(ctx.boundary.vertex_norm(lam)) == 7


def test_context_rejects_an_infinite_exponent():
    with pytest.raises(ValidationError, match="p < inf"):
        rs.CorrectionContext.build(rs.graph_preset("Z2_free_Z3"), p=float("inf"))


def test_pipeline_reads_the_tree_of_the_graph(monkeypatch):
    # serre_graph computes the tree once; nothing downstream recomputes it
    ctx = rs.CorrectionContext.build(rs.graph_preset("infinite_dihedral"), p=2.0, seed=0)

    def recomputed(graph):
        raise AssertionError("spanning tree recomputed")

    monkeypatch.setattr("repstab.graphs.spanning_tree", recomputed)
    base = rs.realize(rs.uniform_lambda(ctx, 6), ctx, seed=0)
    inst = rs.perturb(base, ctx.gog, 1e-3, rng=np.random.default_rng(2))
    out, report = rs.stabilize(inst, ctx, seed=3)
    assert report.output_defect <= 1e-9
    assert rs.measure_defect(out, ctx.gog, 2.0) == report.output_defect


@pytest.mark.parametrize("mode", ["edges-only", "edges-and-conjugate-vertices"])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("name", rs.graph_preset_names() + ("z2_amalgam",))
def test_report_reuses_the_input_relator_norms_bit_for_bit(request, preset_contexts, name, p, mode):
    # delta is read off the per-relator norms of stage 1, and the distance
    # moved takes each tree letter's from there; both must be the numbers
    # that measure_defect and generator_distance give on their own, which
    # measure in stacks of other sizes (z2_amalgam has a nontrivial tree edge)
    ctx = (preset_contexts[(name, p)] if name in rs.graph_preset_names()
           else rs.CorrectionContext.build(request.getfixturevalue(name), p=p))
    for dim in (12, 96):
        base = rs.realize(rs.uniform_lambda(ctx, dim), ctx, seed=0)
        for seed in range(3):
            rho = rs.perturb(base, ctx.gog, 1e-2, mode=mode, rng=np.random.default_rng(seed))
            out, report = rs.stabilize(rho, ctx, seed=0)
            assert report.delta == rs.measure_defect(rho, ctx.gog, p)
            assert report.epsilon == generator_distance(rho, out, p)
            assert report.output_defect == rs.measure_defect(out, ctx.gog, p)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_letter_far_warning_follows_the_twisted_distance(preset_contexts, p):
    # the far warning of a stable letter reads its edge's conjugation-relator
    # norms from stage 1; for a unitary letter s those are the distances
    # |s a(h) s^H - b(h)|'_p between the twisted origin restriction a and the
    # terminus restriction b, so it fires exactly where that distance,
    # measured apart, reaches 1/4 (hnn has one vertex, whose multiplicities
    # hold, so the restrictions are the input's)
    ctx = preset_contexts[("hnn_Z4_over_Z2", p)]
    gog = ctx.gog
    base = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
    rng = np.random.default_rng(int(p))
    fired = set()
    for mode in ("edges-only", "edges-and-conjugate-vertices"):
        for eps in (0.1, 0.15, 0.2, 0.25, 0.3, 0.5):
            rho = rs.perturb(base, gog, eps, mode=mode, rng=rng)
            origin = pullback(gog.injections[1], rho.vertex_reps[0], ctx.edge_tables[0])
            terminus = pullback(gog.injections[0], rho.vertex_reps[0], ctx.edge_tables[0])
            far = rs.rep_distance(rs.conjugate_rep(origin, rho.edge_unitaries[0]), terminus, p)
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                _, report = rs.stabilize(rho, ctx, seed=0, guard=1.0)
            messages = [str(r.message) for r in records if "not below 1/4" in str(r.message)]
            assert len(messages) == (far >= 0.25)
            if messages:
                assert messages[0].startswith(f"measured distance {far:.3e} ")
            assert report.output_defect <= 1e-9
            fired.add(bool(messages))
    assert fired == {True, False}


def test_stabilize_takes_a_scaled_letter_to_its_polar_factor(preset_contexts):
    # stabilize does not check that its input letters are unitary: the
    # non-tree letter is the polar factor of its twisted average F(s), and
    # F(1.001 s) = 1.001 F(s) has the polar factor of F(s)
    ctx = preset_contexts[("hnn_Z4_over_Z2", 2.0)]
    base = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
    rho = rs.perturb(base, ctx.gog, 1e-3, rng=np.random.default_rng(0))
    scaled = rs.almost_rep(ctx.gog, rho.vertex_reps, [1.001 * rho.edge_unitaries[0]],
                           check=False)
    out, report = rs.stabilize(scaled, ctx, seed=0)
    letter = out.edge_unitaries[0]
    assert np.abs(letter @ letter.conj().T - np.eye(12)).max() < 1e-13
    assert report.output_defect < 1e-13
    assert np.abs(letter - rs.stabilize(rho, ctx, seed=0)[0].edge_unitaries[0]).max() < 1e-13
