from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repstab as rs
from repstab import cones
from repstab.errors import ValidationError

from conftest import brute_force_projection, enumerate_cone, enumerate_kernel_cone


@pytest.fixture(scope="module")
def dihedral_ctx():
    return rs.CorrectionContext.build(rs.graph_preset("infinite_dihedral"), p=2.0)


@pytest.fixture(scope="module")
def amalgam_ctx(z2_amalgam):
    return rs.CorrectionContext.build(z2_amalgam, p=2.0)


@pytest.fixture(scope="module")
def s3_loop_ctx():
    # single vertex S3, loop over the trivial group: vertex norm weights (1,1,2)
    s3 = rs.symmetric_group(3)
    z1 = rs.cyclic_group(1)
    graph = rs.serre_graph(1, [(0, 0)])
    gog = rs.graph_of_groups(graph, [s3], [z1], [[0], [0]], name="s3_loop")
    return rs.CorrectionContext.build(gog, p=2.0)


def test_vertex_norm_zero(dihedral_ctx):
    b = dihedral_ctx.boundary
    zero = rs.MultiplicityVector("vertex", tuple((0,) * n for n in b.vertex_block_lengths))
    assert b.vertex_norm(zero) == 0


def test_vertex_norm_single_vertex_s3(s3_loop_ctx):
    lam = rs.MultiplicityVector("vertex", ((1, 1, 2),))
    assert s3_loop_ctx.boundary.vertex_norm(lam) == 6


def test_vertex_norm_two_vertices(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 0), (0, 1)))
    assert dihedral_ctx.boundary.vertex_norm(lam) == Fraction(3, 2)


def test_edge_norm_counts_both_orientations(s3_loop_ctx):
    b = s3_loop_ctx.boundary
    assert b.edge_norm(rs.MultiplicityVector("edge", ((0,), (0,)))) == 0
    assert b.edge_norm(rs.MultiplicityVector("edge", ((4,), (0,)))) == 2
    assert b.edge_norm(rs.MultiplicityVector("edge", ((3,), (3,)))) == 3


def test_boundary_zero_on_realizable(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((1, 0), (0, 1)))
    assert dihedral_ctx.boundary.apply(lam).is_zero()


def test_boundary_detects_dimension_mismatch(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 0), (0, 1)))
    image = dihedral_ctx.boundary.apply(lam)
    values = sorted(x for b in image.blocks for x in b)
    assert values == [-1, 1]


def test_boundary_amalgam_identity_inclusions(amalgam_ctx):
    lam = rs.MultiplicityVector("vertex", ((6, 4), (5, 5)))
    image = amalgam_ctx.boundary.apply(lam)
    assert set(image.blocks) == {(-1, 1), (1, -1)}


def test_apply_matches_per_edge_restrictions(preset_contexts, amalgam_ctx, s3_loop_ctx):
    # reference: on each oriented edge, the restriction at the terminus minus
    # the restriction at the origin, in Python integers; the entries are
    # large enough that int64 arithmetic would overflow
    rng = np.random.default_rng(0)
    presets = [ctx for (_, p), ctx in preset_contexts.items() if p == 2.0]
    for ctx in (*presets, amalgam_ctx, s3_loop_ctx):
        b, graph = ctx.boundary, ctx.gog.graph
        lam = rs.MultiplicityVector("vertex", tuple(
            tuple(int(x) * 2 ** 62 + 1 for x in rng.integers(0, 5, size=n))
            for n in b.vertex_block_lengths))
        expected = []
        for e in range(graph.n_oriented_edges):
            image = 0
            for sign, hom_e, v in ((1, e, graph.terminus(e)),
                                   (-1, graph.opposite(e), graph.origin(e))):
                r = rs.restriction_matrix(ctx.gog.injections[hom_e], ctx.edge_tables[e // 2],
                                          ctx.vertex_tables[v]).astype(object)
                image = image + sign * (r @ np.array(lam.blocks[v], dtype=object))
            expected.append(tuple(image))
        assert b.apply(lam).blocks == tuple(expected)


def test_matrix_is_read_only(dihedral_ctx):
    with pytest.raises(ValueError):
        dihedral_ctx.boundary.matrix[0, 0] = 7


def test_project_fixes_kernel_points(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 1), (1, 2)))
    assert rs.project_to_kernel_cone(lam, dihedral_ctx.boundary) == lam
    zero = rs.MultiplicityVector("vertex", tuple(
        (0,) * n for n in dihedral_ctx.boundary.vertex_block_lengths))
    assert rs.project_to_kernel_cone(zero, dihedral_ctx.boundary) == zero


def test_project_dimension_imbalance(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 0), (0, 1)))
    out = rs.project_to_kernel_cone(lam, dihedral_ctx.boundary)
    b = dihedral_ctx.boundary
    assert b.apply(out).is_zero() and out.is_nonnegative()
    assert b.vertex_norm(lam - out) == Fraction(1, 2)
    assert b.vertex_norm(out) <= b.vertex_norm(lam)
    dist, argmin = brute_force_projection(lam, b)
    assert b.vertex_norm(lam - out) == dist
    assert out == argmin


def test_project_requires_cone_membership(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((-1, 0), (0, 0)))
    with pytest.raises(ValidationError, match="cone"):
        rs.project_to_kernel_cone(lam, dihedral_ctx.boundary)


def test_project_matches_brute_force_on_amalgam(amalgam_ctx):
    b = amalgam_ctx.boundary
    kernel = enumerate_kernel_cone(b, 7)
    rng = np.random.default_rng(0)
    for _ in range(25):
        flat = rng.integers(0, 4, size=4)
        lam = rs.MultiplicityVector.from_flat("vertex", flat.tolist(), b.vertex_block_lengths)
        out = rs.project_to_kernel_cone(lam, b)
        dist, argmin = brute_force_projection(lam, b, kernel)
        assert b.vertex_norm(lam - out) == dist
        assert out == argmin  # lexicographic tie-break matches the oracle


def test_project_lexicographic_tie_break(amalgam_ctx):
    # ((6,4),(5,5)) has optima at distance 1; the smallest in coordinate order
    # is ((5,4),(5,4))
    lam = rs.MultiplicityVector("vertex", ((6, 4), (5, 5)))
    out = rs.project_to_kernel_cone(lam, amalgam_ctx.boundary)
    assert out.blocks == ((5, 4), (5, 4))


def test_pad_with_trivial_identity_case(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 1), (1, 2)))
    assert rs.pad_with_trivial(lam, 3, dihedral_ctx.boundary) == lam


def test_pad_with_trivial_from_zero(dihedral_ctx):
    b = dihedral_ctx.boundary
    zero = rs.MultiplicityVector("vertex", tuple((0,) * n for n in b.vertex_block_lengths))
    out = rs.pad_with_trivial(zero, 3, b)
    assert out.blocks == ((3, 0), (3, 0))
    assert b.apply(out).is_zero()


def test_pad_with_trivial_stays_in_kernel(amalgam_ctx):
    b = amalgam_ctx.boundary
    rng = np.random.default_rng(1)
    kernel = enumerate_kernel_cone(b, 5)
    for _ in range(10):
        lam = kernel[int(rng.integers(0, len(kernel)))]
        target = int(b.vertex_norm(lam)) + int(rng.integers(0, 4))
        out = rs.pad_with_trivial(lam, target, b)
        assert b.apply(out).is_zero()
        assert b.vertex_norm(out) == target


def test_pad_with_trivial_rejects_small_target(dihedral_ctx):
    lam = rs.MultiplicityVector("vertex", ((2, 1), (1, 2)))
    with pytest.raises(ValidationError, match="below"):
        rs.pad_with_trivial(lam, 2, dihedral_ctx.boundary)


def test_pad_with_trivial_rejects_non_integral_target(dihedral_ctx):
    b = dihedral_ctx.boundary
    lam = rs.MultiplicityVector("vertex", ((2, 1), (1, 2)))
    with pytest.raises(ValidationError, match="target norm must be an integer"):
        rs.pad_with_trivial(lam, 4.9, b)
    for target in (4, 4.0, np.int64(4), np.float64(4.0)):
        assert b.vertex_norm(rs.pad_with_trivial(lam, target, b)) == 4


@pytest.mark.parametrize("entry", [1.5, 2.7, np.float64(0.5), "1", None, True])
def test_multiplicity_vector_rejects_non_integral_entry(entry):
    with pytest.raises(ValidationError, match="multiplicity must be an integer"):
        rs.MultiplicityVector("vertex", ((1, entry),))


def test_multiplicity_vector_accepts_integral_entries():
    lam = rs.MultiplicityVector("vertex", ((1, 2.0), (np.int64(3), np.float64(4.0))))
    assert lam.blocks == ((1, 2), (3, 4))
    assert all(type(x) is int for x in lam.flatten())


def test_trivial_vector_in_kernel_for_all_presets():
    for name in rs.graph_preset_names():
        ctx = rs.CorrectionContext.build(rs.graph_preset(name), p=2.0)
        triv = ctx.boundary.trivial_vector()
        assert ctx.boundary.apply(triv).is_zero()


def test_trivial_vector_in_kernel_amalgam(amalgam_ctx):
    triv = amalgam_ctx.boundary.trivial_vector()
    assert amalgam_ctx.boundary.apply(triv).is_zero()


def test_vector_arithmetic():
    a = rs.MultiplicityVector("vertex", ((2, 1), (0, 3)))
    b = rs.MultiplicityVector("vertex", ((1, 2), (0, 1)))
    assert (a + b).blocks == ((3, 3), (0, 4))
    assert (a - b).blocks == ((1, -1), (0, 2))
    assert a._binary(b, min).blocks == ((1, 1), (0, 1))
    assert not (a - b).is_nonnegative()
    with pytest.raises(ValidationError):
        a + rs.MultiplicityVector("vertex", ((1,), (0, 1)))


def test_projection_norm_cap_binding(s3_loop_ctx):
    # trivial edge group on a loop: every vector is in the kernel already
    b = s3_loop_ctx.boundary
    for lam in enumerate_cone(b.vertex_dims, 5):
        assert rs.project_to_kernel_cone(lam, b) == lam


def _equal_blocks_map():
    # synthetic map on two blocks of four unit-weight coordinates whose
    # kernel is the vectors with equal blocks
    eye4 = np.eye(4, dtype=np.int64)
    return rs.BoundaryMap(
        vertex_dims=((1, 1, 1, 1), (1, 1, 1, 1)),
        edge_dims=((1, 1, 1, 1), (1, 1, 1, 1)),
        matrix=np.block([[-eye4, eye4], [eye4, -eye4]]),
        trivial_indices=(0, 0))


def test_projection_sequential_lexicographic_branch():
    # a synthetic map with enough coordinates and range that the positional
    # tie-break objective would overflow doubles, forcing more than one
    # tie-break chunk
    b = _equal_blocks_map()
    lam = rs.MultiplicityVector("vertex", ((100, 50, 30, 20), (90, 60, 25, 25)))
    n = 8
    cap = sum(lam.flatten())
    assert n * np.log2(cap + 2) >= 52  # confirms more than one chunk
    out = rs.project_to_kernel_cone(lam, b)
    assert b.apply(out).is_zero()
    assert b.vertex_norm(out) <= b.vertex_norm(lam)
    # kernel demands equal blocks; the coordinatewise optimum takes the
    # smaller of each pair, which is also lexicographically smallest
    assert out.blocks == ((90, 50, 25, 20), (90, 50, 25, 20))
    assert b.vertex_norm(lam - out) == 15


def test_projection_solve_count(amalgam_ctx, monkeypatch):
    calls = []
    real = cones.milp

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "milp", counting)
    lam = rs.MultiplicityVector("vertex", ((6, 4), (5, 5)))
    rs.project_to_kernel_cone(lam, amalgam_ctx.boundary)
    assert len(calls) == 0  # the link forms a spanning tree: the DP solves it
    # cap 400 puts D_cap = 200 over the DP budget; HiGHS takes chunks of 6
    # and 2 coordinates, since 6 * log2(402) < 52
    lam = rs.MultiplicityVector("vertex", ((100, 50, 30, 20), (90, 60, 25, 25)))
    rs.project_to_kernel_cone(lam, _equal_blocks_map())
    assert len(calls) == 3


def test_dp_tie_break_matches_brute_force_on_every_input():
    # three Z4 vertices in a chain over Z2: every input of weighted total at
    # most 4, against the lexicographically smallest brute-force optimum
    z4, z2 = rs.cyclic_group(4), rs.cyclic_group(2)
    gog = rs.graph_of_groups(rs.serre_graph(3, [(0, 1), (1, 2)]), [z4] * 3, [z2] * 2,
                             [[0, 2]] * 4, name="z4_chain")
    b = rs.CorrectionContext.build(gog, p=2.0, seed=0).boundary
    assert b.edge_tree is not None
    _assert_projects_as_brute_force(b, 4)


def _lex_optimum(b, kmat, flat):
    """The lexicographically smallest of the kernel points `kmat` no larger
    than `flat` at the least weighted distance from it."""
    w = b.vertex_weights
    feasible = kmat[kmat @ w <= flat @ w]
    dists = np.abs(feasible - flat) @ w
    return min(tuple(int(x) for x in row) for row in feasible[dists == dists.min()])


def _assert_projects_as_brute_force(b, total):
    """Every input of weighted total at most `total` projects to the
    lexicographically smallest brute-force optimum; over 1000 of them lie
    off the kernel."""
    lmat = np.array([lam.flatten() for lam in enumerate_cone(b.vertex_dims, total)])
    kmat = lmat[~(lmat @ b.matrix.T).any(axis=1)]
    off_kernel = 0
    for flat in lmat:
        lam = rs.MultiplicityVector.from_flat("vertex", flat.tolist(), b.vertex_block_lengths)
        out = rs.project_to_kernel_cone(lam, b)
        assert out.flatten() == _lex_optimum(b, kmat, flat), (flat, out.blocks)
        off_kernel += bool((b.matrix @ flat).any())
    assert off_kernel > 1000


def test_cycle_of_links_falls_back_to_highs(milp_calls):
    # two Z2 vertices joined by two Z2 edges: the links form a cycle
    z2 = rs.cyclic_group(2)
    gog = rs.graph_of_groups(rs.serre_graph(2, [(0, 1), (0, 1)]), [z2, z2], [z2, z2],
                             [[0, 1]] * 4, name="z2_double_edge")
    b = rs.CorrectionContext.build(gog, p=2.0, seed=0).boundary
    assert b.edge_tree is None
    kernel = enumerate_kernel_cone(b, 10)
    for lam in (((6, 4), (5, 5)), ((3, 0), (0, 2)), ((1, 4), (2, 2))):
        lam = rs.MultiplicityVector("vertex", lam)
        out = rs.project_to_kernel_cone(lam, b)
        dist, argmin = brute_force_projection(lam, b, kernel)
        assert b.vertex_norm(lam - out) == dist
        assert out == argmin
    assert len(milp_calls) > 0


def test_loop_that_changes_dimension_falls_back_to_highs(milp_calls):
    # the one-vertex map with kernel x1 = x0 + x7, whose loop does not
    # cancel the edge dimensions: no graph of groups has it, since
    # restrictions preserve dimension, so it is built from its matrix, and
    # a map built so has no edge tree; HiGHS takes it, however small the input
    row = np.array([[1, -1, 0, 0, 0, 0, 0, 1]])
    b = rs.BoundaryMap(vertex_dims=((1,) * 8,), edge_dims=((1,), (1,)),
                       matrix=np.vstack([row, -row]), trivial_indices=(0,))
    assert b.edge_tree is None
    lam = rs.MultiplicityVector("vertex", ((3, 4, 0, 1, 0, 0, 0, 2),))
    out = rs.project_to_kernel_cone(lam, b)
    dist, argmin = brute_force_projection(lam, b, enumerate_kernel_cone(b, 10))
    assert b.vertex_norm(lam - out) == dist
    assert out == argmin
    assert len(milp_calls) > 0


def _chain_of_z4(n_vertices, endpoints):
    z4, z2 = rs.cyclic_group(4), rs.cyclic_group(2)
    gog = rs.graph_of_groups(rs.serre_graph(n_vertices, endpoints), [z4] * n_vertices,
                             [z2] * len(endpoints), [[0, 2]] * (2 * len(endpoints)))
    return rs.CorrectionContext.build(gog, p=2.0, seed=0)


def test_edgeless_graph_keeps_its_tree():
    b = _chain_of_z4(1, []).boundary
    assert b.matrix.shape == (0, 4)
    assert b.edge_tree is not None
    assert b.edge_tree.loops == ((),) and b.edge_tree.links == ()
    lam = rs.MultiplicityVector("vertex", ((1, 0, 3, 2),))
    assert rs.project_to_kernel_cone(lam, b) == lam


def test_a_cycle_of_links_keeps_every_row():
    # a triangle, then a pendant edge after the edge that closes the cycle:
    # the cycle clears the tree, and the pendant edge's rows are still
    # written, as the restrictions of each edge say
    ctx = _chain_of_z4(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    b = ctx.boundary
    assert b.edge_tree is None
    assert b.matrix.shape == (16, 16)
    for k, (o, t) in enumerate(ctx.gog.graph.endpoints):
        block = np.zeros((2, 16), dtype=np.int64)
        for sign, e, v in ((1, 2 * k, t), (-1, 2 * k + 1, o)):
            block[:, 4 * v:4 * v + 4] += sign * rs.restriction_matrix(
                ctx.gog.injections[e], ctx.edge_tables[k], ctx.vertex_tables[v])
        np.testing.assert_array_equal(b.matrix[4 * k:4 * k + 4], np.vstack([block, -block]))


def test_links_that_close_a_cycle_clear_the_tree():
    # three links on four vertices: a spanning tree as a path, none as a
    # triangle that leaves the fourth vertex apart
    one = np.ones((1, 1), dtype=np.int64)

    def tree(endpoints):
        edges = [(o, t, (1,), one, one) for o, t in endpoints]
        return rs.BoundaryMap._from_edges(((1,),) * 4, edges, (0,) * 4).edge_tree

    assert tree([(0, 1), (1, 2), (2, 3)]) is not None
    assert tree([(0, 1), (1, 2), (2, 0)]) is None


def test_hand_built_map_has_no_tree_and_reaches_highs(milp_calls):
    # `_equal_blocks_map` has one link between its two blocks, a spanning
    # tree, but only a map built from a graph's edges carries an edge tree
    b = _equal_blocks_map()
    assert b.edge_tree is None
    with pytest.raises(TypeError):
        rs.BoundaryMap(b.vertex_dims, b.edge_dims, b.matrix, b.trivial_indices, None)
    lam = rs.MultiplicityVector("vertex", ((2, 0, 1, 0), (0, 1, 1, 1)))
    out = rs.project_to_kernel_cone(lam, b)
    assert len(milp_calls) > 0
    dist, argmin = brute_force_projection(lam, b)
    assert b.vertex_norm(lam - out) == dist
    assert out == argmin


def _v4_link_and_loop():
    # two V4 vertices joined over Z2, and a Z2 loop at vertex 0 included as
    # two different subgroups
    v4, z2 = rs.klein_four_group(), rs.cyclic_group(2)
    gog = rs.graph_of_groups(rs.serre_graph(2, [(0, 1), (0, 0)]), [v4, v4], [z2, z2],
                             [[0, 1], [0, 1], [0, 1], [0, 2]], name="v4_link_and_loop")
    return rs.CorrectionContext.build(gog, p=2.0, seed=0).boundary


def test_dp_with_a_loop_and_a_link_matches_brute_force(milp_calls):
    # the DP filters candidates by a nonzero loop and joins the vertices by
    # a link
    b = _v4_link_and_loop()
    tree = b.edge_tree
    assert [len(loops) for loops in tree.loops] == [1, 0] and tree.loops[0][0].any()
    assert [link[:2] for link in tree.links] == [(0, 1)]
    _assert_projects_as_brute_force(b, 6)
    assert len(milp_calls) == 0


def test_highs_tie_break_is_the_lexicographic_minimum(milp_calls, monkeypatch):
    # z4_chain on HiGHS alone (a zero candidate budget forces the fallback):
    # the first tie-break chunk has an objective near 1e15, where a relative
    # gap of 1e-4 accepted (3, 1, 2, 2) for the last block; (3, 0, 3, 2) is
    # at the same distance 7/3 and smaller, and the DP returns it
    z4, z2 = rs.cyclic_group(4), rs.cyclic_group(2)
    gog = rs.graph_of_groups(rs.serre_graph(3, [(0, 1), (1, 2)]), [z4] * 3, [z2] * 2,
                             [[0, 2]] * 4, name="z4_chain")
    b = rs.CorrectionContext.build(gog, p=2.0, seed=0).boundary
    lam = rs.MultiplicityVector("vertex", ((0, 1, 2, 2), (3, 2, 2, 2), (3, 3, 3, 2)))
    by_dp = rs.project_to_kernel_cone(lam, b)
    assert len(milp_calls) == 0
    monkeypatch.setattr(cones, "DP_MAX_CANDIDATES", 0)
    by_highs = rs.project_to_kernel_cone(lam, b)
    assert len(milp_calls) > 0
    assert by_highs == by_dp
    assert by_highs.blocks == ((0, 1, 2, 5), (3, 1, 2, 2), (3, 0, 3, 2))
    assert b.vertex_norm(lam - by_highs) == Fraction(7, 3)


def _off_kernel(b, *blocks):
    lam = rs.MultiplicityVector("vertex", blocks)
    assert not b.apply(lam).is_zero()
    return lam


def test_tree_tables_are_built_once_per_cap(monkeypatch):
    # z4_chain: inputs of unequal vertex dimensions lie off the kernel, and
    # the cap is their weighted total over 3
    calls = []
    real = cones._candidates

    def counting(w, d_cap):
        calls.append(d_cap)
        return real(w, d_cap)

    monkeypatch.setattr(cones, "_candidates", counting)
    b, other = (_chain_of_z4(3, [(0, 1), (1, 2)]).boundary for _ in range(2))
    for blocks in (((3, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)),   # cap 2
                   ((0, 2, 1, 0), (2, 0, 0, 0), (1, 0, 0, 0)),   # cap 2
                   ((2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)),   # cap 1
                   ((1, 0, 0, 1), (0, 3, 0, 0), (0, 0, 2, 0)),   # cap 2
                   ((4, 0, 0, 0), (3, 0, 0, 0), (2, 0, 0, 0))):  # cap 3
        rs.project_to_kernel_cone(_off_kernel(b, *blocks), b)
    assert calls == [2] * 3 + [1] * 3 + [3] * 3
    assert list(b._tables) == [2, 1, 3]
    # another map builds its own tables, and leaves those of `b` alone
    rs.project_to_kernel_cone(_off_kernel(other, (2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)),
                              other)
    rs.project_to_kernel_cone(_off_kernel(b, (0, 0, 2, 0), (1, 0, 0, 0), (1, 0, 0, 0)), b)
    assert calls == [2] * 3 + [1] * 3 + [3] * 3 + [1] * 3
    assert list(b._tables) == [2, 1, 3] and list(other._tables) == [1]


def test_tree_tables_are_read_only():
    b = _v4_link_and_loop()
    rs.project_to_kernel_cone(_off_kernel(b, (2, 1, 0, 0), (0, 0, 1, 0)), b)
    (cands, folds), = b._tables.values()
    arrays = [*cands, *(a for fold in folds for _, _, gx, gy, _ in fold for a in (gx, gy))]
    assert len(arrays) == 2 + 2 * 2
    assert not any(a.flags.writeable for a in arrays)


def test_interleaved_caps_and_maps_project_as_brute_force():
    # two maps, at every cap an input of total at most 6 reaches, in two
    # shuffled passes: each input comes again after others on both maps,
    # and must still reach the brute-force optimum (the tie-break fixes
    # costs per call, never the kept tables)
    rng = np.random.default_rng(0)
    cases = []
    for b in (_chain_of_z4(3, [(0, 1), (1, 2)]).boundary, _v4_link_and_loop()):
        lmat = np.array([lam.flatten() for lam in enumerate_cone(b.vertex_dims, 6)])
        kmat = lmat[~(lmat @ b.matrix.T).any(axis=1)]
        for flat in lmat[rng.choice(len(lmat), 120, replace=False)]:
            cases.append((b, flat, _lex_optimum(b, kmat, flat)))
    caps = {(b.n_vertices, int(flat @ b.vertex_weights) // b.n_vertices) for b, flat, _ in cases}
    assert {(3, 1), (3, 2), (2, 1), (2, 2), (2, 3)} <= caps   # (vertices, cap)
    for order in (rng.permutation(len(cases)), rng.permutation(len(cases))):
        for i in order:
            b, flat, lex = cases[i]
            lam = rs.MultiplicityVector.from_flat("vertex", flat.tolist(), b.vertex_block_lengths)
            assert rs.project_to_kernel_cone(lam, b).flatten() == lex, (flat, lex)


def test_tree_tables_hold_at_most_the_candidate_budget(monkeypatch):
    # z4_chain has 5, 15 and 35 candidates per vertex at caps 1, 2 and 3; a
    # budget of 40 holds caps 1 and 3 together, but not 2 and 3
    b = _chain_of_z4(3, [(0, 1), (1, 2)]).boundary
    inputs = {1: ((2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)),
              2: ((3, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)),
              3: ((4, 0, 0, 0), (3, 0, 0, 0), (2, 0, 0, 0))}
    unbounded = {cap: rs.project_to_kernel_cone(_off_kernel(b, *blocks), b)
                 for cap, blocks in inputs.items()}
    assert list(b._tables) == [1, 2, 3]
    monkeypatch.setattr(cones, "DP_MAX_CANDIDATES", 40)
    b = _chain_of_z4(3, [(0, 1), (1, 2)]).boundary
    for cap, held in ((3, [3]), (2, [2]), (1, [2, 1]), (3, [1, 3]), (2, [2])):
        assert rs.project_to_kernel_cone(_off_kernel(b, *inputs[cap]), b) == unbounded[cap]
        assert list(b._tables) == held
        rows = sum(np.array([len(c) for c in cands]) for cands, _ in b._tables.values())
        assert rows.max() <= 40


@pytest.mark.parametrize("blocks", [
    ((2 ** 70, 0), (0, 0, 0)),                   # no int64 holds a coordinate
    ((2 ** 62, 2 ** 62), (0, 0, 0)),             # the total wraps to -2^63
    ((2 ** 63 - 1, 2 ** 63 - 1), (12, 0, 0))])   # the total wraps to 10
def test_projection_refuses_a_total_beyond_int64(blocks):
    # Z2_free_Z3 over the trivial group: the kernel is the vectors of equal
    # vertex dimensions; the last input wrapped to cap 5 and returned
    # (0, 5 | 5, 0, 0) at distance 2^63, though (12, 0 | 12, 0, 0) is at 2^63 - 7
    b = rs.CorrectionContext.build(rs.graph_preset("Z2_free_Z3"), p=2.0, seed=0).boundary
    with pytest.raises(ValidationError, match="int64"):
        rs.project_to_kernel_cone(_off_kernel(b, *blocks), b)
    # a kernel point is returned as it is, at any size
    big = rs.MultiplicityVector("vertex", ((2 ** 70, 0), (2 ** 70, 0, 0)))
    assert rs.project_to_kernel_cone(big, b) is big


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2000), min_size=4, max_size=4),
       st.lists(st.integers(0, 2000), min_size=4, max_size=4))
def test_chunked_tie_break_takes_the_smaller_block(a, b):
    # (min(a, b), min(a, b)) is at the optimal distance sum |a - b| and is
    # the lexicographically smallest kernel point there
    low = tuple(map(min, a, b))
    lam = rs.MultiplicityVector("vertex", (tuple(a), tuple(b)))
    assert rs.project_to_kernel_cone(lam, _equal_blocks_map()).blocks == (low, low)


def test_tie_break_keeps_earlier_chunks_fixed():
    # one vertex of eight unit-weight coordinates with the kernel x1 = x0 + x7;
    # the optima are x0 <= 50, x7 <= 30, x0 + x7 >= 60 at distance 20, so the
    # smallest x0 is 30 and forces x7 = 30, although x7 alone could reach 10;
    # cap 165 puts x7 in a second chunk, since 8 * log2(167) >= 52
    row = np.array([[1, -1, 0, 0, 0, 0, 0, 1]])
    b = rs.BoundaryMap(vertex_dims=((1,) * 8,), edge_dims=((1,), (1,)),
                       matrix=np.vstack([row, -row]), trivial_indices=(0,))
    lam = rs.MultiplicityVector("vertex", ((50, 60, 5, 5, 5, 5, 5, 30),))
    out = rs.project_to_kernel_cone(lam, b)
    assert out.blocks == ((30, 60, 5, 5, 5, 5, 5, 30),)
    assert b.vertex_norm(lam - out) == 20


def test_projection_distance_tracked_by_boundary_norm(dihedral_ctx, amalgam_ctx):
    # the projection distance is controlled by the boundary norm with a
    # graph-dependent constant; fit and report it per graph
    for ctx in (dihedral_ctx, amalgam_ctx):
        b = ctx.boundary
        worst = Fraction(0)
        for lam in enumerate_cone(b.vertex_dims, 10):
            out = rs.project_to_kernel_cone(lam, b)
            dist = b.vertex_norm(lam - out)
            image = b.edge_norm(b.apply(lam))
            ratio = dist / max(image, Fraction(1))
            worst = max(worst, ratio)
        assert worst <= 4  # generous; the fitted values are printed below
        print(f"\nfitted projection constant for {ctx.gog.name}: {float(worst):.3f}")
