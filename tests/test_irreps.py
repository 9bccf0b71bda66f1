import numpy as np
import pytest

import repstab as rs
import repstab.irreps as irreps_mod
from repstab.errors import MultiplicityError, NumericalError, ValidationError
from repstab.groups import trivial_embedding
from repstab.irreps import (CLUSTER_RETRIES, UnitaryRep, commutant_average, compress,
                            direct_sum, isotypic_components)
from repstab.presets import group_preset, group_preset_names
from repstab.rng import random_unitary

from conftest import elementwise_inner_products, random_rep


def test_regular_representation_trivial():
    g = rs.validate_group([[0]])
    reg = rs.regular_representation(g)
    assert reg.dim == 1
    np.testing.assert_allclose(reg.matrices[0], [[1.0]])


def test_regular_representation_z2(z2):
    reg = rs.regular_representation(z2)
    np.testing.assert_allclose(reg.matrices[0], np.eye(2))
    np.testing.assert_allclose(reg.matrices[1], [[0, 1], [1, 0]])


def test_regular_character_s3(s3):
    reg = rs.regular_representation(s3)
    np.testing.assert_allclose(reg.character, [6.0, 0.0, 0.0], atol=1e-12)


def test_irrep_table_trivial():
    g = rs.validate_group([[0]])
    table = rs.irrep_table(g)
    assert len(table) == 1 and table.irreps[0].dim == 1


def test_irrep_table_numpy_integer_seed(s3):
    plain, numpy_int = rs.irrep_table(s3, seed=3), rs.irrep_table(s3, seed=np.int64(3))
    for a, b in zip(plain.irreps, numpy_int.irreps, strict=True):
        assert np.array_equal(a.matrices, b.matrices)


def test_irrep_table_z2(z2_table):
    # frozen oracle: eigenvectors of the swap matrix split the regular
    # representation into characters (1, 1) and (1, -1)
    assert [p.dim for p in z2_table.irreps] == [1, 1]
    np.testing.assert_allclose(z2_table.irreps[0].character, [1, 1], atol=1e-10)
    np.testing.assert_allclose(z2_table.irreps[1].character, [1, -1], atol=1e-10)
    assert z2_table.trivial_index == 0


def test_irrep_table_s3(s3_table):
    assert s3_table.dims.tolist() == [1, 1, 2]
    assert int(np.sum(s3_table.dims ** 2)) == 6


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z4", "Z6", "V4", "S3", "D4", "Q8", "A4"])
def test_irrep_tables_complete_and_orthonormal(name):
    g = group_preset(name)
    table = rs.irrep_table(g, seed=0)
    assert int(np.sum(table.dims ** 2)) == g.order
    sizes = g.class_sizes
    chars = np.array([p.character for p in table.irreps])
    gram = (chars * sizes) @ chars.conj().T / g.order
    np.testing.assert_allclose(gram, np.eye(len(table)), atol=1e-8)
    for p in table.irreps:
        rep = p
        prod = np.matmul(rep.matrices[:, None], rep.matrices[None, :])
        assert np.abs(prod - rep.matrices[g.mult]).max() < 1e-10
        uerr = np.abs(np.einsum("gij,gkj->gik", rep.matrices, rep.matrices.conj())
                      - np.eye(p.dim)).max()
        assert uerr < 1e-10


@pytest.mark.parametrize("name", ["Z3", "Z4", "S3", "Q8"])
def test_irrep_table_seed_independent(name):
    g = group_preset(name)
    t1 = rs.irrep_table(g, seed=0)
    t2 = rs.irrep_table(g, seed=12345)
    assert t1.dims.tolist() == t2.dims.tolist()
    for p1, p2 in zip(t1.irreps, t2.irreps):
        np.testing.assert_allclose(p1.character, p2.character, atol=1e-8)


def test_multiplicities_regular_s3(s3, s3_table):
    m = rs.multiplicities(rs.regular_representation(s3), s3_table)
    assert m.tolist() == [1, 1, 2]


def test_multiplicities_trivial_three_dim(z2, z2_table):
    rep = rs.unitary_rep(z2, np.stack([np.eye(3), np.eye(3)]))
    assert rs.multiplicities(rep, z2_table).tolist() == [3, 0]


def test_multiplicities_sign_sign_trivial(z2, z2_table):
    # explicit character sum: chi = (3, -1) gives (1, 2)
    sign = np.diag([-1.0, -1.0, 1.0])
    rep = rs.unitary_rep(z2, np.stack([np.eye(3), sign]))
    assert rs.multiplicities(rep, z2_table).tolist() == [1, 2]


def test_multiplicities_rejects_non_representation(z2, z2_table):
    mats = np.stack([np.eye(2), np.exp(0.3j) * np.eye(2)])
    fake = UnitaryRep(group=z2, matrices=mats)  # bypasses construction checks
    with pytest.raises(MultiplicityError):
        rs.multiplicities(fake, z2_table)


@pytest.mark.parametrize("name", group_preset_names())
def test_multiplicities_match_elementwise_oracle(name):
    # distinct multiplicities in a random basis: a missing conjugate (complex
    # characters of Z3-Z12, Q8, A4) or class weight in the cached matrix
    # would move or break them
    table = rs.irrep_table(group_preset(name), seed=0)
    rng = np.random.default_rng(13)
    mults = rng.permutation(len(table)) + 1
    rep = rs.rep_from_multiplicities(table, mults)
    rep = rs.conjugate_rep(rep, random_unitary(rep.dim, rng))
    oracle = elementwise_inner_products(rep, table)
    np.testing.assert_allclose(oracle, mults, atol=1e-8)
    assert rs.multiplicities(rep, table).tolist() == mults.tolist()


def test_irrep_table_cached_arrays_are_read_only(s3_table):
    assert s3_table.weighted_conj_characters is s3_table.weighted_conj_characters
    for arr in (s3_table.dims, s3_table.weighted_conj_characters):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_multiplicity_additivity_random(s3_table):
    rng = np.random.default_rng(11)
    for _ in range(10):
        r1 = random_rep(s3_table, int(rng.integers(2, 8)), rng)
        r2 = random_rep(s3_table, int(rng.integers(2, 8)), rng)
        lhs = rs.multiplicities(direct_sum(r1, r2), s3_table)
        rhs = rs.multiplicities(r1, s3_table) + rs.multiplicities(r2, s3_table)
        assert lhs.tolist() == rhs.tolist()


def test_rep_from_multiplicities_roundtrip(s3_table):
    m = np.array([2, 0, 1])
    rep = rs.rep_from_multiplicities(s3_table, m)
    assert rep.dim == 4
    assert rs.multiplicities(rep, s3_table).tolist() == m.tolist()


def test_restriction_matrix_identity_hom(z2, z2_table):
    m = rs.restriction_matrix(rs.group_hom(z2, z2, np.arange(z2.order)), z2_table, z2_table)
    assert m.tolist() == [[1, 0], [0, 1]]


def test_restriction_matrix_from_trivial(s3, s3_table):
    z1 = rs.cyclic_group(1)
    t1 = rs.irrep_table(z1)
    m = rs.restriction_matrix(trivial_embedding(s3, z1), t1, s3_table)
    assert m.tolist() == [[1, 1, 2]]  # every column is the irrep dimension


def test_restriction_z2_in_s3(z2, z2_table, s3, s3_table):
    hom = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    m = rs.restriction_matrix(hom, z2_table, s3_table)
    # the 2-dim irrep restricts to trivial + sign along a transposition
    assert m[:, 2].tolist() == [1, 1]
    # column sums weighted by source dims equal the target dims
    assert (z2_table.dims @ m).tolist() == s3_table.dims.tolist()


def test_restriction_functoriality_chain(z2, z2_table, s3, s3_table):
    z1 = rs.cyclic_group(1)
    t1 = rs.irrep_table(z1)
    i = trivial_embedding(z2, z1)
    j = rs.group_hom(z2, s3, [0, 1], require_injective=True)
    lhs = rs.restriction_matrix(rs.group_hom(z1, s3, j.map[i.map]), t1, s3_table)
    rhs = rs.restriction_matrix(i, t1, z2_table) @ rs.restriction_matrix(j, z2_table, s3_table)
    assert lhs.tolist() == rhs.tolist()


def test_irreducible_components_counts(s3_table):
    rng = np.random.default_rng(3)
    rep = random_rep(s3_table, 9, rng)
    comps = rs.irreducible_components(rep, rng)
    mults = rs.multiplicities(rep, s3_table)
    assert len(comps) == int(mults.sum())
    assert sum(c.dim for c in comps) == rep.dim
    for c in comps:
        k = s3_table.match_character(c.character)
        assert s3_table.irreps[k].dim == c.dim


def test_match_character_rejects_a_reducible_character(s3_table):
    for j, k in ((0, 1), (0, 2), (2, 2)):
        with pytest.raises(NumericalError, match="does not match"):
            s3_table.match_character(s3_table.irreps[j].character + s3_table.irreps[k].character)
    for k, irrep in enumerate(s3_table.irreps):
        assert s3_table.match_character(irrep.character) == k


@pytest.mark.parametrize("name", group_preset_names())
def test_trivial_index_has_the_unit_character(name):
    table = rs.irrep_table(group_preset(name), seed=0)
    ones = [k for k, irrep in enumerate(table.irreps)
            if np.abs(irrep.character - 1.0).max() <= 1e-6]
    assert ones == [table.trivial_index]


def test_isotypic_components_in_table_order(s3_table):
    rep = rs.rep_from_multiplicities(s3_table, [2, 0, 1])
    bases = isotypic_components(rep, s3_table, [2, 0, 1])
    assert [b.shape for b in bases] == [(4, 2), (4, 0), (4, 2)]
    for p, b in zip(s3_table.irreps, bases):
        for j in range(b.shape[1] // p.dim):
            copy = b[:, j * p.dim:(j + 1) * p.dim]
            np.testing.assert_allclose(compress(rep.matrices, copy), p.matrices, atol=1e-12)


def test_isotypic_components_checks_the_counts_it_is_given(s3_table):
    rep = rs.rep_from_multiplicities(s3_table, [2, 0, 1])
    with pytest.raises(NumericalError, match="found 2 copies of irrep 0, expected 1"):
        isotypic_components(rep, s3_table, [1, 2, 1])


@pytest.mark.parametrize("name", group_preset_names())
def test_isotypic_components_compress_to_the_table(name):
    table = rs.irrep_table(group_preset(name), seed=0)
    rng = np.random.default_rng(4)
    mults = rng.integers(1, 4, size=len(table))
    exact = rs.rep_from_multiplicities(table, mults)
    rep = rs.conjugate_rep(exact, random_unitary(exact.dim, rng))
    for p, m, b in zip(table.irreps, mults, isotypic_components(rep, table, mults)):
        assert b.shape == (rep.dim, m * p.dim)
        assert np.abs(b.conj().T @ b - np.eye(b.shape[1])).max() <= 1e-12
        blocks = np.stack([np.kron(np.eye(m), x) for x in p.matrices])
        assert np.abs(compress(rep.matrices, b) - blocks).max() <= 1e-12


def _zero_draws(monkeypatch, n_zero):
    """Make the first n_zero commutant seeds the zero matrix; count all draws."""
    draws = []
    real = irreps_mod.random_hermitian

    def draw(n, rng):
        draws.append(n)
        return np.zeros((n, n), dtype=complex) if len(draws) <= n_zero else real(n, rng)

    monkeypatch.setattr(irreps_mod, "random_hermitian", draw)
    return draws


def test_irreducible_components_retries_after_degenerate_draw(s3_table, monkeypatch):
    # a zero seed averages to zero: the whole space is one reducible cluster
    rep = rs.rep_from_multiplicities(s3_table, [1, 1, 2])
    draws = _zero_draws(monkeypatch, 1)
    comps = rs.irreducible_components(rep, np.random.default_rng(0))
    assert len(draws) == 2
    assert sorted(c.dim for c in comps) == [1, 1, 2, 2]


def test_irreducible_components_gives_up_after_retries(s3_table, monkeypatch):
    rep = rs.rep_from_multiplicities(s3_table, [1, 1, 2])
    draws = _zero_draws(monkeypatch, 100)
    with pytest.raises(NumericalError, match="after 4 attempts.*reducible"):
        rs.irreducible_components(rep, np.random.default_rng(0))
    assert len(draws) == CLUSTER_RETRIES + 1 == 4


def test_unitary_rep_rejects_bad_input(z2, s3):
    with pytest.raises(ValidationError, match="unitary"):
        rs.unitary_rep(z2, np.stack([np.eye(2), 2 * np.eye(2)]))
    with pytest.raises(ValidationError, match="homomorphism"):
        rs.unitary_rep(z2, np.stack([np.eye(2), 1j * np.eye(2)]))
    # larger stacks: one element off unitarity just above the tolerance, and
    # unitaries that do not multiply like the group
    rng = np.random.default_rng(5)
    mats = rs.regular_representation(s3).matrices.copy()
    mats[4] *= 1.0 + 1e-9
    with pytest.raises(ValidationError, match="unitary"):
        rs.unitary_rep(s3, mats)
    with pytest.raises(ValidationError, match="homomorphism"):
        rs.unitary_rep(s3, np.stack([np.eye(5)] + [random_unitary(5, rng) for _ in range(5)]))


@pytest.mark.parametrize("name", ["S4", "Q8"])
def test_unitary_rep_check_sees_one_moved_non_generator(name):
    # the homomorphism check multiplies only by the generators; a move of any
    # other element still shows, in a product with it or as its value
    group = group_preset(name)
    exact = rs.regular_representation(group)
    rs.unitary_rep(group, exact.matrices)
    for g in sorted(set(range(group.order)) - set(group.generators.tolist())):
        turned = exact.matrices.copy()
        turned[g] = turned[g] * np.exp(1e-9j)
        moved = rs.unitary_rep(group, turned, check=False)
        with pytest.raises(ValidationError, match="homomorphism"):
            rs.unitary_rep(group, moved.matrices)
        scaled = exact.matrices.copy()
        scaled[g] *= 1.0 + 1e-9
        with pytest.raises(ValidationError, match="unitary"):
            rs.unitary_rep(group, scaled)


def test_unitary_rep_check_on_the_trivial_group():
    # Z1 has no generators: its one matrix must be I, not any unitary
    z1 = group_preset("Z1")
    rs.unitary_rep(z1, np.eye(2)[None])
    with pytest.raises(ValidationError, match="homomorphism"):
        rs.unitary_rep(z1, np.diag([1.0, 1j])[None])


def _complex_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# Oracles: the einsum formulas that compress and commutant_average
# replaced, on random complex (non-unitary) stacks.

@pytest.mark.parametrize("kind", ["rectangular", "identity"])
def test_compress_matches_einsum(kind):
    rng = np.random.default_rng(7)
    mats = _complex_stack(rng, 6, 7, 7)
    basis = np.linalg.qr(_complex_stack(rng, 7, 3))[0] if kind == "rectangular" else np.eye(7)
    ref = np.einsum("ij,gjk,kl->gil", basis.conj().T, mats, basis)
    out = compress(mats, basis)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12


def test_commutant_average_matches_einsum():
    rng = np.random.default_rng(8)
    mats = _complex_stack(rng, 6, 9, 9)
    h = _complex_stack(rng, 9, 9)
    ref = np.einsum("gij,jk,glk->il", mats, h, mats.conj()) / 6
    assert np.abs(commutant_average(mats, h) - ref).max() <= 1e-12


def _sparse_mults(table, dim, absent):
    """Multiplicities of total dimension `dim` with the irreducibles of odd
    (absent = 1) or even (absent = 0) index left out, unless there is only
    one; the first irreducible present, of dimension 1 in every table, takes
    what the others leave."""
    present = [k for k in range(len(table)) if k % 2 != absent] or [0]
    mults = np.zeros(len(table), dtype=int)
    for k in present[1:]:
        mults[k] = dim // len(present) // table.dims[k]
    mults[present[0]] = dim - mults @ table.dims
    return mults


@pytest.mark.parametrize("absent", [0, 1])
@pytest.mark.parametrize("dim", [1, 12, 96])
@pytest.mark.parametrize("name", group_preset_names())
def test_conjugate_rep_synthesizes_what_the_dense_product_gives(name, dim, absent):
    # a frame that defines its representation is conjugated by synthesis
    # from W = u F; the matrices are u rho(g) u^H to rounding, and the
    # result carries W
    table = rs.irrep_table(group_preset(name))
    mults = _sparse_mults(table, dim, absent)
    assert mults @ table.dims == dim and (dim == 1 or 0 in mults or len(table) == 1)
    rng = np.random.default_rng(dim)
    rep = rs.rep_from_multiplicities(table, mults)
    for _ in range(2):   # from the identity frame, then from a complex one
        u = random_unitary(dim, rng)
        out = rs.conjugate_rep(rep, u)
        assert np.abs(out.matrices - u @ rep.matrices @ u.conj().T).max() <= 1e-13
        assert out._frame.exact and np.array_equal(out._frame.basis, u @ rep._frame.basis)
        rep = out


def test_a_conjugated_frame_is_read_back_without_a_decomposition(s3_table, monkeypatch):
    rng = np.random.default_rng(5)
    rep = rs.rep_from_multiplicities(s3_table, [2, 0, 3])
    u, v = random_unitary(rep.dim, rng), random_unitary(rep.dim, rng)
    out = rs.conjugate_rep(rs.conjugate_rep(rep, u), v)

    def refuse(*args, **kwargs):
        raise AssertionError("a carried frame was decomposed")

    monkeypatch.setattr(irreps_mod, "isotypic_components", refuse)
    monkeypatch.setattr(irreps_mod, "multiplicities", refuse)
    frame = irreps_mod._isotypic_frame(out, rs.irrep_table(rs.symmetric_group(3)))
    assert frame is out._frame and frame.mults.tolist() == [2, 0, 3]
    assert np.array_equal(frame.basis, v @ (u @ np.eye(rep.dim)))


def _dense_inputs(s3_table, z2_table):
    """(name, rep) for representations whose frame does not define them: no
    frame, a frame found by decomposition, a pullback whose frame is split
    along its homomorphism, and one whose split is still pending."""
    rng = np.random.default_rng(11)
    exact = rs.conjugate_rep(rs.rep_from_multiplicities(s3_table, [1, 2, 2]),
                             random_unitary(7, rng))
    frameless = rs.unitary_rep(exact.group, exact.matrices)
    decomposed = rs.unitary_rep(exact.group, exact.matrices)
    irreps_mod._isotypic_frame(decomposed, s3_table)
    hom = rs.group_hom(z2_table.group, s3_table.group, [0, 1], require_injective=True)
    split = irreps_mod.pullback(hom, exact)
    irreps_mod._isotypic_frame(split, z2_table)
    return [("frameless", frameless), ("decomposed", decomposed), ("split", split),
            ("pending", irreps_mod.pullback(hom, exact))]


def test_pullback_copies_the_matrices_read_only_without_a_rescan(s3_table, z2_table,
                                                                 monkeypatch):
    rep = rs.rep_from_multiplicities(s3_table, [1, 2, 2])
    hom = rs.group_hom(z2_table.group, s3_table.group, [0, 1], require_injective=True)

    def refuse(*args, **kwargs):
        raise AssertionError("matrices checked again")

    monkeypatch.setattr(irreps_mod, "unitary_rep", refuse)
    out = irreps_mod.pullback(hom, rep)
    assert out.group is z2_table.group
    assert np.array_equal(out.matrices, rep.matrices[hom.map])
    assert not np.shares_memory(out.matrices, rep.matrices)
    assert not out.matrices.flags.writeable


@pytest.mark.parametrize("which", range(4))
def test_conjugate_rep_multiplies_a_frame_that_does_not_define_its_matrices(
        which, s3_table, z2_table):
    # the two-sided product of the dense path, bit for bit
    name, rep = _dense_inputs(s3_table, z2_table)[which]
    u = random_unitary(rep.dim, np.random.default_rng(which))
    out = rs.conjugate_rep(rep, u)
    assert np.array_equal(out.matrices, np.matmul(np.matmul(u, rep.matrices), u.conj().T)), name
    assert (out._frame is None) == (name == "frameless")
    if out._frame is not None:
        assert not out._frame.exact
        assert np.array_equal(out._frame.basis, u @ rep._frame.basis)


_HAAR6 = random_unitary(6, np.random.default_rng(2))
_NAN6, _INF6 = np.eye(6, dtype=complex), np.eye(6, dtype=complex)
_NAN6[2, 3], _INF6[2, 3] = np.nan, np.inf


@pytest.mark.parametrize("u, message", [
    (np.eye(5), r"expected a \(6, 6\) unitary"), (np.eye(7), r"expected a \(6, 6\) unitary"),
    (np.eye(6)[:, :5], r"expected a \(6, 6\) unitary"),
    (np.eye(6)[None], r"expected a \(6, 6\) unitary"), (np.ones(6), r"expected a \(6, 6\) unitary"),
    (2 * np.eye(6), "not unitary"), (2 * _HAAR6, "not unitary"),
    ((1 + 1e-9) * _HAAR6, "not unitary"), (0 * _HAAR6, "not unitary"),
    (_NAN6, "NaN or Inf"), (_INF6, "NaN or Inf")])
def test_conjugate_rep_refuses_a_matrix_that_is_not_a_unitary_of_its_size(s3_table, u, message):
    # on the synthesis path unitarity is read off rho'(e) = W W^H, on the
    # dense path off u u^H; conjugating by 2I would give rho(e) = 4I
    framed = rs.rep_from_multiplicities(s3_table, [1, 1, 2])
    for rep in (framed, rs.unitary_rep(framed.group, framed.matrices)):
        with pytest.raises(ValidationError, match=message):
            rs.conjugate_rep(rep, u)
