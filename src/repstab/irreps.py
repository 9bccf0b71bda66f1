"""Unitary representations of finite groups and their irreducible pieces.

The table of irreducibles is computed numerically: a random Hermitian
matrix is averaged over the group action to produce a generic element of the
commutant, whose eigenspaces are irreducible invariant subspaces. Applied to
the regular representation this yields every irreducible, deduplicated by
character and put in a canonical order (ascending dimension, then descending
lexicographic character over the class order). The canonical order fixes the
coordinates of every multiplicity vector produced by the package. With the
table, `isotypic_components` splits any representation into copies of its
irreducibles, in their coordinates, from matrix coefficients: no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MultiplicityError, NumericalError, ValidationError
from .groups import FiniteGroup, GroupHom
from .rng import as_generator, derived_generator, random_hermitian

UNITARY_ATOL = 1e-10      # construction-time exactness for reps
MULT_ATOL = 1e-6          # integrality tolerance for multiplicities
IRREDUCIBLE_ATOL = 1e-8   # |<chi, chi'> - delta| for irreducibility and table orthonormality
INVARIANCE_ATOL = 1e-8    # max |M B - B B^H M B| of a subspace B counted as invariant
CLUSTER_GAP_RTOL = 1e-7   # relative eigenvalue gap for commutant clustering
CLUSTER_RETRIES = 3       # fresh commutant draws after a failed clustering
CHARACTER_DECIMALS = 6    # rounding used to deduplicate and order characters


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """Exact unitary representation: one matrix per group element.

    `character` is computed on first use and kept, read-only.
    """

    group: FiniteGroup
    matrices: np.ndarray  # (|G|, dim, dim) complex

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def character(self) -> np.ndarray:
        """Trace at one representative per conjugacy class."""
        reps = list(self.group.class_representatives)
        return _read_only(np.trace(self.matrices[reps], axis1=1, axis2=2))

    def __repr__(self) -> str:
        return f"UnitaryRep({self.group!r}, dim={self.dim})"


def unitary_rep(group: FiniteGroup, matrices, check: bool = True) -> UnitaryRep:
    """Build a UnitaryRep, verifying unitarity and the homomorphism property."""
    mats = np.ascontiguousarray(matrices, dtype=complex)
    if mats.shape != (group.order, mats.shape[1], mats.shape[1]) or mats.shape[1] == 0:
        raise ValidationError(f"expected ({group.order}, d, d) matrices, got {mats.shape}")
    if not np.all(np.isfinite(mats.view(float))):
        raise ValidationError("matrices contain NaN or Inf")
    if check:
        eye = np.eye(mats.shape[1])
        uerr = np.abs(mats @ mats.conj().transpose(0, 2, 1) - eye).max()
        if uerr > UNITARY_ATOL:
            raise ValidationError(f"matrices not unitary: max deviation {uerr:.3e}")
        # rho(e) = I and rho(s) rho(h) = rho(sh) for each generator s and every
        # h give rho(g) rho(h) = rho(gh) for all pairs, since every g is a
        # product of generators; rho(e) = I follows from the products unless
        # the group is trivial
        herr = np.abs(mats[group.identity] - eye).max()
        for s in group.generators:
            herr = max(herr, np.abs(mats[s] @ mats - mats[group.mult[s]]).max())
        if herr > UNITARY_ATOL:
            raise ValidationError(f"not a homomorphism: max deviation {herr:.3e}")
    mats.setflags(write=False)
    return UnitaryRep(group=group, matrices=mats)


def regular_representation(group: FiniteGroup) -> UnitaryRep:
    """Left-translation permutation representation of dimension |G|."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    g_idx = np.repeat(np.arange(n), n)
    h_idx = np.tile(np.arange(n), n)
    mats[g_idx, group.mult[g_idx, h_idx], h_idx] = 1.0
    return unitary_rep(group, mats, check=False)


def direct_sum(*reps: UnitaryRep) -> UnitaryRep:
    """Block-diagonal direct sum of representations of one group."""
    if not reps:
        raise ValidationError("need at least one representation")
    group = reps[0].group
    if any(r.group is not group for r in reps):
        raise ValidationError("direct sum requires a common group")
    n = group.order
    total = sum(r.dim for r in reps)
    mats = np.zeros((n, total, total), dtype=complex)
    off = 0
    for r in reps:
        mats[:, off:off + r.dim, off:off + r.dim] = r.matrices
        off += r.dim
    return unitary_rep(group, mats, check=False)


def conjugate_rep(rep: UnitaryRep, u: np.ndarray) -> UnitaryRep:
    """g -> u rho(g) u* for a fixed unitary u."""
    mats = np.matmul(np.matmul(u, rep.matrices), u.conj().T)
    return unitary_rep(rep.group, mats, check=False)


def pullback(hom: GroupHom, rep: UnitaryRep) -> UnitaryRep:
    """Representation of the source group: h -> rho(hom(h))."""
    if rep.group is not hom.target:
        raise ValidationError("representation group does not match hom target")
    return unitary_rep(hom.source, rep.matrices[hom.map], check=False)


def compress(mats: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis^H M basis for each M in a stack: the compression onto span(basis).

    On a subspace invariant under the stack this is the restricted
    representation in the coordinates of the orthonormal columns of `basis`.
    """
    return basis.conj().T @ mats @ basis


def commutant_average(mats: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Group average of M h M^H over a stack of unitaries: an element of the commutant."""
    return (mats @ h @ mats.conj().transpose(0, 2, 1)).sum(axis=0) / mats.shape[0]


@dataclass(frozen=True, eq=False)
class IrrepTable:
    """Complete list of irreducibles of a group, in canonical order.

    `dims`, `trivial_index` and `weighted_conj_characters` are computed on
    first use and kept; the arrays are read-only.
    """

    group: FiniteGroup
    irreps: tuple[UnitaryRep, ...]

    @cached_property
    def dims(self) -> np.ndarray:
        return _read_only(np.array([p.dim for p in self.irreps]))

    def __len__(self) -> int:
        return len(self.irreps)

    @cached_property
    def trivial_index(self) -> int:
        return self.match_character(np.ones(self.group.n_classes))

    @cached_property
    def weighted_conj_characters(self) -> np.ndarray:
        """(classes, irreps) matrix of |C| conj(chi_k(C)) / |G|: a character
        times it is the vector of its inner products with the irreducibles."""
        chars = np.array([p.character for p in self.irreps])
        return _read_only(self.group.class_sizes[:, None] * chars.conj().T / self.group.order)

    def match_character(self, character: np.ndarray) -> int:
        """Index k of the irrep with this character: the character's inner
        products with the table are e_k within MULT_ATOL, else NumericalError."""
        products = character @ self.weighted_conj_characters
        k = int(np.argmax(np.abs(products)))
        if np.abs(products - np.eye(len(self))[k]).max() > MULT_ATOL:
            raise NumericalError("character does not match any irreducible in the table")
        return k


@dataclass(frozen=True, eq=False)
class Component:
    """One irreducible invariant subspace of a decomposed representation."""

    basis: np.ndarray      # (dim, d) orthonormal columns
    character: np.ndarray  # per conjugacy class

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _cluster_eigenvalues(w: np.ndarray) -> list[np.ndarray]:
    scale = max(float(np.abs(w).max()), 1.0)
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_GAP_RTOL * scale)
    return np.split(np.arange(w.size), cuts + 1)


def irreducible_components(rep: UnitaryRep, rng=None) -> list[Component]:
    """Split a representation into irreducible invariant subspaces.

    Averages a random Hermitian matrix over the group action; the eigenspaces
    of the result are generically irreducible invariant subspaces. Each
    candidate cluster (eigenvalues closer than CLUSTER_GAP_RTOL) is checked
    for invariance under the group's generators and for irreducibility; on
    failure (eigenvalue collision across components) the seed is re-drawn,
    up to CLUSTER_RETRIES more times.
    """
    rng = as_generator(rng)
    group, mats = rep.group, rep.matrices
    n = rep.dim
    sizes = group.class_sizes
    reps_idx = list(group.class_representatives)
    gens = mats[group.generators]
    last_err = ""
    for attempt in range(CLUSTER_RETRIES + 1):
        h = random_hermitian(n, rng)
        avg = commutant_average(mats, h)
        w, q = np.linalg.eigh((avg + avg.conj().T) / 2.0)
        comps: list[Component] = []
        ok = True
        for idxs in _cluster_eigenvalues(w):
            basis = q[:, idxs]
            inv_err = np.abs(gens @ basis - basis @ compress(gens, basis)).max(initial=0.0)
            if inv_err > INVARIANCE_ATOL:
                ok, last_err = False, f"cluster not invariant (deviation {inv_err:.3e})"
                break
            chi = np.trace(compress(mats[reps_idx], basis), axis1=1, axis2=2)
            norm2 = float(np.sum(sizes * np.abs(chi) ** 2)) / group.order
            if abs(norm2 - 1.0) > IRREDUCIBLE_ATOL:
                ok, last_err = False, f"cluster reducible (|chi|^2 = {norm2:.6f})"
                break
            comps.append(Component(basis=basis, character=chi))
        if ok:
            if sum(c.dim for c in comps) != n:
                raise NumericalError("component dimensions do not sum to the total")
            return comps
    raise NumericalError(
        f"eigenvalue clustering failed after {CLUSTER_RETRIES + 1} attempts: {last_err}")


def isotypic_components(rep: UnitaryRep, table: IrrepTable, mults) -> list[np.ndarray]:
    """Orthonormal bases of the copies of each irreducible in rep, in table order.

    Basis k is (dim, m_k d_k): p_0 x_j, ..., p_{d-1} x_j for each vector x_j
    of an orthonormal basis of the range of p_0, with the matrix coefficients
    p_a = (d/|G|) sum_g conj(pi_k(g)[a, 0]) rho(g) (Serre, Linear Representations
    of Finite Groups, 2.7, Prop. 8), so rep acts on copy j by `table.irreps[k]`.
    One `eigh` of sum_k (k + 1) p_0 labels each range by rounded eigenvalues; the
    counts must equal `mults`, the caller's `multiplicities(rep, table)`, and
    each basis be invariant to INVARIANCE_ATOL under the group's generators.
    """
    mats, n, gens = rep.matrices, rep.dim, rep.group.generators
    coeffs = [np.tensordot(p.matrices[:, :, 0].conj() * (p.dim / len(mats)), mats, axes=(0, 0))
              for p in table.irreps]
    w, x = np.linalg.eigh(sum((k + 1) * c[0] for k, c in enumerate(coeffs)))
    bases = []
    for k, (p, m, c) in enumerate(zip(table.irreps, mults, coeffs)):
        xk = x[:, np.rint(w) == k + 1]
        if xk.shape[1] != m:
            raise NumericalError(f"found {xk.shape[1]} copies of irrep {k}, expected {m}")
        basis = (c @ xk).transpose(1, 2, 0).reshape(n, -1)
        acted = (basis.reshape(-1, p.dim) @ p.matrices[gens]).reshape(len(gens), *basis.shape)
        err = np.abs(mats[gens] @ basis - acted).max(initial=0.0)
        if err > INVARIANCE_ATOL:
            raise NumericalError(f"copies of irrep {k} not invariant ({err:.1e})")
        bases.append(basis)
    return bases


def _character_key(character: np.ndarray) -> tuple:
    rounded = np.round(character, CHARACTER_DECIMALS) + 0.0  # kill -0.0
    return tuple(x for v in rounded for x in (float(v.real), float(v.imag)))


def irrep_table(group: FiniteGroup, seed=0) -> IrrepTable:
    """All irreducibles of a group, from its regular representation.

    The regular representation contains every irreducible, so decomposing it
    and deduplicating by character yields a complete table. Completeness is
    certified by sum(dim^2) == |G| and pairwise character orthonormality.
    """
    reg = regular_representation(group)
    comps = irreducible_components(
        reg, derived_generator(seed, 0) if isinstance(seed, (int, np.integer)) else seed)
    by_char: dict[tuple, Component] = {}
    for comp in comps:
        by_char.setdefault(_character_key(comp.character), comp)

    # unitary_rep certifies each compression as a unitary homomorphism
    entries = [unitary_rep(group, compress(reg.matrices, comp.basis), check=True)
               for comp in by_char.values()]
    entries.sort(key=lambda p: (p.dim, tuple(-x for x in _character_key(p.character))))

    dims2 = sum(p.dim ** 2 for p in entries)
    if dims2 != group.order:
        raise NumericalError(
            f"incomplete irreducible table: sum of dim^2 is {dims2}, expected {group.order}")
    table = IrrepTable(group=group, irreps=tuple(entries))
    chars = np.array([p.character for p in entries])
    gram = chars @ table.weighted_conj_characters
    if np.abs(gram - np.eye(len(entries))).max() > IRREDUCIBLE_ATOL:
        raise NumericalError("characters are not orthonormal")
    return table


def multiplicities(rep: UnitaryRep, table: IrrepTable) -> np.ndarray:
    """Integer multiplicity of each irreducible in a representation.

    Computed as one product of the character with the table's class-weighted
    conjugate characters, and rounded; raises MultiplicityError if any value
    is farther than MULT_ATOL from an integer (the input is then not an
    exact representation).
    """
    if rep.group is not table.group:
        raise ValidationError("representation and table belong to different groups")
    raw = rep.character @ table.weighted_conj_characters
    if np.abs(raw.imag).max() > MULT_ATOL or np.abs(raw.real - np.round(raw.real)).max() > MULT_ATOL:
        worst = np.abs(raw - np.round(raw.real)).max()
        raise MultiplicityError(
            f"multiplicities are not integers (max deviation {worst:.3e}); "
            "input is not an exact representation")
    out = np.round(raw.real).astype(int)
    if int(out @ table.dims) != rep.dim:
        raise MultiplicityError("multiplicities do not account for the full dimension")
    return out


def rep_from_multiplicities(table: IrrepTable, mults) -> UnitaryRep:
    """Block-diagonal representation with the given multiplicity vector."""
    mults = np.asarray(mults, dtype=int)
    if mults.shape != (len(table),) or mults.min() < 0:
        raise ValidationError("multiplicity vector must be nonnegative, one entry per irrep")
    blocks = []
    for p, m in zip(table.irreps, mults):
        blocks.extend([p] * int(m))
    if not blocks:
        raise ValidationError("total dimension must be positive")
    return direct_sum(*blocks)


def restriction_matrix(hom: GroupHom, table_source: IrrepTable,
                       table_target: IrrepTable) -> np.ndarray:
    """Integer matrix of restriction-along-hom on multiplicity vectors.

    Column j holds the multiplicities, in the source group, of the pullback
    of the target group's j-th irreducible. Applying the matrix to rho's
    multiplicity vector gives the multiplicity vector of the pullback of rho.
    """
    if table_source.group is not hom.source or table_target.group is not hom.target:
        raise ValidationError("tables do not match the homomorphism")
    cols = []
    for p in table_target.irreps:
        cols.append(multiplicities(pullback(hom, p), table_source))
    return np.stack(cols, axis=1)
