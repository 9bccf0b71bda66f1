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
Representations built here carry that split, their isotypic frame. A
frame W with multiplicities m_k defines the representation
g -> W (sum_k I_{m_k} kron pi_k(g)) W^H. `rep_from_multiplicities` writes
these blocks for W = I, and `conjugate_rep` of a representation whose frame
defines it (as does `stabilize.replace_summands`) synthesizes its matrices
from the new frame: the d_k^2 products of the columns of copy slots a and b
of each irreducible k, summed against the coefficients pi_k(g)[a, b] in one
product with the table (`_synthesize`). A frame found by decomposition, or
split along a pullback, matches its matrices only to INTERTWINE_ATOL, so
conjugating such a representation, or one without a frame, multiplies its
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import MultiplicityError, NumericalError, ValidationError
from .groups import FiniteGroup, GroupHom
from .rng import as_generator, derived_generator, random_hermitian

UNITARY_ATOL = 1e-10      # construction-time exactness for reps
MULT_ATOL = 1e-6          # integrality tolerance for multiplicities
IRREDUCIBLE_ATOL = 1e-8   # |<chi, chi'> - delta| for irreducibility and table orthonormality
INTERTWINE_ATOL = 1e-8    # max |A(x) B - B C(x)| on the generators x of an intertwining check
CLUSTER_GAP_RTOL = 1e-7   # relative eigenvalue gap for commutant clustering
CLUSTER_RETRIES = 3       # fresh commutant draws after a failed clustering
CHARACTER_DECIMALS = 6    # rounding used to deduplicate and order characters


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Frame:
    """The bases of `isotypic_components` side by side; with `hom` set, the
    frame of the parent of a pullback along `hom`. With `exact` set, the
    frame defines its representation's matrices (`_synthesize`)."""

    table: IrrepTable
    mults: np.ndarray
    basis: np.ndarray
    hom: GroupHom | None = None
    exact: bool = False


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """Exact unitary representation: one matrix per group element.

    `character` and the isotypic frame are computed on first use and kept,
    read-only; the constructions of this module carry the frame over.
    """

    group: FiniteGroup
    matrices: np.ndarray  # (|G|, dim, dim) complex
    _frame: _Frame | None = field(default=None, init=False, repr=False)

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


def _framed(rep: UnitaryRep, frame: _Frame | None) -> UnitaryRep:
    """`rep`, carrying `frame` from now on."""
    object.__setattr__(rep, "_frame", frame)
    return rep


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


def _synthesize(table: IrrepTable, mults: np.ndarray, basis: np.ndarray) -> UnitaryRep:
    """The representation g -> W D(g) W^H, D(g) = sum_k I_{m_k} kron pi_k(g),
    of the frame W = `basis` with multiplicities `mults`, carrying it:
    sum_{k,a,b} pi_k(g)[a, b] W_{k,a} W_{k,b}^H, with W_{k,a} the columns of
    copy slot a of irreducible k, as the d_k^2 outer products of each k and
    one product with the |G| x sum d_k^2 coefficients of the table.
    ValidationError unless rho(e) = W W^H is I to UNITARY_ATOL."""
    group, dim = table.group, basis.shape[0]
    count = int((table.dims[mults > 0] ** 2).sum())
    outer = np.empty((count, dim, dim), dtype=complex)
    coeffs = np.empty((group.order, count), dtype=complex)
    i = off = 0
    for p, m in zip(table.irreps, mults.tolist()):
        d, block = p.dim, basis[:, off:off + m * p.dim]
        off += m * d
        if not m:
            continue
        if d == 1:
            np.matmul(block, block.conj().T, out=outer[i])
        else:
            slots = block.reshape(dim, m, d).transpose(2, 0, 1)
            np.matmul(slots[:, None], slots.conj().transpose(0, 2, 1),
                      out=outer[i:i + d * d].reshape(d, d, dim, dim))
        coeffs[:, i:i + d * d] = p.matrices.reshape(group.order, d * d)
        i += d * d
    rep = unitary_rep(group, (coeffs @ outer.reshape(count, -1)).reshape(-1, dim, dim),
                      check=False)
    _check_identity(rep.matrices[group.identity], "frame")
    return _framed(rep, _Frame(table, _read_only(mults.copy()), _read_only(basis), exact=True))


def _check_identity(gram: np.ndarray, what: str):
    """ValidationError unless `gram`, a product A A^H, is I to UNITARY_ATOL."""
    err = np.abs(gram - np.eye(len(gram))).max()
    if err > UNITARY_ATOL:
        raise ValidationError(f"{what} not unitary: max deviation {err:.3e}")


def conjugate_rep(rep: UnitaryRep, u: np.ndarray) -> UnitaryRep:
    """g -> u rho(g) u^H for a fixed unitary u; a frame B becomes W = u B.

    When the frame defines `rep` (built by `rep_from_multiplicities`,
    `replace_summands` or a conjugation of such a representation), the
    matrices are synthesized from W (`_synthesize`); otherwise they are the
    2|G| dense products. ValidationError unless u is a finite dim x dim
    matrix, unitary to UNITARY_ATOL (read off rho'(e) = W W^H, or u u^H).
    """
    u = np.asarray(u)
    if u.shape != (rep.dim, rep.dim):
        raise ValidationError(f"expected a ({rep.dim}, {rep.dim}) unitary, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValidationError("unitary contains NaN or Inf")
    frame = rep._frame
    if frame is not None and frame.exact:
        return _synthesize(frame.table, frame.mults, u @ frame.basis)
    _check_identity(u @ u.conj().T, "matrix")
    mats = np.matmul(np.matmul(u, rep.matrices), u.conj().T)
    if frame is not None:
        frame = replace(frame, basis=_read_only(u @ frame.basis))
    return _framed(unitary_rep(rep.group, mats, check=False), frame)


def pullback(hom: GroupHom, rep: UnitaryRep) -> UnitaryRep:
    """Representation of the source group: h -> rho(hom(h)), carrying the
    frame of `rep` to be split along `hom` when first read."""
    if rep.group is not hom.target:
        raise ValidationError("representation group does not match hom target")
    frame = rep._frame
    if frame is not None:
        # a pullback of a pullback is left without a frame
        frame = replace(frame, hom=hom, exact=False) if frame.hom is None else None
    return _framed(unitary_rep(hom.source, rep.matrices[hom.map], check=False), frame)


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
    first use and kept; the arrays are read-only. So are the restrictions
    into this table, per homomorphism and target table contents.
    """

    group: FiniteGroup
    irreps: tuple[UnitaryRep, ...]
    _restrictions: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _contents(self) -> bytes:
        """The irreducibles' matrices: equal for tables that agree entry by entry."""
        return b"".join(p.matrices.tobytes() for p in self.irreps)

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
            if inv_err > INTERTWINE_ATOL:
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
    each basis be invariant to INTERTWINE_ATOL under the group's generators.
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
        if err > INTERTWINE_ATOL:
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
    """Block-diagonal representation with the given multiplicity vector, the
    copies of each irreducible in table order; its frame is the identity."""
    mults = np.asarray(mults, dtype=int)
    if mults.shape != (len(table),) or mults.min() < 0:
        raise ValidationError("multiplicity vector must be nonnegative, one entry per irrep")
    dim = int(mults @ table.dims)
    if dim == 0:
        raise ValidationError("total dimension must be positive")
    mats = np.zeros((table.group.order, dim, dim), dtype=complex)
    off = 0
    for p, m in zip(table.irreps, mults.tolist()):
        copies = np.arange(off, off + m * p.dim).reshape(m, p.dim)
        mats[:, copies[:, :, None], copies[:, None, :]] = p.matrices[:, None]
        off += m * p.dim
    return _framed(unitary_rep(table.group, mats, check=False),
                   _Frame(table, _read_only(mults.copy()), _read_only(np.eye(dim)), exact=True))


def _restriction(hom: GroupHom, table_source: IrrepTable, table_target: IrrepTable):
    """Restriction matrix R along `hom`, and per target irreducible pi_k the
    bases S_k[l] of `isotypic_components` of its pullback, kept on
    `table_source` per homomorphism and target table contents."""
    if table_source.group is not hom.source or table_target.group is not hom.target:
        raise ValidationError("tables do not match the homomorphism")
    key = (hom, table_target._contents)
    if key not in table_source._restrictions:
        cols, splits = [], []
        for p in table_target.irreps:
            pulled = pullback(hom, p)
            cols.append(multiplicities(pulled, table_source))
            # a 1-dimensional pullback is, to rounding, the irreducible it counts
            splits.append(isotypic_components(pulled, table_source, cols[-1]) if p.dim > 1
                          else [np.ones((1, 1))[:, :m] for m in cols[-1]])
        table_source._restrictions[key] = _read_only(np.stack(cols, axis=1)), tuple(splits)
    return table_source._restrictions[key]


def restriction_matrix(hom: GroupHom, table_source: IrrepTable,
                       table_target: IrrepTable) -> np.ndarray:
    """Integer matrix of restriction-along-hom on multiplicity vectors.

    Column j holds the multiplicities, in the source group, of the pullback
    of the target group's j-th irreducible. Applying the matrix to rho's
    multiplicity vector gives the multiplicity vector of the pullback of rho.
    It is computed once per homomorphism and table contents, and read-only.
    """
    return _restriction(hom, table_source, table_target)[0]


def _column_blocks(a: np.ndarray, widths) -> list[np.ndarray]:
    """The consecutive column blocks of `a` with the given widths."""
    edges = [0, *np.cumsum(widths).tolist()]
    return [a[:, i:j] for i, j in zip(edges, edges[1:])]


def _isotypic_frame(rep: UnitaryRep, table: IrrepTable) -> _Frame:
    """The frame of `rep` in `table`, which `rep` keeps. A carried frame is
    read in a table with the same contents; a pullback's frame turns copy j
    of pi_k by the split S_k of `_restriction` and takes the copies of each
    l in the order (k, j, i). Without a frame, `rep` is decomposed and then
    checked to be unitary and a homomorphism, as a carried frame certifies."""
    frame = rep._frame
    if frame is not None and frame.hom is not None:
        r, splits = _restriction(frame.hom, table, frame.table)
        basis = np.empty(frame.basis.shape, dtype=complex)
        col = 0
        for l in range(len(table)):
            off = 0
            for m, d, s in zip(frame.mults.tolist(), frame.table.dims.tolist(), splits):
                block = frame.basis[:, off:off + m * d]
                off += m * d
                if m and s[l].size:
                    # a 1-dimensional pi_k pulls back to one l, with S_k[l] = 1
                    turned = (block if d == 1
                              else (block.reshape(-1, d) @ s[l]).reshape(rep.dim, -1))
                    basis[:, col:col + turned.shape[1]] = turned
                    col += turned.shape[1]
        frame = _Frame(table, _read_only(r @ frame.mults), _read_only(basis))
    if frame is None or frame.table._contents != table._contents:
        mults = multiplicities(rep, table)
        basis = np.hstack(isotypic_components(rep, table, mults))
        try:
            unitary_rep(rep.group, rep.matrices)
        except ValidationError as exc:
            raise NumericalError(str(exc)) from None
        frame = _Frame(table, _read_only(mults), _read_only(basis))
    _framed(rep, frame)
    return frame
