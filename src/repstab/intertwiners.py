"""Intertwining operators between close representations of a finite group.

Two exact unitary representations at small normalized p-Schatten distance
delta admit a partial-isometry intertwiner between invariant subspaces of
codimension at most (2*delta)^p times the dimension, at distance 3*delta
from the identity; when the representations are isomorphic the intertwiner
extends to a unitary within 5*delta of the identity. The constructions here
are fully explicit: a group average provides an exact intertwiner, singular
value thresholding extracts the near-isometric part, and isomorphic
complements are matched irreducible-by-irreducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IsomorphyError, NumericalError, ValidationError
from .irreps import (INVARIANCE_ATOL, UNITARY_ATOL, IrrepTable, UnitaryRep, complement,
                     compress, isotypic_components, multiplicities, unitary_rep)
from .rng import as_generator
from .schatten import (nearest_unitary, rep_distance, schatten_norm_normalized,
                       threshold_partial_isometry)

DEFAULT_THRESHOLD = 0.5   # singular value cutoff for the kept subspaces
SCHUR_SEED_MIN = 1e-9     # Frobenius floor below which a seed average counts as zero
INTERTWINE_ATOL = 1e-8    # max |rho2(x) T - T rho1(x)| of an assembled unitary intertwiner
FAR_DISTANCE = 0.25       # input distance from which invariant_intertwiner warns
NEAR_THRESHOLD = 0.05     # window of singular values reported when invariance fails


@dataclass(frozen=True, eq=False)
class IntertwinerResult:
    """Partial-isometry intertwiner with its matched invariant subspaces."""

    operator: np.ndarray       # partial isometry T with rho2(x) T = T rho1(x)
    source_basis: np.ndarray   # orthonormal columns spanning the rho1-invariant subspace
    target_basis: np.ndarray   # orthonormal columns spanning the rho2-invariant subspace
    pair_distance: float       # measured max distance between the representations
    identity_distance: float   # measured ||T - I||'_p

    @property
    def kept_dim(self) -> int:
        return self.source_basis.shape[1]


def averaged_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep) -> np.ndarray:
    """Group average of rho2(g) rho1(g)^{-1}; intertwines rho1 to rho2 exactly.

    The intertwining identity rho2(x) T = T rho1(x) holds algebraically for
    any pair of representations, regardless of how far apart they are.
    """
    if rho1.group is not rho2.group:
        raise ValidationError("representations must share a group")
    if rho1.dim != rho2.dim:
        raise ValidationError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    prods = rho2.matrices @ rho1.matrices.conj().transpose(0, 2, 1)
    return prods.sum(axis=0) / rho1.group.order


def _warn_far(delta: float, delta_hint: float | None, stacklevel: int):
    """Distance warnings; `stacklevel` counts from the caller, as in warnings.warn."""
    if delta_hint is not None and delta > delta_hint:
        warnings.warn(f"measured distance {delta:.3e} exceeds the supplied hint {delta_hint:.3e}",
                      stacklevel=stacklevel + 1)
    if delta >= FAR_DISTANCE:
        warnings.warn(f"measured distance {delta:.3e} is not below 1/4; "
                      "the kept subspaces may be small", stacklevel=stacklevel + 1)


def _kept_isometry(rho1: UnitaryRep, rho2: UnitaryRep, threshold: float):
    """Thresholded group average (T, right, left), with invariance verified."""
    t0 = averaged_intertwiner(rho1, rho2)
    t, right, left = threshold_partial_isometry(t0, threshold)
    for rep, basis, side in ((rho1, right, "source"), (rho2, left, "target")):
        if basis.shape[1] == 0:
            continue
        proj = basis @ basis.conj().T
        err = np.abs(np.matmul(rep.matrices, proj) - np.matmul(proj, rep.matrices)).max()
        if err > INVARIANCE_ATOL:
            sv = np.linalg.svd(t0, compute_uv=False)
            near = sv[np.abs(sv - threshold) < NEAR_THRESHOLD]
            raise NumericalError(
                f"{side} subspace not invariant (deviation {err:.3e}); "
                f"singular values near the threshold: {np.array2string(near, precision=6)}")
    return t, right, left


def invariant_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float,
                          delta_hint: float | None = None,
                          threshold: float = DEFAULT_THRESHOLD,
                          warn_far: bool = True) -> IntertwinerResult:
    """Partial isometry between invariant subspaces of two close representations.

    Thresholds the averaged intertwiner at `threshold`; the kept singular
    subspaces are spectral subspaces of exact intertwiners and therefore
    invariant. Invariance is verified numerically and a failure reports the
    singular values straddling the threshold. `warn_far=False` silences the
    distance warnings for callers that expect far-apart inputs.
    """
    delta = rep_distance(rho1, rho2, p)
    if warn_far:
        _warn_far(delta, delta_hint, stacklevel=2)
    t, right, left = _kept_isometry(rho1, rho2, threshold)
    dev = schatten_norm_normalized(t - np.eye(rho1.dim), p)
    return IntertwinerResult(operator=t, source_basis=right, target_basis=left,
                             pair_distance=delta, identity_distance=dev)


def _schur_unitary(sig1: UnitaryRep, sig2: UnitaryRep) -> np.ndarray:
    """Unitary intertwiner between two isomorphic irreducibles.

    Averages rank-one seeds over the group; the average is a scalar multiple
    of the (unique up to phase) intertwiner, and some matrix-unit seed always
    produces a nonzero multiple. Diagonal seeds are tried first.
    """
    d = sig1.dim
    order = [(j, j) for j in range(d)] + [(j, k) for j in range(d) for k in range(d) if j != k]
    for j, k in order:
        avg = np.einsum("gi,gk->ik", sig2.matrices[:, :, j], sig1.matrices[:, :, k].conj())
        avg /= sig1.group.order
        if np.linalg.norm(avg) >= SCHUR_SEED_MIN:
            return nearest_unitary(avg)
    raise NumericalError("all rank-one seed averages vanished; "
                         "components are not isomorphic irreducibles")


def unitary_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float,
                        table: IrrepTable, rng=None,
                        warn_far: bool = True) -> np.ndarray:
    """Unitary T with rho2(x) T = T rho1(x), close to I for close inputs.

    Requires isomorphic inputs (verified through their multiplicity
    vectors). The thresholded averaged intertwiner matches invariant
    subspaces exactly; the orthogonal complements, which are isomorphic to
    each other, are decomposed into irreducibles and paired in canonical
    table order, first come first paired within each isotypic block. The
    kept subspaces are cut at DEFAULT_THRESHOLD; the result conjugates rho1
    onto rho2 exactly and is verified to INTERTWINE_ATOL.
    """
    rng = as_generator(rng)
    m1 = multiplicities(rho1, table)
    m2 = multiplicities(rho2, table)
    if not np.array_equal(m1, m2):
        raise IsomorphyError(
            f"representations are not isomorphic: multiplicities {m1.tolist()} vs {m2.tolist()}",
            left=m1, right=m2)

    if warn_far:
        _warn_far(rep_distance(rho1, rho2, p), None, stacklevel=1)
    t_full, right, left = _kept_isometry(rho1, rho2, DEFAULT_THRESHOLD)
    dim = rho1.dim
    comp1 = complement(right, dim)
    comp2 = complement(left, dim)
    if comp1.shape[1] != comp2.shape[1]:
        raise NumericalError("complement dimensions disagree; threshold straddles a cluster")

    if comp1.shape[1] > 0:
        rest1 = unitary_rep(rho1.group, compress(rho1.matrices, comp1), check=False)
        rest2 = unitary_rep(rho2.group, compress(rho2.matrices, comp2), check=False)
        iso1 = isotypic_components(rest1, table, rng)
        iso2 = isotypic_components(rest2, table, rng)
        if [len(cs) for cs in iso1] != [len(cs) for cs in iso2]:
            raise NumericalError("complements decompose with different multiplicities")
        for cs1, cs2 in zip(iso1, iso2):
            for c1, c2 in zip(cs1, cs2):
                sig1 = unitary_rep(rho1.group, compress(rest1.matrices, c1.basis), check=False)
                sig2 = unitary_rep(rho2.group, compress(rest2.matrices, c2.basis), check=False)
                w = _schur_unitary(sig1, sig2)
                full1 = comp1 @ c1.basis
                full2 = comp2 @ c2.basis
                t_full += full2 @ w @ full1.conj().T

    uerr = np.abs(t_full @ t_full.conj().T - np.eye(dim)).max()
    if uerr > UNITARY_ATOL:
        raise NumericalError(f"assembled intertwiner is not unitary (deviation {uerr:.3e})")
    ierr = np.abs(np.matmul(rho2.matrices, t_full) - np.matmul(t_full, rho1.matrices)).max()
    if ierr > INTERTWINE_ATOL:
        raise NumericalError(f"assembled operator fails to intertwine (deviation {ierr:.3e})")
    return t_full


def direct_sum_padding_distance(rho: UnitaryRep, sigma1: UnitaryRep,
                                sigma2: UnitaryRep, p: float) -> tuple[float, float]:
    """Distance between rho+sigma1 and rho+sigma2, with its a priori bound.

    The difference of the two sums has rank at most dim(sigma), with singular
    values at most 2, so the distance is at most 2*delta where
    delta = (dim(sigma) / total dim)^(1/p). Returns (measured, bound).
    """
    if sigma1.dim != sigma2.dim:
        raise ValidationError("padding summands must have equal dimension")
    total = rho.dim + sigma1.dim
    n = rho.group.order
    mats1 = np.zeros((n, total, total), dtype=complex)
    mats2 = np.zeros((n, total, total), dtype=complex)
    for mats, sig in ((mats1, sigma1), (mats2, sigma2)):
        mats[:, :rho.dim, :rho.dim] = rho.matrices
        mats[:, rho.dim:, rho.dim:] = sig.matrices
    measured = rep_distance(mats1, mats2, p)
    delta = (sigma1.dim / total) ** (1.0 / p)
    return measured, 2.0 * delta
