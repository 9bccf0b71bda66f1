"""Intertwiners between close representations of a finite group.

Two representations at distance delta admit a partial-isometry intertwiner
within 3*delta of the identity between invariant subspaces of codimension
(2*delta)^p * dim; for isomorphic pairs the intertwiner extends to a
unitary within 5*delta that conjugates one onto the other exactly.
"""

import numpy as np

import repstab as rs
from repstab.rng import random_hermitian

s3 = rs.symmetric_group(3)
table = rs.irrep_table(s3, seed=0)
rng = np.random.default_rng(1)

rho1 = rs.rep_from_multiplicities(table, [2, 1, 2])  # dim 7
print(f"base representation: dim {rho1.dim}, multiplicities [2, 1, 2]")

for eps in (1e-1, 1e-2, 1e-3):
    h = random_hermitian(7, rng)
    h /= rs.schatten_norm_normalized(h, 2.0)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * eps * w)) @ v.conj().T
    rho2 = rs.conjugate_rep(rho1, u)

    p = 2.0
    delta = rs.rep_distance(rho1, rho2, p)
    res = rs.invariant_intertwiner(rho1, rho2, p, table=table)
    tprime = rs.unitary_intertwiner(rho1, rho2, p, table=table)
    dev = rs.schatten_norm_normalized(tprime - np.eye(7), p)
    conj_err = np.abs(np.matmul(rho2.matrices, tprime)
                      - np.matmul(tprime, rho1.matrices)).max()
    print(f"\neps={eps:g}: measured delta = {delta:.2e}")
    print(f"  kept subspace dim {res.kept_dim}/7, ||T - I||'_p = "
          f"{res.identity_distance:.2e} (bound 3*delta = {3 * delta:.2e})")
    print(f"  unitary ||T' - I||'_p = {dev:.2e} (bound 5*delta = {5 * delta:.2e}), "
          f"exact conjugation error {conj_err:.1e}")

# padding two representations with a large common summand keeps them close,
# whatever the small summands do
z2t = rs.irrep_table(rs.cyclic_group(2))
rho = rs.rep_from_multiplicities(z2t, [9, 0])
sig1 = rs.rep_from_multiplicities(z2t, [1, 0])
sig2 = rs.rep_from_multiplicities(z2t, [0, 1])
measured, bound = rs.direct_sum_padding_distance(rho, sig1, sig2, 2.0)
print(f"\npadding: d(rho+triv, rho+sign) = {measured:.6f}, bound 2*delta = {bound:.6f} "
      "(the equality case)")
