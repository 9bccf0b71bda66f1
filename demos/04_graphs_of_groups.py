"""Graphs of finite groups, relator defects, and seeded perturbations.

A graph of groups carries a finite group on every vertex and edge with
injective edge-to-vertex inclusions. Its fundamental group is presented on
vertex elements plus one stable letter per edge; an almost-representation
is exact on the vertex groups and measured against the relators.
"""

import numpy as np

import repstab as rs

for name in rs.graph_preset_names():
    gog = rs.graph_preset(name)
    tree = rs.spanning_tree(gog.graph)
    words = rs.relators(gog)
    print(f"{name}: {gog.graph.n_vertices} vertices, "
          f"{gog.graph.n_geometric_edges} edges, {len(words)} relators, "
          f"tree edges {sorted(tree.geometric_edges)}")

# realize an exact representation of the HNN extension and read its defect
ctx = rs.CorrectionContext.build(rs.graph_preset("hnn_Z4_over_Z2"), p=2.0, seed=0)
lam = rs.uniform_lambda(ctx, 8)
rho = rs.realize(lam, ctx)
print(f"\nhnn_Z4_over_Z2 at dim 8: multiplicities {lam.blocks}, "
      f"defect {rs.measure_defect(rho, ctx.gog, 2.0):.2e}")

# perturbation sends the defect smoothly to zero with the step size
print("\nmedian defect over 20 seeds per perturbation size:")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    vals = [rs.measure_defect(rs.perturb(rho, ctx.gog, eps,
                                         rng=np.random.default_rng(seed)),
                              ctx.gog, 2.0)
            for seed in range(20)]
    print(f"  eps={eps:<7g} median defect {np.median(vals):.3e}")

# conjugating the vertex representations keeps them exact, so the
# multiplicity data is untouched
pert = rs.perturb(rho, ctx.gog, 0.05, mode="edges-and-conjugate-vertices",
                  rng=np.random.default_rng(5))
print(f"\nvertex-conjugated perturbation: defect {rs.measure_defect(pert, ctx.gog, 2.0):.3f}, "
      f"multiplicities unchanged: {rs.rep_multiplicities(pert, ctx.vertex_tables) == lam}")
