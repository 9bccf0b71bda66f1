"""End to end: realize, perturb, and correct an almost-representation.

The correction pipeline measures the defect, projects the multiplicity
vector onto the kernel cone, pads with trivial summands, rebuilds exact
vertex representations along a spanning tree, and solves the stable-letter
unitaries on the remaining edges. The output is exact and its distance to
the input tracks the input defect linearly across decades.
"""

import json

import numpy as np

import repstab as rs
from repstab.serialize import report_to_json

ctx = rs.CorrectionContext.build(rs.graph_preset("Z2_free_Z3"), p=2.0, seed=0)
lam = rs.uniform_lambda(ctx, 12)
base = rs.realize(lam, ctx)
print(f"base: dim 12 on Z2 * Z3, defect {rs.measure_defect(base, ctx.gog, 2.0):.1e}")

print("\ndefect in -> distance out, median over 10 seeds:")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    deltas, epsilons = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = rs.perturb(base, ctx.gog, eps, rng=rng)
        _, report = rs.stabilize(inst, ctx)
        assert report.output_defect <= 1e-9
        deltas.append(report.delta)
        epsilons.append(report.epsilon)
    print(f"  eps={eps:<7g} median delta {np.median(deltas):.3e} -> "
          f"median distance {np.median(epsilons):.3e} "
          f"(ratio {np.median(epsilons) / np.median(deltas):.2f})")

# an input whose multiplicity data is inconsistent across an edge: the
# pipeline projects it back and reports the cone gap
z2 = rs.cyclic_group(2)
graph = rs.serre_graph(2, [(0, 1)])
gog = rs.graph_of_groups(graph, [z2, z2], [z2], [[0, 1], [0, 1]], name="z2_amalgam")
ctx2 = rs.CorrectionContext.build(gog, p=2.0, seed=0)
r0 = rs.rep_from_multiplicities(ctx2.vertex_tables[0], [6, 4])
r1 = rs.rep_from_multiplicities(ctx2.vertex_tables[1], [5, 5])
skewed = rs.almost_rep(gog, [r0, r1], [np.eye(10)])

import warnings
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    corrected, report = rs.stabilize(skewed, ctx2, guard=1.0)
print("\nimbalanced instance report:")
print(json.dumps(report_to_json(report), indent=2))
