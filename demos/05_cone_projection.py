"""The boundary map on multiplicity vectors and exact kernel-cone projection.

A representation of the fundamental group restricts compatibly across every
edge, so its multiplicity vector lies in the kernel of the integer boundary
map. Conversely, any kernel-cone vector can be realized; an almost-
representation only lands near the kernel and is projected back onto it
exactly: by a dynamic program over the graph's spanning tree, or an integer
program where the edges do not form a tree.
"""

import repstab as rs

# an amalgam of two Z2 vertices over a Z2 edge with identity inclusions:
# the kernel is exactly the diagonal
z2 = rs.cyclic_group(2)
graph = rs.serre_graph(2, [(0, 1)])
gog = rs.graph_of_groups(graph, [z2, z2], [z2], [[0, 1], [0, 1]], name="z2_amalgam")
ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
b = ctx.boundary

lam = rs.MultiplicityVector("vertex", ((6, 4), (5, 5)))
print(f"lambda = {lam.blocks}, vertex norm {b.vertex_norm(lam)}")
image = b.apply(lam)
print(f"boundary image per oriented edge: {image.blocks} "
      f"(edge norm {b.edge_norm(image)})")

proj = rs.project_to_kernel_cone(lam, b)
print(f"\nprojection onto the kernel cone: {proj.blocks}")
print(f"  distance ||lambda - lambda''||_V = {b.vertex_norm(lam - proj)}")
print(f"  norm shrank: {b.vertex_norm(proj)} <= {b.vertex_norm(lam)}")
print(f"  exact kernel membership: {b.apply(proj).is_zero()}")

# padding with trivial summands restores the original dimension without
# leaving the kernel
padded = rs.pad_with_trivial(proj, 10, b)
print(f"\npadded back to norm 10: {padded.blocks}, "
      f"still in the kernel: {b.apply(padded).is_zero()}")

# vectors already in the kernel are their own projection
diag = rs.MultiplicityVector("vertex", ((3, 2), (3, 2)))
print(f"\nkernel vector {diag.blocks} projects to itself: "
      f"{rs.project_to_kernel_cone(diag, b) == diag}")
