"""repstab: correcting approximate unitary representations of graph-of-groups covers.

Build finite graphs of finite groups, realize exact finite-dimensional
unitary representations of their fundamental groups from integer
multiplicity data, perturb them, measure defects in normalized p-Schatten
norms, and correct almost-representations back to exact ones with
defect-vs-distance reporting.

The package namespace holds what the demos, the benchmark and the README
use, and the error classes. Every other helper is imported from its own
module: `repstab.groups`, `repstab.irreps`, `repstab.intertwiners`,
`repstab.graphs`, `repstab.cones`, `repstab.schatten`, `repstab.presets`
and `repstab.stabilize`.
"""

from .cones import (BoundaryMap, MultiplicityVector, pad_with_trivial,
                    project_to_kernel_cone)
from .errors import (GuardExceededError, IsomorphyError, MultiplicityError,
                     NumericalError, RepStabError, ValidationError)
from .graphs import (AlmostRep, GraphOfGroups, almost_rep, graph_of_groups,
                     measure_defect, perturb, relators, rep_multiplicities,
                     serre_graph, spanning_tree)
from .groups import group_hom, validate_group
from .intertwiners import (direct_sum_padding_distance, invariant_intertwiner,
                           unitary_intertwiner)
from .irreps import (conjugate_rep, irreducible_components, irrep_table,
                     multiplicities, regular_representation,
                     rep_from_multiplicities, restriction_matrix, unitary_rep)
from .presets import (cyclic_group, graph_preset, graph_preset_names,
                      klein_four_group, symmetric_group)
from .schatten import (nearest_unitary, rep_distance, schatten_norm_normalized,
                       threshold_partial_isometry)
from .stabilize import (CorrectionContext, StabilizationReport, correct_vertex,
                        realize, stabilize, uniform_lambda)

__version__ = "0.1.0"

__all__ = [
    "AlmostRep", "BoundaryMap", "CorrectionContext", "GraphOfGroups",
    "GuardExceededError", "IsomorphyError", "MultiplicityError",
    "MultiplicityVector", "NumericalError", "RepStabError",
    "StabilizationReport", "ValidationError",
    "almost_rep", "conjugate_rep", "correct_vertex", "cyclic_group",
    "direct_sum_padding_distance", "graph_of_groups", "graph_preset",
    "graph_preset_names", "group_hom", "invariant_intertwiner",
    "irreducible_components", "irrep_table", "klein_four_group",
    "measure_defect", "multiplicities", "nearest_unitary", "pad_with_trivial",
    "perturb", "project_to_kernel_cone", "realize", "regular_representation",
    "relators", "rep_distance", "rep_from_multiplicities",
    "rep_multiplicities", "restriction_matrix", "schatten_norm_normalized",
    "serre_graph", "spanning_tree", "stabilize", "symmetric_group",
    "threshold_partial_isometry", "uniform_lambda", "unitary_intertwiner",
    "unitary_rep", "validate_group",
]
