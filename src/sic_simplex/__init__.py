"""Qudit states as points of the probability simplex of a SIC-POVM.

The toolkit builds su(d) bases and their structure constants, regular
simplexes matched to probability distributions, Bloch-vector maps for
density matrices, Weyl-Heisenberg SIC-POVMs from numerically found
fiducials, and the combined machinery showing that simplex points of SIC
probabilities coincide with Bloch vectors.
"""

from .su_basis import (SuBasis, StructureConstants, build_su_basis,
                       structure_constants, star_product)
from .simplex_geometry import (SimplexFrame, build_simplex_frame,
                               frame_from_vertices, to_point,
                               to_probabilities, facet_distance,
                               sum_p_squared)
from .bloch import (from_bloch, to_bloch, is_state, is_pure,
                    random_density_matrix, random_pure_state,
                    validate_density_matrix)
from .sic_povm import (Fiducial, SicPovm, displacement_operators, wh_orbit,
                       sic_residual, find_fiducial, build_sic, get_fiducial,
                       qubit_tetrahedron_fiducial)
from .state_simplex import (QuantumSimplexContext, build_context,
                            state_to_probabilities, probabilities_to_point,
                            point_to_state, verify_b_equals_q,
                            geometry_report, classify_point,
                            find_nonstate_sphere_point, simulate_tomography,
                            trace_distance, project_to_state)

__version__ = "0.1.0"

__all__ = [
    "SuBasis", "StructureConstants", "build_su_basis", "structure_constants",
    "star_product",
    "SimplexFrame", "build_simplex_frame", "frame_from_vertices", "to_point",
    "to_probabilities", "facet_distance", "sum_p_squared",
    "from_bloch", "to_bloch", "is_state", "is_pure", "random_density_matrix",
    "random_pure_state", "validate_density_matrix",
    "Fiducial", "SicPovm", "displacement_operators", "wh_orbit",
    "sic_residual", "find_fiducial", "build_sic",
    "get_fiducial", "qubit_tetrahedron_fiducial",
    "QuantumSimplexContext", "build_context",
    "state_to_probabilities", "probabilities_to_point", "point_to_state",
    "verify_b_equals_q", "geometry_report", "classify_point",
    "find_nonstate_sphere_point", "simulate_tomography", "trace_distance",
    "project_to_state",
]
