"""Poisson geometry of su(n) multiplicity spaces and rational flat connections.

The library realizes, over SU(n)/SL(n,C): the classical r-matrices of the
(t, u) family, the twisted Iwasawa machinery with its dual-group maps and
dressing action, coadjoint/dressing orbit moment solvers, a holonomy engine
for rational flat connections on the three-holed sphere, vertex-ordered
graph brackets, and the two structure-matching maps between the orbit
picture, the connection picture, and the dual-group picture.
"""

from .lie_core import (AlgebraContext, CartanVector, RMatrix, bar, build_algebra,
                       cybe_residual, pair, r_matrix, weyl_normalize)
from .decompositions import (BracketSpace, KStarElement, SKElement, dressing_action,
                             e_map, f_inverse, f_map, iwasawa, iwasawa_dual,
                             kstar_from_matrix, moment_maps, sklyanin_eval)
from .orbits import (DressingOrbitPoint, MomentSolution, NoSolution, OrbitPoint,
                     diag_coadjoint, diag_dressing, gauge_fix, kk_bracket,
                     orbit_point, sample_orbit, solve_moment_kstar,
                     solve_moment_zero, tangent_rank)
from .holonomy import (ArcSegment, Contour, IntersectionDatum, LineSegment,
                       RationalConnection, builtin_catalogue, goldman_function,
                       hole_conjugacy_check, holonomy, holonomy_batch,
                       load_catalogue, sigma_check, word_segments, xi_map)
from .graph_poisson import (CiliatedGraph, Figure3Data, GraphConnection, chi_map,
                            figure_three, fr_bracket, fr_vs_kstar, goldman_rhs,
                            reality_project)
from . import errors

__version__ = "0.1.0"
