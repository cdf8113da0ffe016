"""Geodesic balls and lattice ball coverings of Nil geometry.

Distances and geodesics come from inverting the closed-form geodesic
equations; spheres reduce to a planar profile curve under a shear map;
lattices carry fundamental parallelepipeds whose tetrahedral decomposition
yields covering radii and densities.
"""

from .ball import (ProfilePoint, SphereMesh, ball_volume,
                   first_profile_critical_theta, is_ball_convex,
                   is_m_image_convex, max_vertical_chord, mesh_to_obj,
                   sphere_mesh, sphere_point, sphere_profile)
from .constants import (BALL_CONVEXITY_MAX_RADIUS,
                        EUCLIDEAN_OPTIMAL_COVERING_DENSITY,
                        MAX_BALL_RADIUS, M_IMAGE_CONVEXITY_MAX_RADIUS)
from .core import (IDENTITY, ORIGIN, Point, commutator, compose, inverse,
                   line_reflect_y, m_inverse, m_map, power, rotate_z,
                   translate)
from .covering import (CircumballResult, CoverageResult, DensityReport,
                       LowerBoundConfig, bound_f, bound_f1, bound_f2,
                       circumball, covering_density, covering_radius,
                       equidistant_projection, hex_covering_radius,
                       hex_density, hex_family_lattice, lower_bound_density,
                       minimize_lower_bound, optimize_hex, verify_covering)
from .errors import (DegenerateGeometryError, DegenerateLatticeError,
                     DomainError, NilcoverError, NoSolutionError)
from .geodesic import (GeodesicParams, GeodesicSolveResult, distance,
                       distance_to_origin, geodesic_between, geodesic_point,
                       geodesic_xyz)
from .lattice import (DOMAIN_TETRAHEDRA, FundamentalDomain, Lattice,
                      LatticeBasis, TilingReport, domain_tetrahedra,
                      domain_volume, fundamental_domain, lattice_from_params,
                      lattice_points_in_shell, tiling_spot_check)

__version__ = "0.1.0"

__all__ = [
    "BALL_CONVEXITY_MAX_RADIUS", "CircumballResult",
    "CoverageResult", "DOMAIN_TETRAHEDRA", "DegenerateGeometryError",
    "DegenerateLatticeError", "DensityReport", "DomainError",
    "EUCLIDEAN_OPTIMAL_COVERING_DENSITY", "FundamentalDomain",
    "GeodesicParams", "GeodesicSolveResult", "IDENTITY",
    "Lattice", "LatticeBasis", "LowerBoundConfig",
    "MAX_BALL_RADIUS", "M_IMAGE_CONVEXITY_MAX_RADIUS", "NilcoverError",
    "NoSolutionError", "ORIGIN", "Point", "ProfilePoint", "SphereMesh",
    "TilingReport", "ball_volume", "bound_f", "bound_f1", "bound_f2",
    "circumball", "commutator", "compose",
    "covering_density", "covering_radius", "distance", "distance_to_origin",
    "domain_tetrahedra", "domain_volume", "equidistant_projection",
    "first_profile_critical_theta", "fundamental_domain", "geodesic_between",
    "geodesic_point", "geodesic_xyz", "hex_covering_radius", "hex_density",
    "hex_family_lattice", "inverse", "is_ball_convex",
    "is_m_image_convex", "lattice_from_params", "lattice_points_in_shell",
    "line_reflect_y", "lower_bound_density", "m_inverse", "m_map",
    "max_vertical_chord", "mesh_to_obj", "minimize_lower_bound",
    "optimize_hex", "power", "rotate_z", "sphere_mesh", "sphere_point",
    "sphere_profile", "tiling_spot_check", "translate", "verify_covering",
]
