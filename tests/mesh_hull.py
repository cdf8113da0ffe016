"""Convexity of a sphere mesh against its Euclidean convex hull.

The library decides convexity by the exact thresholds pi/2 and pi
(is_ball_convex, is_m_image_convex); the convexity tests check those
thresholds on meshes with scipy's hull, which only the tests need.
"""

import numpy as np
from scipy.spatial import ConvexHull


def hull_gap(mesh) -> float:
    """Greatest depth of a mesh vertex strictly inside the Euclidean convex
    hull of all vertices; ~0 exactly when the surface is convex."""
    pts = np.asarray(mesh.vertices, float)
    hull = ConvexHull(pts)
    # hull equations give outward normals: eq . (x, 1) <= 0 inside
    vals = pts @ hull.equations[:, :3].T + hull.equations[:, 3]
    depth = -np.max(vals, axis=1)
    return float(np.max(depth))
