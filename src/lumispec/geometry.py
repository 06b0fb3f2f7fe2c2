"""Beam incidence geometry for a pivoting scanner head.

All geometry is 2-D in the sweep plane. The device rotates about a fixed
pivot at the origin; at motor angle 0 the beam runs along the +x optical
axis and meets the target surface at normal incidence after one working
distance. Surfaces are either a flat plate perpendicular to the axis or a
sphere centered on the axis with its apex toward the pivot.

For the sphere, with R the radius and d = working distance + R the
pivot-to-center distance, the law of sines in the pivot-center-hit
triangle gives the closed forms

    sin(aoi) = (d / R) * sin(|theta|)
    path     = d * cos(theta) - R * cos(aoi)

valid for the near intersection. The beam misses once sin(|theta|) reaches
R / d; the grazing tangent itself counts as a miss (aoi would be 90 deg).
Because d / R > 1, a convex surface always sees a larger angle of incidence
than a flat one at the same motor angle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .errors import NoIntersectionError


@dataclass(frozen=True)
class PivotGeometry:
    """Pivot-mounted scanner: beam length equals the lens working distance."""

    working_distance_mm: float = 17.0

    def __post_init__(self) -> None:
        if not 0 < self.working_distance_mm <= sys.float_info.max:
            raise ValueError("working_distance_mm must be finite and positive")


@dataclass(frozen=True)
class FlatSurface:
    """Flat plate normal to the motor-angle-0 beam axis."""


@dataclass(frozen=True)
class SphereSurface:
    """Convex sphere; its apex faces the pivot one working distance away."""

    radius_mm: float

    def __post_init__(self) -> None:
        if not 0 < self.radius_mm <= sys.float_info.max:
            raise ValueError("radius_mm must be finite and positive")


SurfaceModel = Union[FlatSurface, SphereSurface]


@dataclass(frozen=True)
class IncidenceSolution:
    """Local angle of incidence, beam path length, and hit point (x, y) in mm."""

    aoi_rad: float
    path_mm: float
    hit_point: tuple[float, float]


def incidence_flat(theta_deg: float, g: PivotGeometry) -> IncidenceSolution:
    """Flat plate: aoi equals |theta|, path stretches as 1/cos(theta)."""
    if abs(theta_deg) >= 90.0:
        raise NoIntersectionError(
            f"motor angle {theta_deg:g} deg is parallel to or behind the plate"
        )
    theta = math.radians(theta_deg)
    wd = g.working_distance_mm
    path = wd / math.cos(theta)
    return IncidenceSolution(
        aoi_rad=abs(theta),
        path_mm=path,
        hit_point=(wd, wd * math.tan(theta)),
    )


def incidence_sphere(
    theta_deg: float, g: PivotGeometry, radius_mm: float
) -> IncidenceSolution:
    """Near ray-sphere intersection via the law-of-sines closed form."""
    SphereSurface(radius_mm)  # the radius rule is the surface's
    if abs(theta_deg) >= 90.0:
        raise NoIntersectionError(
            f"motor angle {theta_deg:g} deg points away from the phantom"
        )
    d = g.working_distance_mm + radius_mm
    theta = math.radians(theta_deg)
    sin_aoi = (d / radius_mm) * math.sin(abs(theta))
    if sin_aoi >= 1.0:
        raise NoIntersectionError(
            f"beam misses the sphere: |theta| = {abs(theta_deg):g} deg exceeds "
            f"the tangent angle asin(R/d) = {math.degrees(math.asin(radius_mm / d)):.2f} deg"
        )
    aoi = math.asin(sin_aoi)
    path = d * math.cos(theta) - radius_mm * math.cos(aoi)
    return IncidenceSolution(
        aoi_rad=aoi,
        path_mm=path,
        hit_point=(path * math.cos(theta), path * math.sin(theta)),
    )


def solve_incidence(
    theta_deg: float, g: PivotGeometry, surface: SurfaceModel
) -> IncidenceSolution:
    """Dispatch on the surface variant."""
    if isinstance(surface, FlatSurface):
        return incidence_flat(theta_deg, g)
    if isinstance(surface, SphereSurface):
        return incidence_sphere(theta_deg, g, surface.radius_mm)
    raise TypeError(f"unknown surface model: {surface!r}")
