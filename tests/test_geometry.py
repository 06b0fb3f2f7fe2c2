"""Unit tests for beam incidence geometry, checked against a brute-force
ray-sphere oracle."""

import math

import numpy as np
import pytest

from lumispec.errors import NoIntersectionError
from lumispec.geometry import (
    FlatSurface,
    PivotGeometry,
    SphereSurface,
    incidence_flat,
    incidence_sphere,
    solve_incidence,
)

from _oracles import brute_force_sphere

# Frozen oracle values for theta=10 deg, wd=17 mm, R=25 mm (d=42 mm).
SPHERE_10DEG_AOI_RAD = 0.2960339064727043
SPHERE_10DEG_PATH_MM = 17.449399797291537

MISS_BOUNDARY_DEG = math.degrees(math.asin(25.0 / 42.0))  # 36.5296...


class TestTypes:
    def test_pivot_validation(self):
        for bad in (0.0, float("inf"), float("nan"), 10**400, -(10**400)):
            with pytest.raises(ValueError, match="working_distance_mm must be finite"):
                PivotGeometry(working_distance_mm=bad)
        assert PivotGeometry().working_distance_mm == 17.0

    def test_sphere_validation(self):
        for bad in (-1.0, float("inf"), float("nan"), 10**400, -(10**400)):
            with pytest.raises(ValueError, match="radius_mm must be finite"):
                SphereSurface(radius_mm=bad)


class TestIncidenceFlat:
    def test_normal_incidence(self):
        sol = incidence_flat(0.0, PivotGeometry())
        assert sol.aoi_rad == 0.0
        assert sol.path_mm == 17.0
        assert sol.hit_point == (17.0, 0.0)

    def test_sixty_degrees_doubles_path(self):
        sol = incidence_flat(60.0, PivotGeometry())
        assert sol.aoi_rad == pytest.approx(math.radians(60.0), rel=1e-12)
        assert sol.path_mm == pytest.approx(34.0, rel=1e-12)

    def test_parallel_beam_misses(self):
        with pytest.raises(NoIntersectionError):
            incidence_flat(90.0, PivotGeometry())
        with pytest.raises(NoIntersectionError):
            incidence_flat(-95.0, PivotGeometry())

    def test_mirror_symmetry(self):
        g = PivotGeometry()
        for th in (3.0, 11.5, 42.0, 77.7):
            assert incidence_flat(th, g).aoi_rad == incidence_flat(-th, g).aoi_rad
            assert incidence_flat(th, g).path_mm == incidence_flat(-th, g).path_mm

    def test_hit_point_on_plate(self):
        sol = incidence_flat(30.0, PivotGeometry())
        assert sol.hit_point[0] == 17.0
        assert sol.hit_point[1] == pytest.approx(17.0 * math.tan(math.radians(30.0)))


class TestIncidenceSphere:
    def test_apex_hit(self):
        sol = incidence_sphere(0.0, PivotGeometry(), 25.0)
        assert sol.aoi_rad == 0.0
        assert sol.path_mm == pytest.approx(17.0, rel=1e-12)

    def test_ten_degrees_frozen_oracle(self):
        sol = incidence_sphere(10.0, PivotGeometry(), 25.0)
        assert sol.aoi_rad == pytest.approx(SPHERE_10DEG_AOI_RAD, abs=1e-9)
        assert sol.path_mm == pytest.approx(SPHERE_10DEG_PATH_MM, abs=1e-9)
        oracle = brute_force_sphere(10.0, 17.0, 25.0)
        assert oracle is not None
        assert sol.aoi_rad == pytest.approx(oracle[0], abs=1e-9)
        assert sol.path_mm == pytest.approx(oracle[1], abs=1e-9)

    def test_forty_degrees_misses(self):
        with pytest.raises(NoIntersectionError):
            incidence_sphere(40.0, PivotGeometry(), 25.0)
        assert brute_force_sphere(40.0, 17.0, 25.0) is None

    def test_miss_boundary_both_sides(self):
        g = PivotGeometry()
        just_inside = MISS_BOUNDARY_DEG - 1e-3
        just_outside = MISS_BOUNDARY_DEG + 1e-6
        sol = incidence_sphere(just_inside, g, 25.0)
        assert sol.aoi_rad < math.pi / 2.0
        with pytest.raises(NoIntersectionError):
            incidence_sphere(just_outside, g, 25.0)
        assert brute_force_sphere(just_inside, 17.0, 25.0) is not None
        assert brute_force_sphere(just_outside, 17.0, 25.0) is None

    def test_oracle_sweep(self):
        # Closed form vs quadratic-intersection oracle over a theta sweep
        # for a few standoff/radius pairs; acceptance widens this to 1000
        # angles and 20 pairs.
        rng = np.random.default_rng(7)
        for _ in range(5):
            wd = float(rng.uniform(5.0, 60.0))
            radius = float(rng.uniform(3.0, 80.0))
            bound = math.degrees(math.asin(radius / (wd + radius)))
            for theta in np.linspace(-bound + 1e-6, bound - 1e-6, 101):
                sol = incidence_sphere(float(theta), PivotGeometry(wd), radius)
                oracle = brute_force_sphere(float(theta), wd, radius)
                assert oracle is not None
                assert abs(sol.aoi_rad - oracle[0]) <= 1e-9
                assert abs(sol.path_mm - oracle[1]) <= 1e-9 * max(1.0, oracle[1])

    def test_mirror_symmetry(self):
        g = PivotGeometry()
        a = incidence_sphere(10.0, g, 25.0)
        b = incidence_sphere(-10.0, g, 25.0)
        assert a.aoi_rad == b.aoi_rad
        assert a.path_mm == b.path_mm

    def test_monotone_in_abs_theta(self):
        g = PivotGeometry()
        thetas = np.linspace(0.0, 36.0, 181)
        aois = [incidence_sphere(float(t), g, 25.0).aoi_rad for t in thetas]
        assert np.all(np.diff(aois) > 0.0)

    def test_convex_dominance(self):
        g = PivotGeometry()
        for theta in (1.0, 5.0, 12.0, 20.0, 33.0):
            sphere_aoi = incidence_sphere(theta, g, 25.0).aoi_rad
            flat_aoi = incidence_flat(theta, g).aoi_rad
            assert sphere_aoi > flat_aoi

    def test_hit_point_lies_on_sphere(self):
        g = PivotGeometry()
        for theta in (0.0, 7.0, -15.0, 30.0):
            sol = incidence_sphere(theta, g, 25.0)
            x, y = sol.hit_point
            dist = math.hypot(x - 42.0, y)
            assert dist == pytest.approx(25.0, rel=1e-12)


class TestSolveIncidence:
    def test_flat_dispatch(self):
        g = PivotGeometry()
        a = solve_incidence(12.0, g, FlatSurface())
        b = incidence_flat(12.0, g)
        assert a == b

    def test_sphere_dispatch(self):
        g = PivotGeometry()
        a = solve_incidence(12.0, g, SphereSurface(radius_mm=25.0))
        b = incidence_sphere(12.0, g, 25.0)
        assert a == b

    def test_flat_limit_of_huge_sphere(self):
        g = PivotGeometry()
        sol = solve_incidence(15.0, g, SphereSurface(radius_mm=1e6))
        flat = incidence_flat(15.0, g)
        assert abs(sol.aoi_rad - flat.aoi_rad) < 1e-4

    def test_flat_limit_converges_with_radius(self):
        g = PivotGeometry()
        flat = incidence_flat(15.0, g).aoi_rad
        errors = []
        for radius in (1e3, 1e4, 1e6):
            aoi = incidence_sphere(15.0, g, radius).aoi_rad
            errors.append(abs(aoi - flat))
        assert errors[0] > errors[1] > errors[2]

    def test_unknown_surface_rejected(self):
        with pytest.raises(TypeError):
            solve_incidence(0.0, PivotGeometry(), "plate")
