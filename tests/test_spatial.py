"""Plane geometry and affine mapping tests (hand-evaluated oracles)."""
import math

import numpy as np
import pytest

from dicomforge.errors import GeometryError, OffPlaneError, UsageError
from dicomforge.spatial import AffineMapper, PlaneGeometry, mapper_from_geometry

IDENTITY = PlaneGeometry(
    position=(0, 0, 0), orientation=(1, 0, 0, 0, 1, 0), spacing=(1, 1)
)


def random_geometry(rng) -> PlaneGeometry:
    """Random orthonormal plane: random rotation, offset, spacings."""
    # rotation from QR decomposition of a random matrix
    m = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    col_dir, row_dir = q[:, 0], q[:, 1]
    return PlaneGeometry(
        position=tuple(rng.uniform(-100, 100) for _ in range(3)),
        orientation=(*col_dir, *row_dir),
        spacing=(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)),
    )


class TestMapperFromGeometry:
    def test_identity_geometry(self):
        mapper = mapper_from_geometry(IDENTITY)
        assert np.array_equal(mapper.pixel_to_reference((5, 7)), [5, 7, 0])

    def test_offset_and_spacing(self):
        geometry = PlaneGeometry(
            position=(10, 20, 30), orientation=(1, 0, 0, 0, 1, 0), spacing=(2, 2)
        )
        mapper = mapper_from_geometry(geometry)
        assert np.array_equal(mapper.pixel_to_reference((3, 4)), [16, 28, 30])

    def test_swapped_axes(self):
        geometry = PlaneGeometry(
            position=(0, 0, 0), orientation=(0, 1, 0, 1, 0, 0), spacing=(1, 1)
        )
        mapper = mapper_from_geometry(geometry)
        assert np.array_equal(mapper.pixel_to_reference((3, 4)), [4, 3, 0])

    def test_row_vs_column_spacing_roles(self):
        # row spacing moves along the row index, column spacing along column
        geometry = PlaneGeometry(
            position=(0, 0, 0), orientation=(1, 0, 0, 0, 1, 0), spacing=(3, 2)
        )
        mapper = mapper_from_geometry(geometry)
        assert np.array_equal(mapper.pixel_to_reference((1, 0)), [2, 0, 0])
        assert np.array_equal(mapper.pixel_to_reference((0, 1)), [0, 3, 0])

    def test_origin_anchoring_exact(self, rng):
        for _ in range(50):
            geometry = random_geometry(rng)
            mapper = mapper_from_geometry(geometry)
            assert tuple(mapper.pixel_to_reference((0, 0))) == geometry.position

    def test_non_unit_orientation_rejected(self):
        with pytest.raises(GeometryError):
            PlaneGeometry((0, 0, 0), (2, 0, 0, 0, 1, 0), (1, 1))

    def test_non_orthogonal_orientation_rejected(self):
        s = math.sqrt(0.5)
        with pytest.raises(GeometryError):
            PlaneGeometry((0, 0, 0), (1, 0, 0, s, s, 0), (1, 1))

    def test_non_positive_spacing_rejected(self):
        with pytest.raises(GeometryError):
            PlaneGeometry((0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 1))

    @pytest.mark.parametrize("position, orientation, spacing", [
        ((math.nan, 0, 0), (1, 0, 0, 0, 1, 0), (1, 1)),
        ((0, 0, math.inf), (1, 0, 0, 0, 1, 0), (1, 1)),
        ((0, 0, 0), (math.nan, 0, 0, 0, 1, 0), (1, 1)),
        ((0, 0, 0), (1, 0, 0, 0, 1, 0), (math.nan, 1)),
        ((0, 0, 0), (1, 0, 0, 0, 1, 0), (1, math.inf)),
    ], ids=["nan-position", "inf-position", "nan-orientation", "nan-spacing",
            "inf-spacing"])
    def test_non_finite_geometry_rejected(self, position, orientation, spacing):
        with pytest.raises(GeometryError, match="finite"):
            PlaneGeometry(position, orientation, spacing)


class TestInverse:
    def test_round_trip_random_planes(self, rng):
        for _ in range(200):
            mapper = mapper_from_geometry(random_geometry(rng))
            pixel = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            point = mapper.pixel_to_reference(pixel)
            back = mapper.reference_to_pixel(point)
            assert np.allclose(back, pixel, atol=1e-9)

    def test_off_plane_rejection_reports_distance(self, rng):
        geometry = random_geometry(rng)
        mapper = mapper_from_geometry(geometry)
        on_plane = mapper.pixel_to_reference((2, 3))
        displaced = on_plane + 0.5 * geometry.normal
        with pytest.raises(OffPlaneError) as excinfo:
            mapper.reference_to_pixel(displaced, tolerance=0.1)
        assert excinfo.value.distance == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("tolerance", [-1.0, -0.0001, math.nan])
    def test_tolerance_must_be_a_number_of_at_least_zero(self, tolerance):
        mapper = mapper_from_geometry(IDENTITY)
        with pytest.raises(UsageError, match="tolerance"):
            mapper.reference_to_pixel((1, 2, 500), tolerance=tolerance)
        assert np.array_equal(mapper.reference_to_pixel((1, 2, 0), tolerance=0), (1, 2))

    def test_within_tolerance_projected(self, rng):
        geometry = random_geometry(rng)
        mapper = mapper_from_geometry(geometry)
        on_plane = mapper.pixel_to_reference((2, 3))
        displaced = on_plane + 0.05 * geometry.normal
        back = mapper.reference_to_pixel(displaced, tolerance=0.1)
        assert np.allclose(back, (2, 3), atol=1e-9)

    def test_distance_preserved_up_to_spacing(self, rng):
        for _ in range(20):
            geometry = random_geometry(rng)
            mapper = mapper_from_geometry(geometry)
            p1 = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20)])
            p2 = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20)])
            world = np.linalg.norm(
                mapper.pixel_to_reference(p1) - mapper.pixel_to_reference(p2)
            )
            row_spacing, column_spacing = geometry.spacing
            weighted = math.hypot(
                (p1[0] - p2[0]) * column_spacing, (p1[1] - p2[1]) * row_spacing
            )
            assert world == pytest.approx(weighted, rel=1e-9, abs=1e-9)

    def test_batch_mapping(self):
        mapper = mapper_from_geometry(IDENTITY)
        pixels = np.array([[0, 0], [1, 2], [3, 4]])
        points = mapper.pixel_to_reference(pixels)
        assert points.shape == (3, 3)
        assert np.array_equal(points[:, :2], pixels)
