"""Affine mapping between the 2D pixel matrix and 3D frame-of-reference space.

Pixel coordinates are (column, row) pairs, zero-based, referring to pixel
centers; sub-pixel values are allowed. Reference coordinates are (x, y, z)
millimeters in whichever physical frame (patient- or slide-based) the plane
lives in; the math is identical for both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GeometryError, OffPlaneError

DEFAULT_TOLERANCE_MM = 1e-3
_ORTHONORMALITY_TOL = 1e-6


@dataclass(frozen=True)
class PlaneGeometry:
    """Position, orientation, and spacing of one image plane.

    position: (x, y, z) mm of the center of the top-left pixel.
    orientation: six direction cosines; the first triplet points along
        increasing column index, the second along increasing row index.
    spacing: (row_spacing, column_spacing) mm between pixel centers.
    """

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float, float, float]
    spacing: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "orientation", tuple(float(v) for v in self.orientation))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        if len(self.position) != 3 or len(self.orientation) != 6 or len(self.spacing) != 2:
            raise GeometryError("geometry needs 3 position, 6 orientation, 2 spacing values")
        col_dir = np.asarray(self.orientation[:3])
        row_dir = np.asarray(self.orientation[3:])
        if abs(np.linalg.norm(col_dir) - 1.0) > _ORTHONORMALITY_TOL:
            raise GeometryError("column direction cosines are not unit length")
        if abs(np.linalg.norm(row_dir) - 1.0) > _ORTHONORMALITY_TOL:
            raise GeometryError("row direction cosines are not unit length")
        if abs(float(col_dir @ row_dir)) > _ORTHONORMALITY_TOL:
            raise GeometryError("direction cosine triplets are not orthogonal")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise GeometryError("pixel spacings must be positive")

    @property
    def column_direction(self) -> np.ndarray:
        return np.asarray(self.orientation[:3])

    @property
    def row_direction(self) -> np.ndarray:
        return np.asarray(self.orientation[3:])

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.column_direction, self.row_direction)


@dataclass(frozen=True)
class AffineMapper:
    """3x4 homogeneous mapping of (column, row, 1) onto (x, y, z) mm."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (3, 4):
            raise GeometryError(f"mapper matrix must be 3x4, got {matrix.shape}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def pixel_to_reference(self, pixel: Sequence[float]) -> np.ndarray:
        """Map (column, row) pixels (possibly sub-pixel, possibly an (N, 2)
        array) to (x, y, z) mm."""
        points = np.atleast_2d(np.asarray(pixel, dtype=float))
        if points.shape[-1] != 2:
            raise ValueError("pixel coordinates must be (column, row) pairs")
        out = points @ self.matrix[:, :2].T + self.matrix[:, 3]
        return out[0] if np.ndim(pixel) == 1 else out

    def reference_to_pixel(
        self, point: Sequence[float], tolerance: float = DEFAULT_TOLERANCE_MM
    ) -> np.ndarray:
        """Map (x, y, z) mm back to (column, row) pixels.

        The point must lie within `tolerance` mm of the plane (measured
        along the normal); otherwise an OffPlaneError reporting the
        distance is raised. The result is the in-plane projection.
        """
        points = np.atleast_2d(np.asarray(point, dtype=float))
        if points.shape[-1] != 3:
            raise ValueError("reference coordinates must be (x, y, z) triplets")
        delta = points - self.matrix[:, 3]
        col_axis = self.matrix[:, 0]
        row_axis = self.matrix[:, 1]
        normal = self.matrix[:, 2]
        distances = np.abs(delta @ normal)
        worst = float(distances.max()) if distances.size else 0.0
        if worst > tolerance:
            raise OffPlaneError(worst, tolerance)
        cols = delta @ col_axis / (col_axis @ col_axis)
        rows = delta @ row_axis / (row_axis @ row_axis)
        out = np.stack([cols, rows], axis=-1)
        return out[0] if np.ndim(point) == 1 else out


def mapper_from_geometry(geometry: PlaneGeometry) -> AffineMapper:
    """Mapper sending pixel (0, 0) exactly onto the declared position."""
    row_spacing, column_spacing = geometry.spacing
    matrix = np.empty((3, 4))
    matrix[:, 0] = geometry.column_direction * column_spacing
    matrix[:, 1] = geometry.row_direction * row_spacing
    matrix[:, 2] = geometry.normal
    matrix[:, 3] = np.asarray(geometry.position)
    return AffineMapper(matrix)


def pixel_to_reference(mapper: AffineMapper, pixel) -> np.ndarray:
    return mapper.pixel_to_reference(pixel)


def reference_to_pixel(mapper: AffineMapper, point,
                       tolerance: float = DEFAULT_TOLERANCE_MM) -> np.ndarray:
    return mapper.reference_to_pixel(point, tolerance)
