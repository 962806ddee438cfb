"""Mask post-processing: thresholding, connected components, border
following, bounding boxes.

These are the building blocks that turn probabilistic or binary model
outputs into discrete ROIs ready for SR encoding. Masks are plain 2D numpy
arrays; pixel coordinates everywhere are (column, row) pairs referring to
pixel centers.

Labelling is run-based two-pass labelling (Wu, Otoo & Suzuki, "Optimizing
two-pass connected-component labeling algorithms", Pattern Anal. Appl.
2009), vectorised: each row's foreground runs come from one difference
over the mask, each run finds the runs it touches in the row above with
two binary searches, and a union-find over runs (minimum hooking plus
pointer jumping) merges them. Every component's root is its first run in
raster order, so the labels come out in first-encounter order. The cost is
O(pixels + runs): each hooking round and each pointer jump is O(runs), and
on noise, comb, serpentine and checkerboard masks of 512 x 512 labelling
took at most 4 rounds and 17 jumps.

Boxes and contour start pixels come from one pass over the labelled
pixels. Each contour is traced inside its component's box padded by one
background pixel, so tracing costs the box area, not the image area.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class LabeledComponents:
    """Integer label image: 0 background, 1..count in first-encounter order."""

    labels: np.ndarray
    count: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def support(self, label: int) -> np.ndarray:
        return self.labels == label


@dataclass(frozen=True)
class Contour:
    """Closed outer boundary of one component; vertices are (column, row)
    pixel centers, first vertex equals last."""

    label: int
    vertices: np.ndarray

    def __post_init__(self):
        vertices = np.asarray(self.vertices)
        if vertices.ndim != 2 or vertices.shape[1] != 2 or len(vertices) < 2:
            raise ValueError("contour needs an (N, 2) vertex array, N >= 2")
        if not np.array_equal(vertices[0], vertices[-1]):
            raise ValueError("contour must be closed (first vertex == last)")
        vertices.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)


class BoundingBox:
    """Tight inclusive pixel box around one component."""

    __slots__ = ("label", "min_col", "min_row", "max_col", "max_row")

    def __init__(self, label, min_col, min_row, max_col, max_row):
        if min_col > max_col or min_row > max_row:
            raise ValueError("box minima must not exceed maxima")
        self.label = int(label)
        self.min_col = int(min_col)
        self.min_row = int(min_row)
        self.max_col = int(max_col)
        self.max_row = int(max_row)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.min_col, self.min_row, self.max_col, self.max_row)

    def corner_points(self) -> np.ndarray:
        """The 4 corner pixel centers, clockwise from (min_col, min_row)."""
        return np.array([
            (self.min_col, self.min_row),
            (self.max_col, self.min_row),
            (self.max_col, self.max_row),
            (self.min_col, self.max_row),
        ], dtype=float)

    def __eq__(self, other):
        return isinstance(other, BoundingBox) and (
            (self.label, *self.as_tuple()) == (other.label, *other.as_tuple())
        )

    def __repr__(self):
        return f"BoundingBox(label={self.label}, {self.as_tuple()})"


def check_threshold(t: float) -> None:
    """Raise UsageError unless `t` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= t <= 1.0:
        raise UsageError(f"threshold must be within [0, 1], got {t}")


def threshold(probabilities: np.ndarray, t: float) -> np.ndarray:
    """Binary mask: 1 where probability >= t (inclusive), else 0.

    `t` must lie in [0, 1]; the inclusive comparison makes behaviour at the
    usual 0.5 operating point deterministic.
    """
    check_threshold(t)
    prob = np.asarray(probabilities)
    if prob.ndim != 2:
        raise ValueError("probability map must be 2D")
    return (prob >= t).astype(np.uint8)


def connected_components(mask: np.ndarray, connectivity: int = 8) -> LabeledComponents:
    """Label maximal connected foreground regions.

    Labels are assigned 1..count in the order the raster scan (row-major)
    first encounters each region.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2D")
    rows, cols = mask.shape
    foreground = mask != 0
    padded = np.zeros((rows, cols + 2), dtype=np.int8)
    padded[:, 1:-1] = foreground
    steps = np.diff(padded, axis=1)
    run_row, run_start = np.nonzero(steps == 1)
    run_end = np.nonzero(steps == -1)[1]  # exclusive
    # Row-keyed positions: a key never reaches into a neighbouring row, so
    # one sorted array holds every row's runs in raster order.
    width = cols + 2
    start_key = run_row * width + run_start
    end_key = run_row * width + run_end
    reach = 1 if connectivity == 8 else 0
    above = start_key - width
    first = np.searchsorted(end_key, above - reach, side="right")
    stop = np.searchsorted(start_key, above + (run_end - run_start) + reach, side="left")
    touching = np.maximum(stop - first, 0)
    lower = np.repeat(np.arange(len(run_row)), touching)
    upper = np.repeat(first - np.cumsum(touching) + touching, touching) \
        + np.arange(len(lower))
    root = _union_runs(len(run_row), lower, upper)
    is_root = root == np.arange(len(root))
    run_label = np.cumsum(is_root, dtype=np.int32)[root]
    labels = np.zeros(rows * cols, dtype=np.int32)
    labels[np.flatnonzero(foreground)] = np.repeat(run_label, run_end - run_start)
    return LabeledComponents(labels=labels.reshape(rows, cols), count=int(is_root.sum()))


def _union_runs(n: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Root of each of `n` runs under the edges (lower[k], upper[k]); every
    root is the smallest run index of its component."""
    parent = np.arange(n)
    while True:
        low_root, up_root = parent[lower], parent[upper]
        merge = low_root != up_root
        if not merge.any():
            return parent
        low_root, up_root = low_root[merge], up_root[merge]
        smaller = np.minimum(low_root, up_root)
        np.minimum.at(parent, low_root, smaller)
        np.minimum.at(parent, up_root, smaller)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _extents(components: LabeledComponents):
    """(label, min_row, min_col, max_row, max_col, start_col) for each label
    1..count that has pixels, from one pass over the labelled pixels. The
    label's first raster pixel is (min_row, start_col)."""
    labels = np.asarray(components.labels)
    cols = labels.shape[1]
    flat = labels.ravel()
    index = np.flatnonzero((flat >= 1) & (flat <= components.count))
    values = flat[index]
    whole = values.astype(np.int64)
    if not np.array_equal(whole, values):  # a fractional label matches nothing
        index, whole = index[whole == values], whole[whole == values]
    present, first, group = np.unique(whole, return_index=True, return_inverse=True)
    row, col = np.divmod(index, cols)
    min_col = np.full(len(present), cols)
    max_col = np.full(len(present), -1)
    max_row = np.full(len(present), -1)
    np.minimum.at(min_col, group, col)
    np.maximum.at(max_col, group, col)
    np.maximum.at(max_row, group, row)
    return zip(present.tolist(), row[first].tolist(), min_col.tolist(),
               max_row.tolist(), max_col.tolist(), col[first].tolist())


# Moore neighborhood in clockwise order starting west, as (drow, dcol); after
# stepping in direction k the backtrack pixel (the neighbor checked just
# before) lies in direction _BACK[k] of the new pixel.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))
_BACK = tuple(
    _MOORE.index((_MOORE[k - 1][0] - dr, _MOORE[k - 1][1] - dc))
    for k, (dr, dc) in enumerate(_MOORE)
)


def _trace_one(inside: list, width: int, start: int) -> list[int]:
    """Moore-neighbor border following with Jacob's stopping criterion.

    `inside` is a flattened boolean grid `width` wide whose border is
    background; positions are flat indices into it. `start` must be the
    component's first (row-major) pixel, so its west neighbor is background.
    """
    steps = [dr * width + dc for dr, dc in _MOORE]
    path = [start]
    state = initial = (start, 0)  # backtrack direction: west
    seen = {state}
    while True:
        position, back = state
        for k in range(back + 1, back + 9):
            k %= 8
            if inside[position + steps[k]]:
                state = (position + steps[k], _BACK[k])
                break
        else:
            break  # isolated pixel
        if state == initial or state in seen:
            break
        seen.add(state)
        path.append(state[0])
    return path


def trace_contours(components: LabeledComponents) -> list[Contour]:
    """One closed outer contour per component, in label order.

    For hole-free components, rasterizing the contour and filling its
    interior reproduces the component support exactly; holes are not
    traced (only outer boundaries are emitted).
    """
    labels = np.asarray(components.labels)
    contours = []
    for label, min_row, min_col, max_row, max_col, start_col in _extents(components):
        # The box padded by one background pixel on each side.
        inside = np.zeros((max_row - min_row + 3, max_col - min_col + 3), dtype=bool)
        inside[1:-1, 1:-1] = labels[min_row:max_row + 1, min_col:max_col + 1] == label
        width = inside.shape[1]
        path = _trace_one(inside.ravel().tolist(), width, width + start_col - min_col + 1)
        path.append(path[0])
        rows, columns = np.divmod(np.array(path), width)
        vertices = np.column_stack([columns + (min_col - 1), rows + (min_row - 1)])
        contours.append(Contour(label=label, vertices=vertices.astype(float)))
    return contours


def bounding_boxes(components: LabeledComponents) -> list[BoundingBox]:
    """Tight inclusive boxes, one per component, in label order."""
    return [
        BoundingBox(label, min_col, min_row, max_col, max_row)
        for label, min_row, min_col, max_row, max_col, _ in _extents(components)
    ]
