"""ROI post-processing tests with independent flood-fill oracles."""
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dicomforge.roi import (
    BoundingBox,
    LabeledComponents,
    bounding_boxes,
    connected_components,
    threshold,
    trace_contours,
)

N4 = ((-1, 0), (1, 0), (0, -1), (0, 1))


def flood_fill_oracle(mask: np.ndarray, connectivity: int) -> int:
    """Independent component count via plain flood fill."""
    offsets = N4 if connectivity == 4 else N4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))
    rows, cols = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for r in range(rows):
        for c in range(cols):
            if mask[r, c] and not seen[r, c]:
                count += 1
                stack = [(r, c)]
                seen[r, c] = True
                while stack:
                    qr, qc = stack.pop()
                    for dr, dc in offsets:
                        nr, nc = qr + dr, qc + dc
                        if 0 <= nr < rows and 0 <= nc < cols \
                                and mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            stack.append((nr, nc))
    return count


def fill_contour_oracle(vertices: np.ndarray, shape) -> set:
    """Pixels enclosed by (and on) a contour: complement of the 4-connected
    background flood from outside the image, walls = contour pixels."""
    rows, cols = shape
    walls = {(int(r), int(c)) for c, r in vertices}
    visited = set()
    queue = deque()
    for r in (-1, rows):
        for c in range(-1, cols + 1):
            queue.append((r, c))
            visited.add((r, c))
    for c in (-1, cols):
        for r in range(rows):
            queue.append((r, c))
            visited.add((r, c))
    while queue:
        r, c = queue.popleft()
        for dr, dc in N4:
            nr, nc = r + dr, c + dc
            if -1 <= nr <= rows and -1 <= nc <= cols \
                    and (nr, nc) not in visited and (nr, nc) not in walls:
                visited.add((nr, nc))
                queue.append((nr, nc))
    return {
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if (r, c) not in visited
    }


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Foreground plus any background not 4-connected to the border."""
    rows, cols = mask.shape
    reachable = np.zeros_like(mask, dtype=bool)
    queue = deque()
    for r in range(rows):
        for c in (0, cols - 1):
            if not mask[r, c] and not reachable[r, c]:
                reachable[r, c] = True
                queue.append((r, c))
    for c in range(cols):
        for r in (0, rows - 1):
            if not mask[r, c] and not reachable[r, c]:
                reachable[r, c] = True
                queue.append((r, c))
    while queue:
        r, c = queue.popleft()
        for dr, dc in N4:
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols \
                    and not mask[nr, nc] and not reachable[nr, nc]:
                reachable[nr, nc] = True
                queue.append((nr, nc))
    filled = mask.copy()
    filled[(mask == 0) & ~reachable] = 1
    return filled


def random_hole_free_mask(np_rng, rows=32, cols=32, density=0.35) -> np.ndarray:
    return fill_holes((np_rng.random((rows, cols)) < density).astype(np.uint8))


class TestThreshold:
    def test_inclusive_at_operating_point(self):
        prob = np.full((4, 4), 0.5)
        assert threshold(prob, 0.5).all()

    def test_zero_threshold_selects_everything(self):
        prob = np.random.default_rng(1).random((5, 5))
        assert threshold(prob, 0.0).all()

    def test_strictly_below_excluded(self):
        assert np.array_equal(threshold(np.array([[0.4, 0.6]]), 0.5), [[0, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            threshold(np.zeros((2, 2)), 1.5)

    def test_monotone_in_threshold(self, np_rng):
        prob = np_rng.random((16, 16))
        low = threshold(prob, 0.3)
        high = threshold(prob, 0.7)
        assert np.all(high <= low)


class TestConnectedComponents:
    def test_empty_mask(self):
        assert connected_components(np.zeros((4, 4), np.uint8)).count == 0

    def test_full_mask_single_component(self):
        lc = connected_components(np.ones((4, 4), np.uint8))
        assert lc.count == 1
        assert (lc.labels == 1).all()

    def test_diagonal_pixels_by_connectivity(self):
        mask = np.zeros((3, 3), np.uint8)
        mask[0, 0] = mask[1, 1] = 1
        assert connected_components(mask, connectivity=8).count == 1
        assert connected_components(mask, connectivity=4).count == 2

    def test_first_encounter_order(self):
        mask = np.zeros((3, 5), np.uint8)
        mask[0, 4] = 1   # encountered first (row 0)
        mask[2, 0] = 1   # encountered second
        lc = connected_components(mask)
        assert lc.labels[0, 4] == 1
        assert lc.labels[2, 0] == 2

    def test_matches_flood_fill_oracle(self, np_rng):
        for connectivity in (4, 8):
            for _ in range(20):
                mask = (np_rng.random((16, 16)) < 0.4).astype(np.uint8)
                lc = connected_components(mask, connectivity)
                assert lc.count == flood_fill_oracle(mask, connectivity)
                assert np.array_equal(lc.labels > 0, mask == 1)


class TestContours:
    def test_single_pixel_degenerate_contour(self):
        mask = np.zeros((6, 6), np.uint8)
        mask[3, 2] = 1  # row 3, column 2
        [contour] = trace_contours(connected_components(mask))
        assert np.array_equal(contour.vertices[0], [2, 3])
        assert np.array_equal(contour.vertices[0], contour.vertices[-1])
        filled = fill_contour_oracle(contour.vertices, mask.shape)
        assert filled == {(3, 2)}

    def test_solid_square_boundary(self):
        mask = np.zeros((5, 5), np.uint8)
        mask[1:4, 1:4] = 1
        [contour] = trace_contours(connected_components(mask))
        interior = {(2, 2)}
        boundary = {
            (r, c) for r in range(1, 4) for c in range(1, 4)
        } - interior
        traced = {(int(r), int(c)) for c, r in contour.vertices}
        assert traced == boundary
        filled = fill_contour_oracle(contour.vertices, mask.shape)
        assert filled == boundary | interior

    def test_two_components_two_contours(self):
        mask = np.zeros((5, 5), np.uint8)
        mask[0, 0] = 1
        mask[4, 4] = 1
        contours = trace_contours(connected_components(mask))
        assert [c.label for c in contours] == [1, 2]

    def test_fill_equivalence_on_random_hole_free_masks(self, np_rng):
        for _ in range(25):
            mask = random_hole_free_mask(np_rng, 16, 16)
            lc = connected_components(mask)
            for contour in trace_contours(lc):
                support = {
                    (int(r), int(c))
                    for r, c in np.argwhere(lc.labels == contour.label)
                }
                filled = fill_contour_oracle(contour.vertices, mask.shape)
                assert filled == support

    def test_vertices_lie_on_component_boundary(self, np_rng):
        mask = random_hole_free_mask(np_rng, 20, 20)
        lc = connected_components(mask)
        for contour in trace_contours(lc):
            for c, r in contour.vertices:
                assert lc.labels[int(r), int(c)] == contour.label


class TestBoundingBoxes:
    def test_single_pixel(self):
        mask = np.zeros((6, 6), np.uint8)
        mask[3, 2] = 1
        [box] = bounding_boxes(connected_components(mask))
        assert box.as_tuple() == (2, 3, 2, 3)

    def test_l_shape(self):
        mask = np.zeros((6, 6), np.uint8)
        mask[1:5, 0] = 1       # vertical arm, rows 1..4, col 0
        mask[4, 0:3] = 1       # horizontal arm, row 4, cols 0..2
        [box] = bounding_boxes(connected_components(mask))
        assert box.as_tuple() == (0, 1, 2, 4)

    def test_empty_input(self):
        assert bounding_boxes(connected_components(np.zeros((3, 3), np.uint8))) == []

    def test_boxes_are_tight(self, np_rng):
        for _ in range(10):
            mask = (np_rng.random((16, 16)) < 0.3).astype(np.uint8)
            lc = connected_components(mask)
            for box in bounding_boxes(lc):
                support = lc.labels == box.label
                assert support[box.min_row, box.min_col:box.max_col + 1].any()
                assert support[box.max_row, box.min_col:box.max_col + 1].any()
                assert support[box.min_row:box.max_row + 1, box.min_col].any()
                assert support[box.min_row:box.max_row + 1, box.max_col].any()

    def test_corner_points_order(self):
        box = BoundingBox(1, 2, 3, 7, 9)
        assert np.array_equal(
            box.corner_points(), [(2, 3), (7, 3), (7, 9), (2, 9)]
        )


# -- Reference oracles ---------------------------------------------------------
#
# The direct implementations below are the per-pixel BFS labeller, the
# per-label box scan and the full-image Moore tracer. They are slow but
# obviously correct; the library's run-based versions must reproduce their
# output exactly (labels, label order, dtype, boxes and contour vertices).

MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))
MOORE_INDEX = {offset: i for i, offset in enumerate(MOORE)}


def reference_components(mask: np.ndarray, connectivity: int):
    offsets = N4 if connectivity == 4 else N4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))
    rows, cols = mask.shape
    labels = np.zeros((rows, cols), dtype=np.int32)
    count = 0
    for r in range(rows):
        for c in range(cols):
            if not mask[r, c] or labels[r, c]:
                continue
            count += 1
            queue = deque([(r, c)])
            labels[r, c] = count
            while queue:
                qr, qc = queue.popleft()
                for dr, dc in offsets:
                    nr, nc = qr + dr, qc + dc
                    if 0 <= nr < rows and 0 <= nc < cols \
                            and mask[nr, nc] and not labels[nr, nc]:
                        labels[nr, nc] = count
                        queue.append((nr, nc))
    return labels, count


def reference_boxes(labels: np.ndarray, count: int) -> list:
    boxes = []
    for label in range(1, count + 1):
        rows_idx, cols_idx = np.nonzero(labels == label)
        if len(rows_idx) == 0:
            continue
        boxes.append(BoundingBox(label, cols_idx.min(), rows_idx.min(),
                                 cols_idx.max(), rows_idx.max()))
    return boxes


def reference_trace(labels: np.ndarray, label: int, start) -> list:
    rows, cols = labels.shape
    path = [start]
    initial = state = (start, 0)
    seen = {state}
    while True:
        (r, c), back = state
        nxt = None
        for k in range(1, 9):
            dr, dc = MOORE[(back + k) % 8]
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and labels[nr, nc] == label:
                pr, pc = MOORE[(back + k - 1) % 8]
                nxt = ((nr, nc), MOORE_INDEX[(r + pr - nr, c + pc - nc)])
                break
        if nxt is None or nxt == initial or nxt in seen:
            break
        seen.add(nxt)
        path.append(nxt[0])
        state = nxt
    return path


def reference_contours(labels: np.ndarray, count: int) -> list:
    contours = []
    for label in range(1, count + 1):
        pixels = np.argwhere(labels == label)
        if len(pixels) == 0:
            continue
        start = tuple(pixels[0])
        path = reference_trace(labels, label, start)
        vertices = np.array(
            [(c, r) for r, c in path] + [(start[1], start[0])], dtype=float)
        contours.append((label, vertices))
    return contours


def assert_matches_reference(mask: np.ndarray, connectivity: int) -> None:
    expected_labels, expected_count = reference_components(mask, connectivity)
    lc = connected_components(mask, connectivity)
    assert lc.count == expected_count
    assert lc.labels.dtype == np.int32
    assert lc.labels.shape == mask.shape
    assert np.array_equal(lc.labels, expected_labels)
    assert_outputs_match_reference(LabeledComponents(expected_labels, expected_count))


def assert_outputs_match_reference(lc: LabeledComponents) -> None:
    assert bounding_boxes(lc) == reference_boxes(lc.labels, lc.count)
    got = [(c.label, c.vertices) for c in trace_contours(lc)]
    expected = reference_contours(lc.labels, lc.count)
    assert [label for label, _ in got] == [label for label, _ in expected]
    for (_, vertices), (_, expected_vertices) in zip(got, expected):
        assert vertices.dtype == expected_vertices.dtype
        assert np.array_equal(vertices, expected_vertices)


@st.composite
def masks(draw):
    rows = draw(st.integers(1, 23))
    cols = draw(st.integers(1, 23))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


class TestReferenceOracles:
    @settings(max_examples=200, deadline=None)
    @given(masks(), st.sampled_from((4, 8)))
    @example(np.zeros((1, 1), np.uint8), 8)
    @example(np.ones((1, 1), np.uint8), 4)
    @example(np.array([[1, 0, 1, 1, 0, 0, 1, 1, 1]], np.uint8), 8)
    @example(np.array([[1], [0], [1], [1], [0], [1]], np.uint8), 4)
    @example(np.zeros((5, 7), np.uint8), 4)
    @example(np.ones((5, 7), np.uint8), 8)
    @example(np.ones((1, 23), np.uint8), 4)
    @example(np.ones((23, 1), np.uint8), 8)
    @example(np.eye(6, dtype=np.uint8), 8)
    @example(np.eye(6, dtype=np.uint8)[::-1].copy(), 8)
    @example(np.eye(6, dtype=np.uint8), 4)
    def test_random_masks_match_reference(self, mask, connectivity):
        assert_matches_reference(mask, connectivity)

    def test_u_and_spiral_shapes_merge_late(self):
        # Both arms of a U get separate provisional labels in the first row
        # and only meet at the bottom; a spiral nests several such merges.
        u_shape = np.zeros((6, 7), np.uint8)
        u_shape[0:5, 1] = u_shape[0:5, 5] = 1
        u_shape[4, 1:6] = 1
        spiral = np.array([
            [1, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 1],
            [1, 1, 1, 1, 1, 0, 1],
            [1, 0, 0, 0, 1, 0, 1],
            [1, 0, 1, 0, 0, 0, 1],
            [1, 0, 1, 1, 1, 1, 1],
        ], np.uint8)
        zigzag = np.array([[1, 0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0, 1, 0]], np.uint8)
        for mask in (u_shape, spiral, zigzag, zigzag[::-1].copy()):
            for connectivity in (4, 8):
                assert_matches_reference(mask, connectivity)

    def test_mask_truthiness_includes_nan_and_negatives(self):
        mask = np.array([
            [0.0, np.nan, 0.0, -2.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 1e-9],
        ])
        for connectivity in (4, 8):
            assert_matches_reference(mask, connectivity)
        assert_matches_reference(mask.astype(bool), 8)
        assert_matches_reference(np.nan_to_num(mask * 4, nan=7).astype(np.int64), 8)

    def test_hand_built_labels_with_gaps_and_stray_labels(self):
        labels = np.array([
            [0, 3, 3, 0, 7, 0],
            [1, 0, 3, 0, 7, 0],
            [1, 1, 0, -1, 0, 5],
            [0, 0, 3, 0, 0, 5],
        ], dtype=np.int64)
        # label 2 is missing, 3 has two separate pieces, 5 is above count 4,
        # 7 is far above it and -1 is negative: only 1 and 3 yield outputs.
        lc = LabeledComponents(labels=labels, count=4)
        assert [box.label for box in bounding_boxes(lc)] == [1, 3]
        assert [c.label for c in trace_contours(lc)] == [1, 3]
        assert_outputs_match_reference(lc)
        for count in (0, 1, 2, 5, 6, 7, 8):
            assert_outputs_match_reference(LabeledComponents(labels, count))
        assert_outputs_match_reference(LabeledComponents(labels.astype(np.uint8) % 8, 7))

    def test_hand_built_fractional_labels_match_nothing(self):
        labels = np.array([[0.0, 1.0, 1.5], [2.0, 0.0, 1.5], [2.5, 2.0, np.nan]])
        lc = LabeledComponents(labels=labels, count=3)
        assert [box.label for box in bounding_boxes(lc)] == [1, 2]
        assert_outputs_match_reference(lc)

    def test_hand_built_labels_touching_each_other(self, np_rng):
        for _ in range(20):
            labels = np_rng.integers(0, 5, size=(9, 11))
            assert_outputs_match_reference(LabeledComponents(labels, 3))


def first_encounter(labels: np.ndarray, count: int) -> np.ndarray:
    """Relabel 1..count in raster order of each label's first pixel."""
    found, first = np.unique(labels.ravel(), return_index=True)
    order = found[found > 0][np.argsort(first[found > 0])]
    remap = np.zeros(count + 1, dtype=np.int32)
    remap[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    return remap[labels]


class TestScipyDifferential:
    @settings(max_examples=100, deadline=None)
    @given(masks(), st.sampled_from((4, 8)))
    def test_matches_scipy_label_in_first_encounter_order(self, mask, connectivity):
        ndimage = pytest.importorskip("scipy.ndimage")
        structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
        expected, count = ndimage.label(mask, structure=structure)
        lc = connected_components(mask, connectivity)
        assert lc.count == count
        assert np.array_equal(lc.labels, first_encounter(expected, count))

    def test_large_noise_matches_scipy(self, np_rng):
        ndimage = pytest.importorskip("scipy.ndimage")
        mask = (np_rng.random((128, 96)) < 0.3).astype(np.uint8)
        for connectivity in (4, 8):
            structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
            expected, count = ndimage.label(mask, structure=structure)
            lc = connected_components(mask, connectivity)
            assert lc.count == count
            assert np.array_equal(lc.labels, first_encounter(expected, count))
            assert_outputs_match_reference(lc)
