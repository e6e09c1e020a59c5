"""Deficit consistency, hazard proximity ratio, and condition verdicts."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rco.domain import (
    Box,
    ConditionActionPair,
    ExecutionCondition,
    HighLevelAction,
    Behavior,
    ObjectClass,
    SpeedControl,
    ViewName,
)
from rco import verifier
from rco.verifier import (
    ConsistencyReason,
    VerifierConfig,
    _greedy_match_max_shift,
    check_deficit_consistency,
    check_transition,
    classify,
    classify_condition,
    hazard_proximity_ratio,
    union_area,
)
from conftest import history_of_counts, snapshot

CFG = VerifierConfig()


def rasterized_union(boxes, n=1000):
    """Brute-force union area on an n x n grid."""
    grid = np.zeros((n, n), dtype=bool)
    for b in boxes:
        x0, y0 = int(round(b.x0 * n)), int(round(b.y0 * n))
        x1, y1 = int(round(b.x1 * n)), int(round(b.y1 * n))
        grid[x0:x1, y0:y1] = True
    return grid.sum() / (n * n)


@st.composite
def box_sets(draw, max_boxes=6):
    count = draw(st.integers(min_value=0, max_value=max_boxes))
    out = []
    for _ in range(count):
        x0 = draw(st.floats(0.0, 0.85, allow_nan=False))
        y0 = draw(st.floats(0.0, 0.85, allow_nan=False))
        w = draw(st.floats(0.02, 1.0 - x0 if x0 < 0.98 else 0.02, allow_nan=False))
        h = draw(st.floats(0.02, 1.0 - y0 if y0 < 0.98 else 0.02, allow_nan=False))
        out.append(Box(x0, y0, min(1.0, x0 + w) if x0 + w > x0 else x0 + 0.02,
                       min(1.0, y0 + h) if y0 + h > y0 else y0 + 0.02))
    return out


def reference_union_area(boxes):
    """The cell scan ``union_area`` used before its per-slab kernel, copied
    verbatim: every box tested against every cell of the compressed grid."""
    boxes = list(boxes)
    if not boxes:
        return 0.0
    if len(boxes) == 1:  # the sweep below would sum 0.0 + area
        return boxes[0].area
    xs = sorted({b.x0 for b in boxes} | {b.x1 for b in boxes})
    ys = sorted({b.y0 for b in boxes} | {b.y1 for b in boxes})
    total = 0.0
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        for j in range(len(ys) - 1):
            y0, y1 = ys[j], ys[j + 1]
            for b in boxes:
                if b.x0 <= x0 and b.x1 >= x1 and b.y0 <= y0 and b.y1 >= y1:
                    total += (x1 - x0) * (y1 - y0)
                    break
    return total


# Edges on a coarse grid are often shared between boxes; free floats rarely are.
_GRID_EDGES = [i / 8 for i in range(9)]
_edge_pairs = st.one_of(
    st.lists(st.sampled_from(_GRID_EDGES), min_size=2, max_size=2, unique=True),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True),
).map(sorted)


def _inner(lo, hi):
    """An interval strictly inside (lo, hi) where floats allow, else (lo, hi)."""
    quarter = (hi - lo) / 4
    a, b = lo + quarter, hi - quarter
    return (a, b) if a < b else (lo, hi)


@st.composite
def kernel_box_sets(draw, max_boxes=12):
    """0-12 boxes: grid or free edges, plus duplicates and nested copies of
    drawn boxes, in any order."""
    boxes = [Box(x0, y0, x1, y1) for (x0, x1), (y0, y1) in
             draw(st.lists(st.tuples(_edge_pairs, _edge_pairs), max_size=max_boxes))]
    for kind in draw(st.lists(st.sampled_from(["duplicate", "nested"]),
                              max_size=max_boxes - len(boxes))):
        if not boxes:
            break
        b = draw(st.sampled_from(boxes))
        if kind == "nested":
            (x0, x1), (y0, y1) = _inner(b.x0, b.x1), _inner(b.y0, b.y1)
            b = Box(x0, y0, x1, y1)
        boxes.append(b)
    return draw(st.permutations(boxes))


class _CountingBox(Box):
    """A box that counts reads of its coordinates across all instances."""

    reads = 0

    def __getattribute__(self, name):
        if name in ("x0", "y0", "x1", "y1"):
            _CountingBox.reads += 1
        return super().__getattribute__(name)


class TestUnionArea:
    def test_empty(self):
        assert union_area([]) == 0.0

    def test_disjoint_adds(self):
        a = Box(0.0, 0.0, 0.1, 0.3)  # 0.03
        b = Box(0.5, 0.5, 0.7, 0.7)  # 0.04
        assert union_area([a, b]) == pytest.approx(0.07)

    def test_containment_counts_once(self):
        outer = Box(0.2, 0.2, 0.5, 0.4)  # 0.06
        inner = Box(0.25, 0.25, 0.35, 0.35)
        assert union_area([outer, inner]) == pytest.approx(0.06)
        assert rasterized_union([outer, inner]) == pytest.approx(0.06, abs=2e-3)

    def test_partial_overlap(self):
        a = Box(0.0, 0.0, 0.2, 0.2)
        b = Box(0.1, 0.1, 0.3, 0.3)
        # 0.04 + 0.04 - 0.01
        assert union_area([a, b]) == pytest.approx(0.07)

    @settings(max_examples=60, deadline=None)
    @given(box_sets())
    def test_matches_rasterized_brute_force(self, boxes):
        assert union_area(boxes) == pytest.approx(rasterized_union(boxes), abs=2e-3)

    @settings(max_examples=60, deadline=None)
    @given(box_sets(), st.randoms())
    def test_order_invariant(self, boxes, rng):
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        assert union_area(shuffled) == pytest.approx(union_area(boxes), abs=1e-12)

    @given(box_sets(max_boxes=1))
    def test_lone_box_is_its_area(self, boxes):
        # What the sweep sums for one box, bit for bit.
        area = sum((b.x1 - b.x0) * (b.y1 - b.y0) for b in boxes)
        assert union_area(boxes) == area

    @settings(max_examples=60, deadline=None)
    @given(box_sets(max_boxes=4))
    def test_monotone_adding_boxes(self, boxes):
        area = 0.0
        for i in range(len(boxes) + 1):
            nxt = union_area(boxes[:i])
            assert nxt >= area - 1e-12
            area = nxt

    @settings(max_examples=400, deadline=None)
    @given(kernel_box_sets())
    def test_bitwise_equal_to_the_cell_scan(self, boxes):
        # The same products, added in the same order.
        assert union_area(boxes).hex() == reference_union_area(boxes).hex()

    @pytest.mark.parametrize("layout", ["nested", "disjoint"])
    def test_reads_each_box_a_bounded_number_of_times(self, layout):
        if layout == "nested":
            boxes = [_CountingBox(0.04 * i, 0.03 * i, 1.0 - 0.04 * i, 1.0 - 0.03 * i)
                     for i in range(12)]
        else:  # on a diagonal, so that no two boxes share a row or a column of cells
            boxes = [_CountingBox(i / 12, i / 12, (i + 0.5) / 12, (i + 0.5) / 12)
                     for i in range(12)]
        _CountingBox.reads = 0
        area = union_area(boxes)
        reads = _CountingBox.reads
        # The cell scan read one box's coordinates per cell it tested.
        assert reads <= 8 * len(boxes)
        assert area.hex() == reference_union_area(boxes).hex()


class TestDeficitConsistency:
    def test_quantity_mismatch(self):
        verdict = check_deficit_consistency(history_of_counts([2, 2, 3]), CFG)
        assert verdict is ConsistencyReason.QUANTITY_MISMATCH

    def test_deficit_disappeared(self):
        verdict = check_deficit_consistency(history_of_counts([1, 1, 0]), CFG)
        assert verdict is ConsistencyReason.DEFICIT_DISAPPEARED

    def test_small_shift_is_consistent(self):
        frames = [
            snapshot(tick=0, front_deficits=[Box(0.40, 0.4, 0.50, 0.5)]),
            snapshot(tick=1, front_deficits=[Box(0.42, 0.4, 0.52, 0.5)]),  # shift 0.02
        ]
        verdict = check_deficit_consistency(frames, VerifierConfig(shift_threshold=0.10))
        assert verdict is ConsistencyReason.CONSISTENT

    def test_large_shift_exceeds_threshold(self):
        frames = [
            snapshot(tick=0, front_deficits=[Box(0.10, 0.4, 0.20, 0.5)]),
            snapshot(tick=1, front_deficits=[Box(0.40, 0.4, 0.50, 0.5)]),  # shift 0.30
        ]
        verdict = check_deficit_consistency(frames, VerifierConfig(shift_threshold=0.10))
        assert verdict is ConsistencyReason.SPATIAL_SHIFT_EXCEEDED

    def test_matching_is_by_nearest_centroid(self):
        # Two deficits swap list order between frames; nearest matching sees
        # no movement.
        a, b = Box(0.1, 0.4, 0.2, 0.5), Box(0.7, 0.4, 0.8, 0.5)
        frames = [
            snapshot(tick=0, front_deficits=[a, b]),
            snapshot(tick=1, front_deficits=[b, a]),
        ]
        assert check_deficit_consistency(frames, CFG) is ConsistencyReason.CONSISTENT

    def test_checks_all_views(self):
        frames = [
            snapshot(tick=0, left_deficits=[Box(0.1, 0.1, 0.2, 0.2)]),
            snapshot(tick=1, left_deficits=[]),
        ]
        verdict = check_deficit_consistency(frames, CFG)
        assert verdict is ConsistencyReason.DEFICIT_DISAPPEARED

    def test_no_deficits_is_consistent(self):
        assert check_deficit_consistency(history_of_counts([0, 0, 0]), CFG) is ConsistencyReason.CONSISTENT


def fresh_max_shift(prev, cur):
    """The general greedy matcher, with no one-deficit shortcut."""
    a = [d.centroid for d in prev.deficits]
    b = [d.centroid for d in cur.deficits]
    dist = lambda p, q: ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5  # noqa: E731
    pairs = sorted(
        ((dist(p, q), i, j) for i, p in enumerate(a) for j, q in enumerate(b)),
        key=lambda t: (t[0], t[1], t[2]),
    )
    used_a, used_b, max_shift = set(), set(), 0.0
    for d, i, j in pairs:
        if i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            max_shift = max(max_shift, d)
    return max_shift


def fresh_consistency(history, cfg):
    """The scan looked up by view name, as a reference."""
    window = history[-cfg.history_len:]
    for prev, cur in zip(window, window[1:]):
        for name in (ViewName.LEFT, ViewName.FRONT, ViewName.RIGHT):
            pv, cv = prev.view(name), cur.view(name)
            n_prev, n_cur = len(pv.deficits), len(cv.deficits)
            if n_prev > 0 and n_cur == 0:
                return ConsistencyReason.DEFICIT_DISAPPEARED
            if n_prev != n_cur:
                return ConsistencyReason.QUANTITY_MISMATCH
            if n_prev and fresh_max_shift(pv, cv) > cfg.shift_threshold:
                return ConsistencyReason.SPATIAL_SHIFT_EXCEEDED
    return ConsistencyReason.CONSISTENT


# Few distinct boxes, so that counts often match and shifts straddle the threshold.
_deficit_lists = st.lists(
    st.sampled_from([Box(0.1, 0.4, 0.2, 0.5), Box(0.15, 0.4, 0.25, 0.5), Box(0.5, 0.3, 0.7, 0.6)]),
    max_size=3,
)


@st.composite
def windows(draw, min_frames=2, max_frames=6):
    n = draw(st.integers(min_frames, max_frames))
    if draw(st.booleans()):
        # A stable window reaches the shift check on every transition.
        left, front, right = draw(st.tuples(_deficit_lists, _deficit_lists, _deficit_lists))
        return [
            snapshot(tick=t, left_deficits=left, front_deficits=front, right_deficits=right)
            for t in range(n)
        ]
    return [
        snapshot(tick=t, left_deficits=draw(_deficit_lists), front_deficits=draw(_deficit_lists),
                 right_deficits=draw(_deficit_lists))
        for t in range(n)
    ]


class TestConsistencyScanEqualsReference:
    @given(windows(), st.sampled_from([0.04, 0.05, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_verdict(self, frames, shift_threshold):
        cfg = VerifierConfig(shift_threshold=shift_threshold)
        assert check_deficit_consistency(frames, cfg) is fresh_consistency(frames, cfg)

    @given(_deficit_lists, _deficit_lists)
    def test_max_shift(self, a, b):
        n = min(len(a), len(b))
        prev = snapshot(tick=0, front_deficits=a[:n]).view(ViewName.FRONT)
        cur = snapshot(tick=1, front_deficits=b[:n]).view(ViewName.FRONT)
        assert _greedy_match_max_shift(prev, cur) == fresh_max_shift(prev, cur)


@st.composite
def frame_feeds(draw):
    """Frames to classify one per tick, each with what happens before it is
    classified: nothing, or a break in the lineage of the carried run."""
    stable = draw(st.tuples(_deficit_lists, _deficit_lists, _deficit_lists))
    feed = []
    for _ in range(draw(st.integers(1, 16))):
        # Mostly the stable layout, so that consistent runs grow long.
        layout = stable if draw(st.booleans()) else draw(
            st.tuples(_deficit_lists, _deficit_lists, _deficit_lists)
        )
        event = draw(st.sampled_from(
            ["none"] * 4 + ["disengaged", "fresh", "reconfigure", "rebuild", "one_frame"]
        ))
        cfg = VerifierConfig(
            shift_threshold=draw(st.sampled_from([0.04, 0.05, 0.3])),
            history_len=draw(st.sampled_from([2, 3, 5])),
        )
        feed.append((layout, event, cfg))
    return feed


class TestCarriedEqualsFullScan:
    @staticmethod
    def frame(tick, layout):
        left, front, right = layout
        return snapshot(tick=tick, left_deficits=left, front_deficits=front, right_deficits=right)

    @given(frame_feeds())
    @settings(max_examples=200, deadline=None)
    def test_every_tick_equals_the_full_scan(self, feed):
        cfg, run = CFG, None
        history, layouts = [], []
        for tick, (layout, event, other_cfg) in enumerate(feed):
            history.append(self.frame(tick, layout))
            layouts.append(layout)
            if event == "disengaged":  # appended, never classified
                continue
            if event == "fresh":  # a new initial_state()
                run = None
            elif event == "reconfigure":  # the same run under another config
                cfg = other_cfg
            elif event == "rebuild":  # value-equal frames, new objects
                history = [self.frame(f.tick, lay) for f, lay in zip(history, layouts)]
            elif event == "one_frame":  # a history of one frame, under an old run
                history, layouts = history[-1:], layouts[-1:]
            condition, ratio, run = classify(history, cfg, run)
            assert (condition, ratio) == reference_classify(history, cfg)
            window = tuple(history[-cfg.history_len:])
            assert run.frames == window
            assert run.break_tick == self.newest_break(window, cfg.shift_threshold)
            assert (run.break_tick is None) is (condition is not None)

    @staticmethod
    def newest_break(window, shift_threshold):
        """The older tick of the window's newest inconsistent transition, by a
        scan of every transition, or None."""
        breaks = [
            prev.tick for prev, cur in zip(window, window[1:])
            if check_transition(prev, cur, shift_threshold) is not ConsistencyReason.CONSISTENT
        ]
        return breaks[-1] if breaks else None

    def test_extending_the_run_checks_one_transition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            verifier, "check_transition", lambda *a: calls.append(a) or check_transition(*a)
        )
        frames = history_of_counts([1, 1, 2, 2, 2, 2, 2, 2])
        run = None
        for n in range(1, len(frames) + 1):
            calls.clear()
            condition, _ratio, run = classify(frames[:n], CFG, run)
            assert len(calls) == (n >= 2)
            assert (condition is None) is (3 <= n <= 6)  # while frames 1 and 2 are in the window

    def test_a_new_run_scans_to_the_newest_break(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            verifier, "check_transition", lambda *a: calls.append(a) or check_transition(*a)
        )
        frames = history_of_counts([1, 2, 2, 2, 2])
        condition, _ratio, run = classify(frames, CFG, None)
        assert condition is None and len(calls) == 4
        assert run.break_tick == 0 and run.frames == tuple(frames)
        calls.clear()
        assert classify(frames[1:], CFG, None)[0] is not None
        assert len(calls) == 3

    def test_a_run_is_not_reused_under_another_threshold(self):
        # The front deficit moves 0.05 between the first two frames.
        moved = [Box(0.1, 0.4, 0.2, 0.5)] + [Box(0.15, 0.4, 0.25, 0.5)] * 3
        frames = [snapshot(tick=t, front_deficits=[b]) for t, b in enumerate(moved)]
        loose, tight = VerifierConfig(shift_threshold=0.3), VerifierConfig(shift_threshold=0.04)
        _, _, run = classify(frames[:3], loose, None)
        assert run.break_tick is None
        assert classify(frames, tight)[0] is None
        assert classify(frames, tight, run)[0] is None

    def test_a_short_run_is_not_reused_for_a_longer_window(self):
        frames = history_of_counts([2, 1, 1, 1])
        _, _, run = classify(frames[:3], VerifierConfig(history_len=2), None)
        assert run.break_tick is None and len(run.frames) == 2
        assert classify(frames, CFG, run)[0] is None


class TestHazardProximityRatio:
    def test_disjoint_deficit_and_objects(self):
        snap = snapshot(
            front_deficits=[Box(0.0, 0.0, 0.1, 0.3)],  # 0.03
            front_objects=[
                (ObjectClass.CAR, Box(0.5, 0.5, 0.6, 0.7)),  # 0.02
                (ObjectClass.PEDESTRIAN, Box(0.7, 0.5, 0.8, 0.7)),  # 0.02
            ],
        )
        assert hazard_proximity_ratio(snap) == pytest.approx(0.07)

    def test_empty_view_is_zero(self):
        assert hazard_proximity_ratio(snapshot()) == 0.0

    def test_deficit_containing_deficit_counts_once(self):
        # Full containment within the summed set: union semantics keep the
        # outer area only (a visible object can never be fully masked, so the
        # nested box here is a second deficit).
        snap = snapshot(
            front_deficits=[Box(0.2, 0.2, 0.5, 0.4), Box(0.25, 0.25, 0.35, 0.35)],
        )
        assert hazard_proximity_ratio(snap) == pytest.approx(0.06)

    def test_object_partially_under_deficit_not_double_counted(self):
        snap = snapshot(
            front_deficits=[Box(0.2, 0.2, 0.4, 0.4)],  # 0.04
            front_objects=[(ObjectClass.CAR, Box(0.3, 0.3, 0.5, 0.5))],  # 0.04, overlap 0.01
        )
        assert hazard_proximity_ratio(snap) == pytest.approx(0.07)

    def test_signals_do_not_count_as_traffic_objects(self):
        snap = snapshot(
            front_objects=[(ObjectClass.TRAFFIC_LIGHT, Box(0.4, 0.4, 0.6, 0.6))],
        )
        assert hazard_proximity_ratio(snap) == 0.0

    def test_only_front_view_by_default(self):
        snap = snapshot(left_deficits=[Box(0.1, 0.1, 0.9, 0.9)])
        assert hazard_proximity_ratio(snap) == 0.0
        assert hazard_proximity_ratio(snap, front_view_only=False) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(box_sets(max_boxes=3), box_sets(max_boxes=3))
    def test_adding_a_deficit_never_decreases_ratio(self, deficits, extra):
        ratio = hazard_proximity_ratio(snapshot(front_deficits=deficits))
        grown = hazard_proximity_ratio(snapshot(front_deficits=list(deficits) + list(extra)))
        assert grown >= ratio - 1e-12


class TestClassifyCondition:
    def consistent_history_with_ratio(self, deficit: Box):
        return [
            snapshot(tick=0, front_deficits=[deficit]),
            snapshot(tick=1, front_deficits=[deficit]),
        ]

    def test_ratio_above_threshold_is_immediate_hazard(self):
        frames = self.consistent_history_with_ratio(Box(0.4, 0.4, 0.75, 0.6))  # 0.07
        assert classify_condition(frames, CFG) is ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD

    def test_ratio_exactly_at_threshold_is_not_hazard(self):
        # Strict inequality: 0.05 exactly stays below the bar.
        frames = self.consistent_history_with_ratio(Box(0.4, 0.4, 0.9, 0.5))  # 0.5 * 0.1
        assert hazard_proximity_ratio(frames[-1]) == pytest.approx(0.05)
        assert classify_condition(frames, CFG) is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD

    def test_ratio_below_threshold_is_no_hazard(self):
        frames = self.consistent_history_with_ratio(Box(0.4, 0.4, 0.5, 0.5))  # 0.01
        assert classify_condition(frames, CFG) is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD

    def test_inconsistency_wins_over_ratio(self):
        frames = [
            snapshot(tick=0, front_deficits=[Box(0.1, 0.1, 0.9, 0.9)], ),
            snapshot(
                tick=1,
                front_deficits=[Box(0.1, 0.1, 0.9, 0.9), Box(0.0, 0.0, 0.05, 0.05)],
            ),
        ]
        assert classify_condition(frames, CFG) is None

    def test_pure_function_of_window(self):
        frames = self.consistent_history_with_ratio(Box(0.4, 0.4, 0.75, 0.6))
        assert classify_condition(frames, CFG) == classify_condition(list(frames), CFG)

    def test_single_frame_is_caller_error(self):
        with pytest.raises(ValueError, match="need at least 2 frames"):
            classify_condition([snapshot(tick=0)], CFG)


def reference_classify(history, cfg):
    """The full-scan reference for ``classify``: the window's consistency from
    ``check_deficit_consistency``, with no carried run. A single frame is
    vacuously consistent and classified by ratio alone."""
    ratio = hazard_proximity_ratio(history[-1], cfg.front_view_only)
    consistent = ConsistencyReason.CONSISTENT
    if len(history) >= 2 and check_deficit_consistency(history, cfg) is not consistent:
        return None, ratio
    if ratio > cfg.hazard_ratio_threshold:
        return ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD, ratio
    return ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD, ratio


class TestClassifyEqualsReference:
    @given(windows(1, 5), st.sampled_from([0.005, 0.05, 0.07]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_classification_and_ratio(self, frames, threshold, front_view_only):
        cfg = VerifierConfig(hazard_ratio_threshold=threshold, front_view_only=front_view_only)
        assert classify(frames, cfg)[:2] == reference_classify(frames, cfg)
        if len(frames) >= 2:
            assert classify_condition(frames, cfg) is classify(frames, cfg)[0]


class TestVerify:
    PAIR_NO_HAZ = ConditionActionPair(
        ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
        HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.CONSTANT_SPEED),
    )
    PAIR_HAZ = ConditionActionPair(
        ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD,
        HighLevelAction(Behavior.STOP, SpeedControl.DECELERATION_TO_ZERO),
    )

    def quiet_history(self):
        return history_of_counts([1, 1])

    def hazard_history(self):
        box = Box(0.3, 0.3, 0.8, 0.6)  # 0.15 area
        return [
            snapshot(tick=0, front_deficits=[box]),
            snapshot(tick=1, front_deficits=[box]),
        ]

    @staticmethod
    def executes(pair, frames):
        # The control loop's gate: a pair runs iff the live condition is its
        # condition.
        return classify_condition(frames, CFG) is pair.condition

    def test_matching_condition_executes(self):
        assert self.executes(self.PAIR_NO_HAZ, self.quiet_history())

    def test_mismatched_condition_denied(self):
        assert not self.executes(self.PAIR_NO_HAZ, self.hazard_history())
        assert self.executes(self.PAIR_HAZ, self.hazard_history())

    def test_replan_denies_everything(self):
        frames = history_of_counts([2, 3])
        assert not self.executes(self.PAIR_NO_HAZ, frames)
        assert not self.executes(self.PAIR_HAZ, frames)

    def test_execute_implies_classification_matches(self):
        rng = random.Random(7)
        for _ in range(200):
            n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
            frames = history_of_counts([n1, n2])
            for pair in (self.PAIR_NO_HAZ, self.PAIR_HAZ):
                if self.executes(pair, frames):
                    cls = classify_condition(frames, CFG)
                    assert cls.value == pair.condition.value


class TestVerifierConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            VerifierConfig(shift_threshold=0.0)
        with pytest.raises(ValueError):
            VerifierConfig(hazard_ratio_threshold=1.0)
        with pytest.raises(ValueError):
            VerifierConfig(history_len=1)

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_thresholds_must_be_numbers(self, bad):
        with pytest.raises(TypeError):
            VerifierConfig(shift_threshold=bad)
        with pytest.raises(TypeError):
            VerifierConfig(hazard_ratio_threshold=bad)
