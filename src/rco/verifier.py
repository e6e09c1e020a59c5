"""Rule-based action condition verifier.

Two checks gate execution of a planned pair: deficit consistency over the
recent frame window (counts stable, centroids steady), and the hazard
proximity ratio — the union area of front-view deficit regions and traffic
object boxes as a fraction of the image. Inconsistency forces replanning;
a ratio strictly above the threshold marks an immediate hazard. The control
loop carries each window's consistency run to the next tick, so a window
that extends the previous one by a frame checks only its newest transition.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import Iterable, Optional, Sequence

from .domain import (
    Box,
    CameraView,
    EnvironmentSnapshot,
    ExecutionCondition,
    ObjectClass,
    VIEW_ORDER,
    ViewName,
    typed,
    value_type,
)

# Classes that count toward the proximity ratio: the movable road users a
# detector would box. Signals are excluded; their masked regions still count
# as deficits.
TRAFFIC_OBJECT_CLASSES = frozenset(
    {
        ObjectClass.CAR,
        ObjectClass.TRUCK,
        ObjectClass.BUS,
        ObjectClass.BICYCLE,
        ObjectClass.PEDESTRIAN,
        ObjectClass.MOTORCYCLE,
    }
)
_FRONT_INDEX = VIEW_ORDER.index(ViewName.FRONT)


class ConsistencyReason(str, Enum):
    QUANTITY_MISMATCH = "quantity_mismatch"
    SPATIAL_SHIFT_EXCEEDED = "spatial_shift_exceeded"
    DEFICIT_DISAPPEARED = "deficit_disappeared"
    CONSISTENT = "consistent"


_CONSISTENT = ConsistencyReason.CONSISTENT
_DISAPPEARED = ConsistencyReason.DEFICIT_DISAPPEARED
_QUANTITY_MISMATCH = ConsistencyReason.QUANTITY_MISMATCH
_SHIFT_EXCEEDED = ConsistencyReason.SPATIAL_SHIFT_EXCEEDED
_IMMEDIATE = ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD
_NO_IMMEDIATE = ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD


@value_type
class VerifierConfig:
    """Verifier thresholds: frame shift and hazard ratio, the frame history and the views read."""

    shift_threshold: float = 0.10  # fraction of image width
    hazard_ratio_threshold: float = 0.05  # fraction of image area, strict
    history_len: int = 5
    front_view_only: bool = True

    def __post_init__(self) -> None:
        for name in ("shift_threshold", "hazard_ratio_threshold"):
            value = typed(getattr(self, name), float, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} out of (0,1): {value}")
        if typed(self.history_len, int, "history_len") < 2:  # a bool or a float is no count
            raise ValueError(f"history_len must be >= 2, got {self.history_len}")


def union_area(boxes: Iterable[Box]) -> float:
    """Exact union area of axis-aligned normalized boxes via coordinate
    compression; overlap is counted once.

    The distinct edges cut the plane into cells. Each x-slab adds its covered
    cells once, in ascending y, by merging the y-intervals of the boxes that
    span it: the same products, in the same order, as testing every box
    against every cell, so the float sum is the same, at O(n^2) for n boxes.
    """
    boxes = list(boxes)
    if not boxes:
        return 0.0
    if len(boxes) == 1:  # the sweep below would sum 0.0 + area
        return boxes[0].area
    # One pass over the boxes: cheaper than four comprehensions at two boxes,
    # which most front views hold.
    x_edges: set[float] = set()
    y_edges: set[float] = set()
    for b in boxes:
        x_edges.add(b.x0)
        x_edges.add(b.x1)
        y_edges.add(b.y0)
        y_edges.add(b.y1)
    xs = sorted(x_edges)
    ys = sorted(y_edges)
    # A box covers the cells j with j0 <= j < j1; sorted by j0, a row's cells
    # past the highest j1 merged so far are the next ones to add.
    rows = sorted([(bisect_left(ys, b.y0), bisect_left(ys, b.y1), b.x0, b.x1) for b in boxes])
    total = 0.0
    lo = xs[0]
    for hi in xs[1:]:
        w = hi - lo
        end = 0
        for j0, j1, x0, x1 in rows:
            if j1 > end and x0 <= lo and x1 >= hi:
                for j in range(j0 if j0 > end else end, j1):
                    total += w * (ys[j + 1] - ys[j])
                end = j1
        lo = hi
    return total


def _greedy_match_max_shift(prev: CameraView, cur: CameraView) -> float:
    """Greedy nearest-centroid matching of equal-count deficit lists; returns
    the largest matched centroid displacement."""
    if len(prev.deficits) == 1:
        return _dist(prev.deficits[0].centroid, cur.deficits[0].centroid)
    a = [d.centroid for d in prev.deficits]
    b = [d.centroid for d in cur.deficits]
    pairs = sorted((_dist(p, q), i, j) for i, p in enumerate(a) for j, q in enumerate(b))
    used_a: set[int] = set()
    used_b: set[int] = set()
    max_shift = 0.0
    for dist, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        max_shift = max(max_shift, dist)
    return max_shift


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5


def check_transition(
    prev: EnvironmentSnapshot, cur: EnvironmentSnapshot, shift_threshold: float
) -> ConsistencyReason:
    """Compare the deficit regions of two consecutive frames, per view.

    A count dropping to zero is a disappearance; any other count change is a
    quantity mismatch; matched deficits whose centroid moves more than the
    shift threshold fail the spatial check.
    """
    # Views are ordered left, front, right in every snapshot.
    for pv, cv in zip(prev.perception, cur.perception):
        n_prev, n_cur = len(pv.deficits), len(cv.deficits)
        if n_prev > 0 and n_cur == 0:
            return _DISAPPEARED
        if n_prev != n_cur:
            return _QUANTITY_MISMATCH
        if n_prev and _greedy_match_max_shift(pv, cv) > shift_threshold:
            return _SHIFT_EXCEEDED
    return _CONSISTENT


@value_type
class ConsistencyRun:
    """A classified window, the shift threshold it was judged under, and the
    tick of the older frame of its newest inconsistent transition, or None.
    Transitions older than that break stay unchecked: they leave the window
    before it does."""

    shift_threshold: float
    frames: tuple[EnvironmentSnapshot, ...]
    break_tick: Optional[int]


def _extend_run(
    window: tuple[EnvironmentSnapshot, ...],
    shift_threshold: float,
    run: Optional[ConsistencyRun],
) -> ConsistencyRun:
    """The run of a window. Where ``run``, under the same threshold, ends
    with the frames before the newest (by value), only the newest transition
    is checked; otherwise the window is scanned newest first, up to its first
    inconsistent transition. A run of fewer frames fails the comparison."""
    n = len(window)
    if run and run.shift_threshold == shift_threshold and run.frames[1 - n:] == window[:-1]:
        tick = run.break_tick
        if check_transition(window[-2], window[-1], shift_threshold) is not _CONSISTENT:
            tick = window[-2].tick
        elif tick is not None and tick < window[0].tick:  # the break left with its older frame
            tick = None
        return ConsistencyRun(shift_threshold, window, tick)
    for i in range(n - 1, 0, -1):
        if check_transition(window[i - 1], window[i], shift_threshold) is not _CONSISTENT:
            return ConsistencyRun(shift_threshold, window, window[i - 1].tick)
    return ConsistencyRun(shift_threshold, window, None)


def _ratio_boxes(view: CameraView) -> list[Box]:
    boxes = list(view.deficits)
    boxes.extend(o.box for o in view.visible_objects if o.cls in TRAFFIC_OBJECT_CLASSES)
    return boxes


def hazard_proximity_ratio(
    snapshot: EnvironmentSnapshot, front_view_only: bool = True
) -> float:
    """Union area of deficit regions and traffic-object boxes relative to the
    image. With ``front_view_only=False`` the per-view ratios are averaged."""
    if front_view_only:
        return union_area(_ratio_boxes(snapshot.perception[_FRONT_INDEX]))
    ratios = [union_area(_ratio_boxes(v)) for v in snapshot.perception]
    return sum(ratios) / len(ratios)


def classify(
    history: Sequence[EnvironmentSnapshot],
    cfg: VerifierConfig,
    run: Optional[ConsistencyRun] = None,
) -> tuple[Optional[ExecutionCondition], float, ConsistencyRun]:
    """The condition the window satisfies (None: inconsistent, so replan),
    the newest frame's proximity ratio, and the window's consistency run.

    ``history`` is the window ``runner`` builds: non-empty, with strictly
    increasing ticks; it is not checked here. Immediate hazard iff the ratio
    strictly exceeds the threshold. A single frame has no transitions to
    compare, so it is vacuously consistent. Given the run of the previous
    window, a window that extends it by one frame costs one transition check
    instead of a scan.
    """
    ratio = hazard_proximity_ratio(history[-1], cfg.front_view_only)
    run = _extend_run(tuple(history[-cfg.history_len:]), cfg.shift_threshold, run)
    if run.break_tick is not None:
        return None, ratio, run
    return (_IMMEDIATE if ratio > cfg.hazard_ratio_threshold else _NO_IMMEDIATE), ratio, run


def classify_condition(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> Optional[ExecutionCondition]:
    """The condition of ``classify`` for a window of at least two frames."""
    if len(history) < 2:
        raise ValueError(f"need at least 2 frames, got {len(history)}")
    return classify(history, cfg)[0]
