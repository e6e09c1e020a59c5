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

from dataclasses import dataclass
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
_IMMEDIATE = ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD
_NO_IMMEDIATE = ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD


@dataclass(frozen=True)
class VerifierConfig:
    shift_threshold: float = 0.10  # fraction of image width
    hazard_ratio_threshold: float = 0.05  # fraction of image area, strict
    history_len: int = 5
    front_view_only: bool = True

    def __post_init__(self) -> None:
        for name in ("shift_threshold", "hazard_ratio_threshold"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} out of (0,1): {value}")
        if type(self.history_len) is not int:  # a bool or a float is not a count
            raise TypeError(f"history_len must be an int, got {self.history_len!r}")
        if self.history_len < 2:
            raise ValueError(f"history_len must be >= 2, got {self.history_len}")


def union_area(boxes: Iterable[Box]) -> float:
    """Exact union area of axis-aligned normalized boxes via coordinate
    compression; overlap is counted once."""
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


def _validate_history(history: Sequence[EnvironmentSnapshot]) -> None:
    if len(history) < 2:
        raise ValueError(f"need at least 2 frames, got {len(history)}")
    prev = history[0].tick
    for s in history[1:]:
        if s.tick <= prev:
            ticks = [f.tick for f in history]
            raise ValueError(f"ticks must be strictly increasing, got {ticks}")
        prev = s.tick


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
            return ConsistencyReason.DEFICIT_DISAPPEARED
        if n_prev != n_cur:
            return ConsistencyReason.QUANTITY_MISMATCH
        if n_prev and _greedy_match_max_shift(pv, cv) > shift_threshold:
            return ConsistencyReason.SPATIAL_SHIFT_EXCEEDED
    return _CONSISTENT


def check_deficit_consistency(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> ConsistencyReason:
    """The first inconsistent transition of the window, oldest first, or
    ``CONSISTENT``."""
    _validate_history(history)
    window = history[-cfg.history_len:]
    for prev, cur in zip(window, window[1:]):
        reason = check_transition(prev, cur, cfg.shift_threshold)
        if reason is not _CONSISTENT:
            return reason
    return _CONSISTENT


@dataclass(frozen=True)
class ConsistencyRun:
    """The newest frames of a classified window, back to its newest
    inconsistent transition or to its oldest frame, and the shift threshold
    they were judged under.

    Every transition between ``frames`` is consistent, except the first when
    ``broken``: then ``frames[0] -> frames[1]`` is the window's newest
    inconsistent transition. An unbroken run is the whole window.
    """

    shift_threshold: float
    frames: tuple[EnvironmentSnapshot, ...]
    broken: bool


def _extend_run(
    window: tuple[EnvironmentSnapshot, ...],
    shift_threshold: float,
    run: Optional[ConsistencyRun],
) -> ConsistencyRun:
    """The run of a window of at least two frames. Where the frames before
    the newest equal the tail of ``run`` (by value, under the same
    threshold), only the newest transition is checked; otherwise the window
    is scanned newest first, up to its first inconsistent transition."""
    n = len(window)
    if run is not None and run.shift_threshold == shift_threshold:
        frames = run.frames
        k = min(len(frames), n - 1)
        # An unbroken run must cover every older transition of the window.
        if (run.broken or k == n - 1) and window[n - 1 - k:n - 1] == frames[len(frames) - k:]:
            if check_transition(window[-2], window[-1], shift_threshold) is not _CONSISTENT:
                return ConsistencyRun(shift_threshold, window[-2:], True)
            # A break stays in the window unless its older frame slid out.
            return ConsistencyRun(
                shift_threshold, window[n - 1 - k:], run.broken and k == len(frames)
            )
    for i in range(n - 1, 0, -1):
        if check_transition(window[i - 1], window[i], shift_threshold) is not _CONSISTENT:
            return ConsistencyRun(shift_threshold, window[i - 1:], True)
    return ConsistencyRun(shift_threshold, window, False)


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


def _condition(
    consistent: bool, ratio: float, cfg: VerifierConfig
) -> Optional[ExecutionCondition]:
    if not consistent:
        return None
    return _IMMEDIATE if ratio > cfg.hazard_ratio_threshold else _NO_IMMEDIATE


def classify(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> tuple[Optional[ExecutionCondition], float]:
    """The condition the window satisfies (None: inconsistent, so replan) and
    the newest frame's proximity ratio.

    Immediate hazard iff the ratio strictly exceeds the threshold. A single
    frame has no transitions to compare, so it is vacuously consistent.
    """
    ratio = hazard_proximity_ratio(history[-1], cfg.front_view_only)
    consistent = len(history) < 2 or check_deficit_consistency(history, cfg) is _CONSISTENT
    return _condition(consistent, ratio, cfg), ratio


def classify_carried(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig, run: Optional[ConsistencyRun]
) -> tuple[Optional[ExecutionCondition], float, ConsistencyRun]:
    """``classify``, plus the window's consistency run. Given the run of the
    previous window, a window that extends it by one frame costs one
    transition check instead of a scan."""
    ratio = hazard_proximity_ratio(history[-1], cfg.front_view_only)
    if len(history) < 2:
        run = ConsistencyRun(cfg.shift_threshold, tuple(history), False)
    else:
        _validate_history(history)
        run = _extend_run(tuple(history[-cfg.history_len:]), cfg.shift_threshold, run)
    return _condition(not run.broken, ratio, cfg), ratio, run


def classify_condition(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> Optional[ExecutionCondition]:
    """The condition of ``classify`` for a window of at least two frames."""
    _validate_history(history)
    return classify(history, cfg)[0]
