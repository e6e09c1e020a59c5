"""Rule-based action condition verifier.

Two checks gate execution of a planned pair: deficit consistency over the
recent frame window (counts stable, centroids steady), and the hazard
proximity ratio — the union area of front-view deficit regions and traffic
object boxes as a fraction of the image. Inconsistency forces replanning;
a ratio strictly above the threshold marks an immediate hazard.
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


class ConsistencyReason(str, Enum):
    QUANTITY_MISMATCH = "quantity_mismatch"
    SPATIAL_SHIFT_EXCEEDED = "spatial_shift_exceeded"
    DEFICIT_DISAPPEARED = "deficit_disappeared"
    CONSISTENT = "consistent"


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
    ticks = [s.tick for s in history]
    if any(b <= a for a, b in zip(ticks, ticks[1:])):
        raise ValueError(f"ticks must be strictly increasing, got {ticks}")


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


def check_deficit_consistency(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> ConsistencyReason:
    """Compare deficit regions across consecutive frames, per view.

    A count dropping to zero is a disappearance; any other count change is a
    quantity mismatch; matched deficits whose centroid moves more than the
    shift threshold fail the spatial check.
    """
    _validate_history(history)
    window = history[-cfg.history_len:]
    for prev, cur in zip(window, window[1:]):
        # Views are ordered left, front, right in every snapshot.
        for pv, cv in zip(prev.perception, cur.perception):
            n_prev, n_cur = len(pv.deficits), len(cv.deficits)
            if n_prev > 0 and n_cur == 0:
                return ConsistencyReason.DEFICIT_DISAPPEARED
            if n_prev != n_cur:
                return ConsistencyReason.QUANTITY_MISMATCH
            if n_prev and _greedy_match_max_shift(pv, cv) > cfg.shift_threshold:
                return ConsistencyReason.SPATIAL_SHIFT_EXCEEDED
    return ConsistencyReason.CONSISTENT


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
        return union_area(_ratio_boxes(snapshot.view(ViewName.FRONT)))
    ratios = [union_area(_ratio_boxes(v)) for v in snapshot.perception]
    return sum(ratios) / len(ratios)


def classify(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> tuple[Optional[ExecutionCondition], float]:
    """The condition the window satisfies (None: inconsistent, so replan) and
    the newest frame's proximity ratio.

    Immediate hazard iff the ratio strictly exceeds the threshold. A single
    frame has no transitions to compare, so it is vacuously consistent.
    """
    ratio = hazard_proximity_ratio(history[-1], cfg.front_view_only)
    if (
        len(history) >= 2
        and check_deficit_consistency(history, cfg) is not ConsistencyReason.CONSISTENT
    ):
        return None, ratio
    if ratio > cfg.hazard_ratio_threshold:
        return ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD, ratio
    return ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD, ratio


def classify_condition(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> Optional[ExecutionCondition]:
    """The condition of ``classify`` for a window of at least two frames."""
    _validate_history(history)
    return classify(history, cfg)[0]
