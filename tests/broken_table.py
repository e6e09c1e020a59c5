"""A copy of the bundled scripted table with three motion answers that break
the answer schema, one field each.

``tests/reach.py`` and the tier-1 tests both run ``rco run --mode rco`` on it.
It needs only the standard library, since ``reach.py`` runs without the test
extras.
"""

from __future__ import annotations

import json
from pathlib import Path

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "rco" / "data" / "scripted_responses.json"


def write_broken_table(path: Path) -> None:
    """Write the bundled table to ``path`` with traffic_light_benign's first
    pair given an unknown speed token, traffic_light_hazard's pairs an object,
    not a list, and pedestrian_cross's wait -1."""
    table = json.loads(BUNDLED.read_text(encoding="utf-8"))
    motion = table["short_term_motion"]
    motion["traffic_light_benign"]["pairs"][0]["speed"] = "warp_speed"
    motion["traffic_light_hazard"]["pairs"] = motion["traffic_light_hazard"]["pairs"][0]
    motion["pedestrian_cross"]["wait"] = -1
    path.write_text(json.dumps(table), encoding="utf-8")
