"""Set-up probe, run in a fresh interpreter per measurement.

Usage: ``python3 bench/setup_probe.py <src-dir> <backend> <table-or-empty> <scenario>...``

Imports ``rco``, loads every scenario, builds the backend as ``rco run``
does and builds the first episode's world, then prints ``READY``. The parent
times from spawning this process to reading that line.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> None:
    src, backend_kind, table, *scenario_paths = argv
    sys.path.insert(0, src)
    from rco import cli, simenv

    scenarios = [simenv.Scenario.load(p) for p in scenario_paths]
    cli.build_backend(backend_kind, table or None)
    simenv.world_from_scenario(scenarios[0])
    print("READY", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
