"""Byte-identical outputs: the bundled suite in every mode and the fuzzed
orchestrator records keep the exact bytes they had when the digests below
were recorded.

A change that alters any decision, score or log field fails here. A change
that means to alter them re-records the digests and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import test_acceptance
from rco.cli import main

SUITE_DIGESTS = {
    "baseline": "ca4ff08e916e5504e5562f06374a19a307d47f5d8a28bfd823dcf70f3f478dd5",
    "rco": "c0fe0330f9c09155e885354d301220ed195f6b74ae80ced0393a564860249f09",
    "always_stop": "998d3c463697d9ff07ce8dbdbe9b9fdc0ebb2f5e68b90f038ced2e3a7c8eb833",
}
SWEEP_DIGEST = "e8e8e3fe40dcc285080653fb87d7ebe19399e4bce48c9eb76e546134e8640293"
FUZZ_DIGEST = "194ffd24d27ab0d2422f726bdc7ea8a89f4e8f9cd92a5779301bbb16e0112153"


def digest_dir(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(SUITE_DIGESTS))
def test_bundled_suite_outputs_are_byte_identical(mode, tmp_path):
    assert main(["run", "--mode", mode, "--out", str(tmp_path)]) == 0
    assert digest_dir(tmp_path) == SUITE_DIGESTS[mode]


def test_bundled_suite_sweep_is_byte_identical(tmp_path):
    # Route lengths feed RC and AS, so the sweep table pins them too.
    assert main(["sweep", "--limits", "1,3,5,8,12", "--out", str(tmp_path)]) == 0
    assert digest_dir(tmp_path) == SWEEP_DIGEST


def test_fuzzed_step_records_are_byte_identical(monkeypatch):
    # Acceptance 4's three fuzz loops, unchanged; every step's record and
    # resulting state are folded into one digest.
    h = hashlib.sha256()
    real_step = test_acceptance.step

    def recording_step(*args):
        result = real_step(*args)
        h.update(json.dumps(result.record, sort_keys=True, separators=(",", ":")).encode())
        h.update(repr(result.state).encode() + b"\n")
        return result

    monkeypatch.setattr(test_acceptance, "step", recording_step)
    test_acceptance.test_acceptance_4_orchestrator_soundness_10k_ticks()
    assert h.hexdigest() == FUZZ_DIGEST
