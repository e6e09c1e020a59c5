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
    "baseline": "a239b306c4e99764722a884e4f0773a4cad74271f7b68443ae50b6d8124f2239",
    "rco": "9665e4868e9151cbeefdfeeaedfb3247aeb805463d4737c78ac679e33b7b4e23",
    "always_stop": "8467796a489a7fe159071862bd142f2c324b1d47c0b9ebd4dc4ce25ed2ef0274",
}
SWEEP_DIGEST = "e8e8e3fe40dcc285080653fb87d7ebe19399e4bce48c9eb76e546134e8640293"
FUZZ_DIGEST = "7b1451fe1b3a3d46b9cc2a86fdf4050c49765d0c1b7aae1e5a576a601b6091a7"


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
