"""The committed ``LEDGER.json`` against a fresh run of ``tools/fingerprint.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STAMP = ("import json, fingerprint; "
         "print(json.dumps(fingerprint.environment()))")


def test_the_fingerprints_match_the_ledger():
    """Run at the ledger's BLAS thread count; on another numpy or BLAS build the
    bytes may differ for reasons that are not the code's, so only the same build
    compares, and the stamp is read before the fingerprints are run."""
    ledger = json.loads((ROOT / "LEDGER.json").read_text())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]),
           "OPENBLAS_NUM_THREADS": str(ledger["environment"]["blas_threads"])}

    def run(*args):
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        return json.loads(done.stdout)

    stamp = run("-c", STAMP)
    if stamp != ledger["environment"]:
        pytest.skip(f"the ledger was written on {ledger['environment']}, this is {stamp}")
    now = run(str(ROOT / "tools" / "fingerprint.py"))
    assert now["environment"] == stamp
    old, new = ledger["fingerprint"], now["fingerprint"]
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    assert not moved, (f"{len(moved)} of {len(old)} keys moved, first {moved[:5]}; a change "
                       "that moves results reruns `python3 tools/fingerprint.py > LEDGER.json` "
                       "and names the moves in CHANGES.md")
