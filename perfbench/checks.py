"""Correctness fingerprints that do not depend on how latencies are held.

An outcome's fingerprint is sha256 over the float64 bytes of its
latencies followed by its exact counters, so a Python list and a
float64 array holding the same values hash alike, and a change of
container or digest format leaves every pin valid.  Sketch quantiles
and ``ScenarioOutcome.digest()`` strings are never pinned.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["PINS_PATH", "fingerprint", "table_sha"]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

_INT_COUNTERS = ("n_requests", "slo_violations", "failed_requests")
_FLOAT_COUNTERS = ("issued_work", "completed_work", "claimed_work", "wasted_work")


def fingerprint(outcome: Any) -> str:
    """sha256 of one outcome's latencies (float64 bytes) and counters."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(outcome.latencies, dtype="<f8").tobytes())
    h.update(struct.pack("<3q", *(int(getattr(outcome, k)) for k in _INT_COUNTERS)))
    h.update(struct.pack("<4d", *(float(getattr(outcome, k)) for k in _FLOAT_COUNTERS)))
    return h.hexdigest()


def table_sha(table: Any) -> str:
    return hashlib.sha256(table.render().encode("utf-8")).hexdigest()
