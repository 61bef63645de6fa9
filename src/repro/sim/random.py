"""Deterministic, named random-number streams.

Experiments in this library compare scheduling policies against each other
*under the same fault schedule*.  If the workload and the fault injector
shared one RNG, changing the workload would perturb the faults and the
comparison would be meaningless.  :class:`RandomStreams` therefore derives
an independent, stably-seeded stream per name from a single root seed:

    streams = RandomStreams(seed=42)
    fault_rng = streams.get("faults/disk3")
    workload_rng = streams.get("workload")

The same ``(seed, name)`` pair always yields the same sequence, regardless
of creation order or of which other streams exist.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed for ``name`` under ``root_seed``.

    Uses SHA-256 rather than ``hash()`` so results do not depend on
    ``PYTHONHASHSEED`` or the interpreter version.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A family of independent :class:`random.Random` streams.

    Streams are cached: ``get(name)`` returns the *same* generator object
    for repeated calls, so a component can keep drawing from its stream
    across the whole simulation.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RandomStreams":
        """A child family whose root is derived from ``name``.

        Useful when one subsystem (e.g. a fault injector group) wants its
        own namespace of streams without risk of collision.
        """
        return RandomStreams(derive_seed(self.seed, f"fork:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
