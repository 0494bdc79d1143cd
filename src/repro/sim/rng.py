"""Deterministic named random streams.

Every stochastic component of a simulation draws from its own named
stream derived from one root seed.  Adding a new component therefore
never perturbs the draws of existing ones, and any experiment is exactly
reproducible from ``(root_seed, stream_name)``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed for stream ``name`` under ``root_seed``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """Factory of independent, reproducible :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use, then cached)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = self.once(name)
        return stream

    def once(self, name: str) -> random.Random:
        """A fresh stream seeded like ``stream(name)`` but not cached.

        For a caller that draws once (a host's key pair): the stream is
        freed with its last reference instead of living as long as the
        world.  A second ``once(name)`` starts the same draws again.
        """
        return random.Random(derive_seed(self.root_seed, name))

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's."""
        return RandomStreams(derive_seed(self.root_seed, f"spawn:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams
