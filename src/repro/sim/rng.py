"""Deterministic randomness for simulations.

Every stochastic component takes an explicit seed and derives independent
streams through :func:`substream`, so adding a new consumer of randomness
never perturbs existing ones — a property the regression tests rely on.
"""

from __future__ import annotations

import random
from typing import Iterator

# SHA-256 from the interpreter's builtin module, as ``random`` takes
# ``_sha512``: ``hashlib`` would load OpenSSL's libcrypto (~3.6 MB of
# resident memory) for a digest the builtin computes bit for bit.
# (The ignores are for mypy, which sees one branch per target version.)
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:  # Python 3.10 - 3.11
        from _sha256 import sha256 as _sha256  # type: ignore
    except ImportError:  # an interpreter built without either
        from hashlib import sha256 as _sha256  # type: ignore


def stable_hash64(text: str) -> int:
    """The first 8 bytes of ``text``'s SHA-256, big-endian.

    Unlike Python's randomized ``hash`` it is the same in every process,
    so seeds and ring points derived from it are reproducible.
    """
    return int.from_bytes(_sha256(text.encode("utf-8")).digest()[:8], "big")


def substream(seed: int, *labels: object) -> random.Random:
    """Derive an independent :class:`random.Random` from ``seed`` + labels.

    The seed is :func:`stable_hash64` of ``repr((seed,) + labels)``, so
    ``substream(7, "clients", 3)`` is stable across runs and across
    unrelated code changes.
    """
    return random.Random(stable_hash64(repr((seed,) + labels)))


def zipf_weights(n: int, alpha: float = 1.0) -> list[float]:
    """Normalized Zipf popularity weights for ranks ``1..n``.

    SPECweb99-style content popularity follows Zipf's law (Breslau et al.);
    ``alpha=1`` is the classic form used in the paper's reference [7].
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    raw = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfSampler:
    """Samples ranks ``0..n-1`` from a Zipf(alpha) popularity distribution.

    Uses inverse-CDF binary search over precomputed cumulative weights:
    O(log n) per sample, exact, deterministic for a fixed RNG.
    """

    def __init__(self, n: int, alpha: float, rng: random.Random) -> None:
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = zipf_weights(n, alpha)
        self._cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.sample()
