"""Seeded random streams for workload generation.

The paper (Section V.C) drives each server with a negative exponential
distribution of request inter-arrival times::

    T = -ln(X) * lambda          (paper eq. 4)

where ``lambda`` is the *mean* inter-arrival time and ``X`` is uniform on
(0, 1].  :meth:`RandomStream.exponential` implements exactly that form.

Each logical stream (one per client, per node, per experiment) owns an
independent ``numpy`` Generator seeded from a root seed plus a stream key,
so adding a stream never perturbs the draws of existing streams.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a stable 64-bit child seed from a root seed and string keys."""
    digest = hashlib.sha256(
        ("/".join([str(root_seed)] + [str(k) for k in keys])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """An independent, reproducible stream of random variates.

    Parameters
    ----------
    seed:
        Root seed.
    keys:
        Optional stream-identity keys (e.g. ``("nodeA", "MC", 3)``) mixed
        into the seed so streams are independent by construction.
    """

    def __init__(self, seed: int, *keys: object) -> None:
        self.seed = derive_seed(seed, *keys) if keys else int(seed)
        self._rng = np.random.default_rng(self.seed)

    def spawn(self, *keys: object) -> "RandomStream":
        """Create an independent child stream keyed off this stream."""
        return RandomStream(self.seed, *keys)

    # -- variates ----------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform variate on [low, high)."""
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """Negative-exponential variate with the given mean (paper eq. 4).

        Implemented literally as ``-ln(X) * mean`` with X uniform on (0, 1]
        to match the paper's formula; numerically identical in distribution
        to ``numpy``'s exponential.  Returns a Python ``float`` with the
        bits of numpy's result: arrivals, think times and lifetimes become
        delays, and a ``numpy.float64`` there would make the simulated
        clock, and every sum taken with it, numpy arithmetic.
        """
        if mean < 0:
            raise ValueError(f"mean must be >= 0, got {mean}")
        if mean == 0:
            return 0.0
        x = 1.0 - float(self._rng.random())  # uniform on (0, 1]
        return float(-np.log(x) * mean)

    def integers(self, low: int, high: int) -> int:
        """Uniform integer on [low, high)."""
        return int(self._rng.integers(low, high))

    def choice(self, seq: Sequence) -> object:
        """Uniformly choose one element of ``seq``."""
        return seq[int(self._rng.integers(0, len(seq)))]


__all__ = ["RandomStream", "derive_seed"]
