"""Seeded randomness helpers.

All randomized operations take an explicit seed or ``numpy.random.Generator``
(PCG64). Derived streams use ``SeedSequence`` spawn keys so that results are
reproducible across platforms and runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _check_seed(seed):
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def as_generator(seed=None) -> np.random.Generator:
    """Coerce a seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_check_seed(seed))


def derived_generator(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for a cell of a larger experiment, keyed by integer indices."""
    ss = np.random.SeedSequence(entropy=int(_check_seed(master_seed)),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n matrix with independent standard complex Gaussian entries."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with independent complex Gaussian entries."""
    a = complex_gaussian(n, rng)
    return (a + a.conj().T) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    q, r = np.linalg.qr(complex_gaussian(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))
