"""Seeded randomness helpers.

All randomized operations take an explicit seed or ``numpy.random.Generator``
(PCG64). Derived streams use ``SeedSequence`` spawn keys so that results are
reproducible across platforms and runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _check_seed(seed) -> int:
    """`seed` as an int if it is a nonnegative integer (`int` or
    `np.integer`); ValidationError otherwise."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def as_generator(seed=None) -> np.random.Generator:
    """Coerce a seed (a nonnegative integer or None), SeedSequence, or
    Generator into a Generator; ValidationError for anything else."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(_check_seed(seed))


def derived_generator(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for a cell of a larger experiment, keyed by integer indices;
    the master seed is a nonnegative integer (ValidationError otherwise)."""
    ss = np.random.SeedSequence(entropy=_check_seed(master_seed),
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
