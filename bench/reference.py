"""Closed forms the benchmark checks qcorr against, written without qcorr.

Everything here works on Bell-diagonal correlation triples (c1, c2, c3)
as numpy arrays whose last axis has length 3, so one call checks a whole
CSV file.
"""

from __future__ import annotations

import numpy as np


def bell_eigenvalues(c: np.ndarray) -> np.ndarray:
    """The four Bell-basis eigenvalues (phi+, phi-, psi+, psi-) of each triple."""
    c1, c2, c3 = np.moveaxis(np.asarray(c, dtype=float), -1, 0)
    return 0.25 * np.stack(
        (1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3),
        axis=-1,
    )


def triple_from_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bell_eigenvalues`."""
    a, b, c, d = np.moveaxis(np.asarray(lam, dtype=float), -1, 0)
    return np.stack((a - b + c - d, -a + b + c - d, a + b - c - d), axis=-1)


def _plogp(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def entropy_function(c: np.ndarray) -> np.ndarray:
    """f(c) = (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c)."""
    c = np.abs(np.asarray(c, dtype=float))
    return 0.5 * (_plogp(1.0 + c) + _plogp(1.0 - c))


def classical(c: np.ndarray) -> np.ndarray:
    """The printed classical-correlations rule: f(min{|c2|, |c3|})."""
    c = np.abs(np.asarray(c, dtype=float))
    return entropy_function(np.minimum(c[..., 1], c[..., 2]))


def laqc(c: np.ndarray) -> np.ndarray:
    """f(max{|c1|, |c2|})."""
    c = np.abs(np.asarray(c, dtype=float))
    return entropy_function(np.maximum(c[..., 0], c[..., 1]))


def measured_classical(c: np.ndarray) -> np.ndarray:
    """Classical correlations of the best local measurement: f(max_i |c_i|)."""
    return entropy_function(np.abs(np.asarray(c, dtype=float)).max(axis=-1))


def discord(c: np.ndarray) -> np.ndarray:
    """I(rho) - f(max_i |c_i|), with I(rho) = 2 + sum_k lambda_k log2 lambda_k."""
    mutual = 2.0 + _plogp(bell_eigenvalues(c)).sum(axis=-1)
    return mutual - measured_classical(c)


def concurrence(c: np.ndarray) -> np.ndarray:
    """Wootters' form for Bell-diagonal states: max(0, 2 lambda_max - 1)."""
    return np.maximum(0.0, 2.0 * bell_eigenvalues(c).max(axis=-1) - 1.0)


def depolarized(c: np.ndarray, gamma) -> np.ndarray:
    """Two-sided depolarizing contracts every correlation by (1 - gamma)^2."""
    g = np.asarray(gamma, dtype=float)[..., None]
    return np.asarray(c, dtype=float) * (1.0 - g) ** 2


def phase_damped(c: np.ndarray, gamma) -> np.ndarray:
    """Two-sided phase damping scales c1, c2 by (1 - gamma) and keeps c3."""
    g = np.asarray(gamma, dtype=float)
    scale = np.stack((1.0 - g, 1.0 - g, np.ones_like(g)), axis=-1)
    return np.asarray(c, dtype=float) * scale


CHANNEL_MAPS = {"depolarizing": depolarized, "phase-damping": phase_damped}


def random_triple(rng: np.random.Generator) -> np.ndarray:
    """A physical triple drawn uniformly from the Bell-diagonal tetrahedron."""
    return triple_from_eigenvalues(rng.dirichlet(np.ones(4)))


def quantifiers(c: np.ndarray) -> np.ndarray:
    """Columns classical, laqc, discord, concurrence as the CLI prints them."""
    return np.stack((classical(c), laqc(c), discord(c), concurrence(c)), axis=-1)
