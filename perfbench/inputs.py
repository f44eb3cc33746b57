"""Seeded inputs, built with numpy alone (never with codanorm).

Every value is written in its shortest round-trip form, so the rows the
program parses are exactly the arrays kept here for the reference checks.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

SKYE_PATH = os.path.join("src", "codanorm", "data", "skye_lavas_afm.csv")


def sequential_basis(D):
    """The default sequential-balance contrast basis, ``(D, D-1)``."""
    U = np.zeros((D, D - 1))
    for i in range(1, D):
        U[:i, i - 1] = 1.0 / math.sqrt(i * (i + 1))
        U[i, i - 1] = -i / math.sqrt(i * (i + 1))
    return U


def ilr_reference(rows):
    """Orthonormal coordinates of positive part rows (closure-invariant)."""
    logs = np.log(rows)
    return (logs - logs.mean(axis=1, keepdims=True)) @ sequential_basis(rows.shape[1])


def fit_simplex_reference(rows, kappa=1.0):
    """Coordinate mean and covariance (divisor n - 1) of part rows."""
    coords = ilr_reference(rows * (kappa / rows.sum(axis=1, keepdims=True)))
    return coords.mean(axis=0), np.cov(coords, rowvar=False, ddof=1).reshape(
        coords.shape[1], coords.shape[1]
    )


def fit_rplus_reference(values):
    logs = np.log(values)
    return float(logs.mean()), float(logs.var(ddof=1))


def simplex_law(rng, dim):
    """A seeded coordinate mean and well-conditioned covariance."""
    mu = rng.uniform(-0.5, 0.5, dim)
    a = rng.normal(0.0, 0.4, (dim, dim))
    return mu, a @ a.T / dim + 0.1 * np.eye(dim)


def simplex_rows(rng, n, D):
    mu, sigma = simplex_law(rng, D - 1)
    coords = mu + rng.standard_normal((n, D - 1)) @ np.linalg.cholesky(sigma).T
    raw = np.exp(coords @ sequential_basis(D).T)
    return raw / raw.sum(axis=1, keepdims=True)


def positive_values(rng, n):
    return np.exp(rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5), n))


def extreme_values(rng, n):
    """Valid positive values spanning 1e-300 to 1e300."""
    return np.concatenate([[1e300, 1e-300, 1e200], 10.0 ** rng.uniform(-300.0, 300.0, n - 3)])


def write_csv(path, header, rows):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    text = "\n".join(",".join(map(repr, r)) for r in rows.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + text + "\n")


def read_table(path):
    """Numeric rows of a CSV with ``#`` comments and one header row."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    return np.array([[float(f) for f in ln.split(",")] for ln in lines[1:]])


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def format_vector(v):
    return ",".join(repr(float(x)) for x in np.ravel(v))
