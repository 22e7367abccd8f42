"""JSON wire formats for matrices and distributions.

Matrices serialize as {"dim": d, "re": [[...]], "im": [[...]]} with row-major
nested arrays; distributions are read from {"p": [...]}. Floats are written
with Python's shortest round-trip decimal representation (up to 17 significant
digits), so serialize -> parse is bit-exact.
"""

from __future__ import annotations

import numpy as np

from .states import ClassicalDistribution


def matrix_to_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return {
        "dim": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}"
        )
    return re + 1j * im


def distribution_from_json(obj: dict) -> ClassicalDistribution:
    try:
        p = np.asarray(obj["p"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distribution JSON: {exc}") from exc
    return ClassicalDistribution(p)
