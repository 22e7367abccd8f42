import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mixent import (
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    gibbs_state,
    random_hermitian,
)
from mixent.mixing import gap_series


@pytest.fixture
def qubit_h() -> HermitianOperator:
    return HermitianOperator(np.diag([0.0, 1.0]))


@pytest.fixture
def exchange_u() -> UnitaryOperator:
    return UnitaryOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def seeded_density(seed: int, d: int, beta: float = 1.0) -> DensityOperator:
    """Full-rank random state: the Gibbs state of a seeded random Hamiltonian."""
    return gibbs_state(random_hermitian(seed, d), beta)


def verify_manifest(out_dir: Path) -> bool:
    """Re-hash every output named in a run manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    for name, digest in manifest["outputs"].items():
        path = out_dir / name
        if not path.exists():
            return False
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return False
    return True


def series_remainder_ratios(sig_p, rho_p, n_gaps, from_n=64) -> list:
    """|gap - a1/N - a2/N^2| / (|a3|/N^3), N = n + 1, for each (n, gap), n >= from_n.

    The two-term series misses the gap by a3/N^3 + O(N^-4), so each ratio
    tends to 1; verify criterion 5 bounds them by its series_remainder.
    """
    a1, a2, a3 = gap_series(ClassicalDistribution(sig_p), ClassicalDistribution(rho_p))
    return [
        abs(gap - a1 / (n + 1) - a2 / (n + 1) ** 2) * (n + 1) ** 3 / abs(a3)
        for n, gap in n_gaps if n >= from_n
    ]
