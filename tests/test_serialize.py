import json

import numpy as np
import pytest

from mixent import (
    ClassicalDistribution,
    HermitianOperator,
    InvalidStateError,
    UnitaryOperator,
    random_haar_unitary,
    random_hermitian,
)
from mixent.serialize import distribution_from_json, matrix_from_json, matrix_to_json


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    text = json.dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(text))
    assert np.array_equal(back, m)


def test_matrix_json_schema_keys():
    obj = matrix_to_json(np.eye(2))
    assert set(obj) == {"dim", "re", "im"}
    assert obj["dim"] == 2
    assert obj["re"] == [[1.0, 0.0], [0.0, 1.0]]
    assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


def _json_round_trip(m):
    return matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))


def test_operators_round_trip_and_validate_on_parse():
    h = random_hermitian(3, 4)
    assert np.array_equal(HermitianOperator(_json_round_trip(h.entries)).entries, h.entries)
    u = random_haar_unitary(3, 4)
    assert np.array_equal(UnitaryOperator(_json_round_trip(u.entries)).entries, u.entries)
    skew = h.entries.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(InvalidStateError):
        HermitianOperator(_json_round_trip(skew))
    with pytest.raises(InvalidStateError):
        UnitaryOperator(_json_round_trip(2 * u.entries))


def test_distribution_round_trip():
    dist = ClassicalDistribution([0.7, 0.2, 0.1])
    text = json.dumps({"p": dist.p.tolist()})
    back = distribution_from_json(json.loads(text))
    assert np.array_equal(back.p, dist.p)


def test_malformed_matrix_json_rejected():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1]]})
    with pytest.raises(ValueError):
        distribution_from_json({"q": [1.0]})


def test_non_list_distribution_json_rejected():
    with pytest.raises(ValueError, match="malformed distribution JSON"):
        distribution_from_json({"p": {"a": 1}})
