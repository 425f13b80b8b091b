import numpy as np
import pytest

from qdf.errors import InvalidDimensionError
from qdf.weighting import (
    SOFTPLUS_FLOOR,
    WeightingMode,
    WeightingParams,
    frobenius_distance,
    identity_params,
    materialize,
    normalize_scale,
    params_from_matrix,
    read_matrix_csv,
    softplus,
    softplus_inv,
    write_matrix_csv,
)


def test_identity_raw_diagonal_is_inverse_softplus_of_one():
    p = identity_params(1)
    assert p.raw[0, 0] == pytest.approx(np.log(np.e - 1), abs=1e-12)
    assert softplus(p.raw[0, 0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("horizon", [1, 2, 3, 8, 96])
def test_identity_materializes_to_identity(horizon):
    L, sigma = materialize(identity_params(horizon))
    assert np.allclose(L, np.eye(horizon), atol=1e-12)
    assert np.allclose(sigma, np.eye(horizon), atol=1e-12)


def test_identity_rejects_zero_horizon():
    with pytest.raises(InvalidDimensionError):
        identity_params(0)


def test_materialize_known_factor():
    raw = np.array([[softplus_inv(2.0), 0.0], [1.0, softplus_inv(2.0)]])
    L, sigma = materialize(WeightingParams(raw, 2))
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-12)
    assert np.allclose(sigma, [[4.0, 2.0], [2.0, 5.0]], atol=1e-12)


def test_materialize_returns_the_same_read_only_arrays(rng):
    w = WeightingParams(rng.uniform(-1, 1, size=(4, 4)), 4)
    L, sigma = materialize(w)
    again = materialize(w)
    assert again[0] is L and again[1] is sigma
    assert L is w.factor and sigma is w.sigma
    assert np.allclose(w.inverse @ sigma, np.eye(4), atol=1e-10)
    for derived in (L, sigma, w.inverse):
        with pytest.raises(ValueError):
            derived[0, 0] = 5.0


def test_materialize_zero_raw_diagonal_gives_log_two():
    L, _ = materialize(WeightingParams(np.zeros((3, 3)), 3))
    assert np.allclose(np.diagonal(L), np.log(2.0), atol=1e-12)


def test_materialize_ignores_upper_triangle():
    raw = np.zeros((2, 2))
    raw[0, 1] = 123.0
    L, sigma = materialize(WeightingParams(raw, 2))
    assert L[0, 1] == 0.0
    assert sigma[0, 1] == sigma[1, 0]


def test_mode_masks_are_exact(rng):
    raw = rng.uniform(-3, 3, size=(5, 5))
    L_diag, _ = materialize(WeightingParams(raw, 5, WeightingMode.DIAG_ONLY))
    assert np.all(np.tril(L_diag, k=-1) == 0.0)
    L_off, _ = materialize(WeightingParams(raw, 5, WeightingMode.OFFDIAG_ONLY))
    assert np.all(np.diagonal(L_off) == 1.0)


def test_random_params_are_psd(rng):
    # 1000 random parameterizations x 100 random vectors each
    worst = np.inf
    for _ in range(1000):
        T = int(rng.integers(1, 7))
        raw = rng.uniform(-3, 3, size=(T, T))
        _, sigma = materialize(WeightingParams(raw, T))
        v = rng.standard_normal((100, T))
        worst = min(worst, float(np.min(np.einsum("ij,jk,ik->i", v, sigma, v))))
    assert worst >= -1e-10


def test_normalize_scale_examples():
    p = params_from_matrix(4.0 * np.eye(2))
    _, sigma = materialize(normalize_scale(p))
    assert np.allclose(sigma, np.eye(2), atol=1e-10)

    p = identity_params(5)
    _, sigma = materialize(normalize_scale(p))
    assert np.allclose(sigma, np.eye(5), atol=1e-10)

    p = params_from_matrix(np.array([[4.0, 2.0], [2.0, 5.0]]))
    _, sigma = materialize(normalize_scale(p))
    assert np.allclose(sigma, (9.0 / 32.0) * np.array([[4.0, 2.0], [2.0, 5.0]]), atol=1e-10)
    assert np.trace(np.linalg.inv(sigma)) == pytest.approx(2.0, abs=1e-10)


def test_normalize_scale_is_idempotent(rng):
    for _ in range(20):
        T = int(rng.integers(1, 6))
        p = WeightingParams(rng.uniform(-2, 2, size=(T, T)), T)
        once = normalize_scale(p)
        twice = normalize_scale(once)
        assert frobenius_distance(once, twice) <= 1e-10


def test_normalize_scale_keeps_offdiag_mode_untouched(rng):
    p = WeightingParams(rng.uniform(-2, 2, size=(4, 4)), 4, WeightingMode.OFFDIAG_ONLY)
    assert normalize_scale(p) is p


def test_frobenius_distance_examples():
    a = identity_params(2)
    assert frobenius_distance(a, a) == 0.0
    b = params_from_matrix(2.0 * np.eye(2))
    assert frobenius_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    c = params_from_matrix(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert frobenius_distance(c, a) == pytest.approx(np.sqrt(33.0), abs=1e-12)


def test_frobenius_distance_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        frobenius_distance(identity_params(2), identity_params(3))


def test_params_from_matrix_round_trip(rng):
    base = rng.standard_normal((4, 4))
    sigma = base @ base.T + 4 * np.eye(4)
    _, rebuilt = materialize(params_from_matrix(sigma))
    assert np.allclose(rebuilt, sigma, atol=1e-10)


def test_softplus_floor_clamps_tiny_diagonals():
    raw = np.full((2, 2), -50.0)
    L, _ = materialize(WeightingParams(raw, 2))
    assert np.all(np.diagonal(L) == SOFTPLUS_FLOOR)


def test_params_are_immutable():
    p = identity_params(3)
    with pytest.raises(ValueError):
        p.raw[0, 0] = 5.0


def test_matrix_csv_round_trip(tmp_path):
    sigma = np.array([[4.0, 2.0], [2.0, 5.0]]) / 3.0
    path = tmp_path / "sigma.csv"
    write_matrix_csv(path, sigma)
    assert np.array_equal(read_matrix_csv(path), sigma)
