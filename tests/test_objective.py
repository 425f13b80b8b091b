import numpy as np
import pytest

from conftest import central_diff, rel_err
from qdf.errors import EmptyInputError, InvalidDimensionError, NumericError
from qdf.objective import (
    grad_wrt_residual,
    grad_wrt_weighting,
    mse_loss,
    quadratic_loss,
)
from qdf.weighting import (
    WeightingMode,
    WeightingParams,
    identity_params,
    params_from_matrix,
    softplus_inv,
)


def known_params():
    raw = np.array([[softplus_inv(2.0), 0.0], [1.0, softplus_inv(2.0)]])
    return WeightingParams(raw)  # L = [[2,0],[1,2]], Sigma = [[4,2],[2,5]]


def test_quadratic_loss_identity_is_squared_norm():
    batch = np.array([[1.0, 2.0]])
    assert quadratic_loss(batch, identity_params(2)) == pytest.approx(5.0, abs=1e-12)


def test_quadratic_loss_known_factor():
    batch = np.array([[2.0, 3.0]])
    assert quadratic_loss(batch, known_params()) == pytest.approx(2.0, abs=1e-12)


def test_quadratic_loss_diagonal_weighting():
    batch = np.array([[2.0, 2.0]])
    w = params_from_matrix(np.diag([1.0, 4.0]))
    assert quadratic_loss(batch, w) == pytest.approx(5.0, abs=1e-10)


def test_mse_loss_examples():
    assert mse_loss(np.array([[1.0, 2.0, 3.0]])) == 14.0
    assert mse_loss(np.zeros((1, 4))) == 0.0
    assert mse_loss(np.array([[1.0, 0.0], [0.0, 1.0]])) == 1.0


def test_empty_batch_raises():
    empty = np.zeros((0, 3))
    with pytest.raises(EmptyInputError):
        mse_loss(empty)
    with pytest.raises(EmptyInputError):
        quadratic_loss(empty, identity_params(3))


def test_horizon_mismatch_raises():
    with pytest.raises(InvalidDimensionError):
        quadratic_loss(np.ones((2, 3)), identity_params(2))


# The four functions that take residuals, each called as f(residuals, w).
RESIDUAL_FUNCTIONS = {
    "quadratic_loss": quadratic_loss,
    "mse_loss": lambda r, w: mse_loss(r),
    "grad_wrt_residual": grad_wrt_residual,
    "grad_wrt_weighting": grad_wrt_weighting,
}


def test_nonfinite_residuals_rejected():
    for f in RESIDUAL_FUNCTIONS.values():
        with pytest.raises(NumericError):
            f(np.array([[1.0, np.nan]]), identity_params(2))


@pytest.mark.parametrize("name", sorted(RESIDUAL_FUNCTIONS))
@pytest.mark.parametrize(
    "residuals,error",
    [
        (np.array([[1.0, np.nan, 0.0]]), NumericError),
        (np.array([[1.0, 0.0, np.inf]]), NumericError),
        (np.array([[1.0, 0.0, -np.inf]]), NumericError),
        (np.ones((2, 2, 3)), InvalidDimensionError),
        (np.full((2, 2, 3), np.nan), InvalidDimensionError),  # shape before values
        (np.zeros((0, 3)), EmptyInputError),
    ],
    ids=["nan", "inf", "-inf", "3-D", "3-D-nan", "0-rows"],
)
def test_residual_validation_errors(name, residuals, error):
    with pytest.raises(error):
        RESIDUAL_FUNCTIONS[name](residuals, identity_params(3))


@pytest.mark.parametrize("name", ["quadratic_loss", "grad_wrt_residual", "grad_wrt_weighting"])
@pytest.mark.parametrize(
    "residuals,error",
    [
        (np.ones((2, 4)), InvalidDimensionError),
        (np.array([1.0, 2.0]), InvalidDimensionError),  # a 1-D row of the wrong width
        (np.full((2, 4), np.nan), NumericError),  # values before the horizon
        (np.zeros((0, 4)), EmptyInputError),  # emptiness before the horizon
    ],
    ids=["2-D", "1-D", "nan", "0-rows"],
)
def test_horizon_mismatch_errors(name, residuals, error):
    with pytest.raises(error):
        RESIDUAL_FUNCTIONS[name](residuals, identity_params(3))


@pytest.mark.parametrize("name", sorted(RESIDUAL_FUNCTIONS))
def test_one_dimensional_residuals_are_one_row(name):
    f = RESIDUAL_FUNCTIONS[name]
    w = WeightingParams(np.random.default_rng(3).uniform(-1, 1, (3, 3)))
    row = np.array([0.5, -1.0, 2.0])
    np.testing.assert_array_equal(f(row, w), f(row[None, :], w))


def test_residuals_stay_writeable():
    r = np.array([[1.0, 2.0]])
    for f in RESIDUAL_FUNCTIONS.values():
        f(r, identity_params(2))
        assert r.flags.writeable


def test_identity_equivalence_with_mse(rng):
    for _ in range(50):
        T = int(rng.integers(1, 9))
        B = int(rng.integers(1, 6))
        batch = rng.standard_normal((B, T)) * 3
        q = quadratic_loss(batch, identity_params(T))
        m = mse_loss(batch)
        assert q == pytest.approx(m, rel=1e-12)


def test_positivity_and_zero_iff_zero_residual(rng):
    for _ in range(30):
        T = int(rng.integers(1, 6))
        w = WeightingParams(rng.uniform(-2, 2, size=(T, T)))
        batch = rng.standard_normal((3, T))
        assert quadratic_loss(batch, w) > 0
        assert quadratic_loss(np.zeros((3, T)), w) == 0.0


def test_scale_covariance(rng):
    for _ in range(10):
        T = int(rng.integers(1, 6))
        base = rng.standard_normal((T, T))
        sigma = base @ base.T + 2 * np.eye(T)
        batch = rng.standard_normal((4, T))
        c = float(rng.uniform(0.2, 5.0))
        l1 = quadratic_loss(batch, params_from_matrix(sigma))
        l2 = quadratic_loss(batch, params_from_matrix(c * sigma))
        assert l2 == pytest.approx(l1 / c, rel=1e-10)


def test_grad_wrt_residual_identity():
    batch = np.array([[1.0, 2.0]])
    g = grad_wrt_residual(batch, identity_params(2))
    assert np.allclose(g, [[2.0, 4.0]], atol=1e-12)


def test_grad_wrt_residual_known_factor():
    batch = np.array([[2.0, 3.0]])
    g = grad_wrt_residual(batch, known_params())
    assert np.allclose(g, [[0.5, 1.0]], atol=1e-12)


def test_grad_wrt_residual_zero_at_zero():
    g = grad_wrt_residual(np.zeros((2, 3)), identity_params(3))
    assert np.all(g == 0.0)


def test_grad_wrt_residual_matches_finite_differences(rng):
    for _ in range(20):
        T = int(rng.integers(1, 7))
        B = int(rng.integers(1, 5))
        w = WeightingParams(rng.uniform(-1.5, 1.5, size=(T, T)))
        r0 = rng.standard_normal((B, T))
        fd = central_diff(lambda r: quadratic_loss(r, w), r0)
        assert rel_err(grad_wrt_residual(r0, w), fd) <= 1e-5


def test_grad_wrt_weighting_zero_residuals():
    w = WeightingParams(np.random.default_rng(0).uniform(-1, 1, (3, 3)))
    g = grad_wrt_weighting(np.zeros((2, 3)), w)
    assert np.all(g == 0.0)


def test_grad_wrt_weighting_matches_finite_differences(rng):
    for _ in range(20):
        T = int(rng.integers(1, 7))
        B = int(rng.integers(1, 5))
        raw0 = rng.uniform(-1.5, 1.5, size=(T, T))
        batch = rng.standard_normal((B, T))

        def loss_of(raw):
            return quadratic_loss(batch, WeightingParams(raw))

        fd = central_diff(loss_of, raw0)
        analytic = grad_wrt_weighting(batch, WeightingParams(raw0))
        assert rel_err(np.tril(analytic), np.tril(fd)) <= 1e-5
        assert np.all(np.triu(analytic, k=1) == 0.0)


def test_grad_wrt_weighting_spec_example_t2():
    batch = np.array([[1.0, 1.0]])
    p = identity_params(2)
    fd = central_diff(lambda raw: quadratic_loss(batch, WeightingParams(raw)), p.raw)
    analytic = grad_wrt_weighting(batch, p)
    assert np.max(np.abs(np.tril(analytic) - np.tril(fd))) <= 1e-6


@pytest.mark.parametrize(
    "mode,check",
    [
        (WeightingMode.DIAG_ONLY, lambda g: np.all(np.tril(g, k=-1) == 0.0)),
        (WeightingMode.OFFDIAG_ONLY, lambda g: np.all(np.diagonal(g) == 0.0)),
    ],
)
def test_grad_wrt_weighting_mode_masks(rng, mode, check):
    w = WeightingParams(rng.uniform(-1, 1, (4, 4)), mode)
    g = grad_wrt_weighting(rng.standard_normal((3, 4)), w)
    assert check(g)


def test_masked_gradients_match_finite_differences(rng):
    # FD through the masked materialization must agree with the masked grad
    for mode in (WeightingMode.DIAG_ONLY, WeightingMode.OFFDIAG_ONLY):
        T = 4
        raw0 = rng.uniform(-1, 1, (T, T))
        batch = rng.standard_normal((5, T))

        def loss_of(raw):
            return quadratic_loss(batch, WeightingParams(raw, mode))

        fd = central_diff(loss_of, raw0)
        analytic = grad_wrt_weighting(batch, WeightingParams(raw0, mode))
        assert rel_err(np.tril(analytic), np.tril(fd)) <= 1e-5
