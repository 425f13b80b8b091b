import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import solve_triangular

import qdf
from conftest import complex_factor, complex_step
from qdf import weighting
from qdf.errors import ConditioningError, InvalidConfigError, InvalidDimensionError
from qdf.weighting import (
    SOFTPLUS_FLOOR,
    WeightingMode,
    WeightingParams,
    _masks,
    factor_from_raw,
    frobenius_distance,
    identity_params,
    lapack,
    normalized_raw,
    params_from_matrix,
    raw_grad,
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
    w = identity_params(horizon)
    L, sigma = w.factor, w.sigma
    assert np.allclose(L, np.eye(horizon), atol=1e-12)
    assert np.allclose(sigma, np.eye(horizon), atol=1e-12)


def test_identity_rejects_zero_horizon():
    with pytest.raises(InvalidDimensionError):
        identity_params(0)


@pytest.mark.parametrize("horizon", [2.5, np.float64(3.0), True],
                         ids=["float", "numpy-float", "bool"])
def test_identity_rejects_a_non_integer_horizon(horizon):
    # each raised TypeError from np.zeros
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        identity_params(horizon)


@pytest.mark.parametrize("raw", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0))],
                         ids=["1d", "2x3", "0x0"])
def test_params_reject_a_raw_block_that_is_not_square_and_non_empty(raw):
    with pytest.raises(InvalidDimensionError, match="non-empty square"):
        WeightingParams(raw)


@pytest.mark.parametrize("mode", ["diag", 4], ids=["string", "int"])
def test_params_reject_a_mode_that_is_not_a_weighting_mode(mode):
    # WeightingParams(raw, 2, "diag") recorded "diag" but built the FULL factor
    with pytest.raises(InvalidConfigError, match="WeightingMode"):
        WeightingParams(np.zeros((2, 2)), mode)


def test_params_reject_a_positional_horizon():
    # the horizon is read off raw; a stale WeightingParams(raw, T) is refused
    with pytest.raises(InvalidConfigError, match="WeightingMode"):
        WeightingParams(np.zeros((3, 3)), 3)
    assert WeightingParams(np.zeros((3, 3)), WeightingMode.DIAG_ONLY).horizon == 3


def test_materialize_known_factor():
    raw = np.array([[softplus_inv(2.0), 0.0], [1.0, softplus_inv(2.0)]])
    w = WeightingParams(raw)
    L, sigma = w.factor, w.sigma
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-12)
    assert np.allclose(sigma, [[4.0, 2.0], [2.0, 5.0]], atol=1e-12)


def test_materialize_returns_the_same_read_only_arrays(rng):
    w = WeightingParams(rng.uniform(-1, 1, size=(4, 4)))
    L, sigma, inverse = w.factor, w.sigma, w.inverse
    assert w.factor is L and w.sigma is sigma and w.inverse is inverse
    assert np.allclose(inverse @ sigma, np.eye(4), atol=1e-10)
    for derived in (L, sigma, inverse):
        with pytest.raises(ValueError):
            derived[0, 0] = 5.0


def test_inverse_of_singular_factor_raises_conditioning_error():
    # the softplus floor keeps a real factor invertible, so plant a singular one
    w = identity_params(3)
    w.__dict__["factor"] = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(ConditioningError, match="singular"):
        w.inverse


def test_materialize_zero_raw_diagonal_gives_log_two():
    L = WeightingParams(np.zeros((3, 3))).factor
    assert np.allclose(np.diagonal(L), np.log(2.0), atol=1e-12)


def test_materialize_ignores_upper_triangle():
    raw = np.zeros((2, 2))
    raw[0, 1] = 123.0
    w = WeightingParams(raw)
    L, sigma = w.factor, w.sigma
    assert L[0, 1] == 0.0
    assert sigma[0, 1] == sigma[1, 0]


def test_mode_masks_are_exact(rng):
    raw = rng.uniform(-3, 3, size=(5, 5))
    L_diag = WeightingParams(raw, WeightingMode.DIAG_ONLY).factor
    assert np.all(np.tril(L_diag, k=-1) == 0.0)
    L_off = WeightingParams(raw, WeightingMode.OFFDIAG_ONLY).factor
    assert np.all(np.diagonal(L_off) == 1.0)


def test_random_params_are_psd(rng):
    # 1000 random parameterizations x 100 random vectors each
    worst = np.inf
    for _ in range(1000):
        T = int(rng.integers(1, 7))
        raw = rng.uniform(-3, 3, size=(T, T))
        sigma = WeightingParams(raw).sigma
        v = rng.standard_normal((100, T))
        worst = min(worst, float(np.min(np.einsum("ij,jk,ik->i", v, sigma, v))))
    assert worst >= -1e-10


def test_normalize_scale_examples():
    p = params_from_matrix(4.0 * np.eye(2))
    sigma = p.with_raw(*normalized_raw(p.raw, p.mode)).sigma
    assert np.allclose(sigma, np.eye(2), atol=1e-10)

    p = identity_params(5)
    sigma = p.with_raw(*normalized_raw(p.raw, p.mode)).sigma
    assert np.allclose(sigma, np.eye(5), atol=1e-10)

    p = params_from_matrix(np.array([[4.0, 2.0], [2.0, 5.0]]))
    sigma = p.with_raw(*normalized_raw(p.raw, p.mode)).sigma
    assert np.allclose(sigma, (9.0 / 32.0) * np.array([[4.0, 2.0], [2.0, 5.0]]), atol=1e-10)
    assert np.trace(np.linalg.inv(sigma)) == pytest.approx(2.0, abs=1e-10)


def test_normalize_scale_is_idempotent(rng):
    for _ in range(20):
        T = int(rng.integers(1, 6))
        p = WeightingParams(rng.uniform(-2, 2, size=(T, T)))
        once = p.with_raw(*normalized_raw(p.raw, p.mode))
        twice = once.with_raw(*normalized_raw(once.raw, once.mode))
        assert frobenius_distance(once.sigma, twice.sigma) <= 1e-10


@pytest.mark.parametrize("raw, error, message", [
    # L^-1 is finite, but Sigma^-1 = L^-T L^-1 overflows on its diagonal
    ([[-50.0, 0.0], [1e200, -50.0]], ConditioningError, "trace of inverse weighting is not finite"),
    # the trace is finite, but rescaling L overflows its lower triangle
    ([[-50.0, 0.0], [1e300, 1e290]], ConditioningError, "rescaled weighting is not finite"),
], ids=["trace", "rescaled"])
def test_normalize_scale_rejects_an_overflowing_weighting(raw, error, message):
    # a diverged learned weighting is a numeric failure: exit 4
    w = WeightingParams(np.array(raw))
    with np.errstate(over="ignore"), pytest.raises(error, match=message) as err:
        normalized_raw(w.raw, w.mode)
    assert err.value.exit_code == 4


@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
def test_identity_start_is_a_fixed_point_of_the_rescale(mode):
    # an eta = 0 outer step leaves the raw block as it is, so Sigma stays I
    for T in range(1, 65):
        raw = identity_params(T, mode).raw
        assert np.array_equal(normalized_raw(raw, mode)[0], raw), T


def test_normalize_scale_keeps_offdiag_mode_untouched(rng):
    p = WeightingParams(rng.uniform(-2, 2, size=(4, 4)), WeightingMode.OFFDIAG_ONLY)
    assert normalized_raw(p.raw, p.mode)[0] is p.raw


def test_frobenius_distance_examples():
    a = identity_params(2).sigma
    assert frobenius_distance(a, a) == 0.0
    b = params_from_matrix(2.0 * np.eye(2)).sigma
    assert frobenius_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    c = params_from_matrix(np.array([[4.0, 2.0], [2.0, 5.0]])).sigma
    assert frobenius_distance(c, a) == pytest.approx(np.sqrt(33.0), abs=1e-12)


def test_frobenius_distance_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        frobenius_distance(identity_params(2).sigma, identity_params(3).sigma)


def test_params_from_matrix_round_trip(rng):
    base = rng.standard_normal((4, 4))
    sigma = base @ base.T + 4 * np.eye(4)
    rebuilt = params_from_matrix(sigma).sigma
    assert np.allclose(rebuilt, sigma, atol=1e-10)


def test_softplus_floor_clamps_tiny_diagonals():
    raw = np.full((2, 2), -50.0)
    L = WeightingParams(raw).factor
    assert np.all(np.diagonal(L) == SOFTPLUS_FLOOR)


def test_params_are_immutable():
    p = identity_params(3)
    with pytest.raises(ValueError):
        p.raw[0, 0] = 5.0


def test_matrix_csv_round_trip(tmp_path):
    sigma = np.array([[4.0, 2.0], [2.0, 5.0]]) / 3.0
    path = tmp_path / "sigma.csv"
    write_matrix_csv(path, sigma)
    assert np.array_equal(np.loadtxt(path, delimiter=","), sigma)


# Reference formulas: the weighting layer as first written, with np.tril,
# diag_indices and the solve_triangular wrapper.
def ref_factor(raw, mode):
    T = raw.shape[0]
    L = np.tril(raw, k=-1)
    diag = np.maximum(softplus(np.diagonal(raw)), SOFTPLUS_FLOOR)
    if mode is WeightingMode.DIAG_ONLY:
        L[:] = 0.0
    elif mode is WeightingMode.OFFDIAG_ONLY:
        diag = np.ones(T)
    L[np.diag_indices(T)] = diag
    return L


def ref_inverse(L):
    Linv = solve_triangular(L, np.eye(L.shape[0]), lower=True)
    return Linv.T @ Linv


def ref_normalized_raw(raw, mode):
    if mode is WeightingMode.OFFDIAG_ONLY:
        return raw
    L = ref_factor(raw, mode)
    root = np.sqrt(float(np.trace(ref_inverse(L))) / raw.shape[0])
    out = np.tril(L * root, k=-1)
    out[np.diag_indices_from(out)] = softplus_inv(
        np.maximum(np.diagonal(L) * root, SOFTPLUS_FLOOR)
    )
    return out


def ref_chain(raw, mode, grad_sigma):
    # the softplus derivative, the sigmoid of raw_ii, is 1 - exp(-L_ii)
    T = raw.shape[0]
    L = ref_factor(raw, mode)
    mask = np.tril(np.ones((T, T)))
    if mode is WeightingMode.DIAG_ONLY:
        mask = np.eye(T)
    elif mode is WeightingMode.OFFDIAG_ONLY:
        mask = np.tril(np.ones((T, T)), k=-1)
    grad_raw = ((grad_sigma + grad_sigma.T) @ L) * mask
    diag = np.diagonal(L)
    active = diag > SOFTPLUS_FLOOR
    grad_raw[np.diag_indices_from(grad_raw)] *= -np.expm1(-diag) * active
    return grad_raw


def assert_bitwise(a, b):
    # tobytes also tells -0.0 from 0.0, which np.array_equal does not
    assert np.array_equal(a, b, equal_nan=True)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
def test_weighting_layer_matches_reference_formulas_bitwise(mode, rng):
    diagonals = []
    for T in (1, 2, 8, 33):
        for draw in range(4):
            raw = rng.uniform(-1, 1, size=(T, T))
            np.fill_diagonal(raw, rng.uniform(-40, 40, size=T))
            if draw % 2:  # an upper triangle that must be ignored
                upper = np.triu_indices(T, k=1)
                raw[upper] = np.resize([np.nan, np.inf, -np.inf], len(upper[0]))
            diagonals.append(np.diagonal(raw).copy())
            grad_sigma = rng.standard_normal((T, T))
            w = WeightingParams(raw, mode)
            L = ref_factor(raw, mode)
            assert_bitwise(w.factor, L)
            assert_bitwise(w.sigma, L @ L.T)
            assert_bitwise(w.inverse, ref_inverse(L))
            assert_bitwise(w.with_raw(*normalized_raw(w.raw, mode)).raw,
                           ref_normalized_raw(raw, mode))
            assert_bitwise(normalized_raw(raw, mode)[0], ref_normalized_raw(raw, mode))
            assert_bitwise(raw_grad(w.factor, grad_sigma, mode),
                           ref_chain(raw, mode, grad_sigma))
    diagonals = np.concatenate(diagonals)
    # raw diagonals of both signs, and on both sides of the floor clamp
    assert np.any(diagonals >= 0) and np.any(diagonals < 0)
    assert np.any(softplus(diagonals) < SOFTPLUS_FLOOR)
    assert np.any((diagonals < 0) & (softplus(diagonals) > SOFTPLUS_FLOOR))


def sigma_form_grad(raw, mode, G, floor=0.0):
    """Complex-step gradient over ``raw`` of sum(G * Sigma), Sigma = L L^T
    with a plain transpose, so that it is analytic in ``raw``."""
    def form(z):
        L = complex_factor(z, mode, floor)
        return (G * (L @ L.T)).sum()

    return complex_step(form, raw)


@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("T", [1, 2, 8, 33])
def test_raw_grad_matches_complex_step(rng, mode, T):
    # normwise, with every diagonal of L far above SOFTPLUS_FLOOR (softplus(-3)
    # is 0.049); the worst case measured 2.7e-16 of the norm.  T = 1 in
    # OFFDIAG_ONLY mode has no free entry, and both sides are 0
    free = {WeightingMode.FULL: np.tri(T), WeightingMode.DIAG_ONLY: np.eye(T),
            WeightingMode.OFFDIAG_ONLY: np.tri(T, k=-1)}[mode] != 0
    for _ in range(3):
        raw = rng.uniform(-1, 1, (T, T))
        np.fill_diagonal(raw, rng.uniform(-3, 3, T))
        G = rng.standard_normal((T, T))  # not symmetric: raw_grad symmetrizes it
        oracle = sigma_form_grad(raw, mode, G)
        got = raw_grad(factor_from_raw(raw, mode), G, mode)
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert np.all(got[~free] == 0.0) and np.all(oracle[~free] == 0.0)
        assert np.all(oracle[free] != 0.0)


@pytest.mark.parametrize("mode", [WeightingMode.FULL, WeightingMode.DIAG_ONLY],
                         ids=lambda m: m.value)
def test_raw_grad_is_zero_where_the_floor_clamps(rng, mode):
    # softplus(-40) is 4e-18, so those diagonals of L sit at the floor, where
    # the clamp is not analytic: L does not move with them, and their gradient
    # is exactly 0.  Elsewhere raw_grad matches the complex step of the
    # factor that holds them at the floor
    T = 6
    raw = rng.uniform(-1, 1, (T, T))
    np.fill_diagonal(raw, [-40.0, 0.5, -40.0, -1.0, 2.0, -40.0])
    clamped = np.array([True, False, True, False, False, True])
    L = factor_from_raw(raw, mode)
    assert np.all(L.diagonal()[clamped] == SOFTPLUS_FLOOR)
    for i in np.flatnonzero(clamped):
        moved = raw.copy()
        moved[i, i] += 1.0
        assert np.array_equal(factor_from_raw(moved, mode), L)
    G = rng.standard_normal((T, T))
    got = raw_grad(L, G, mode)
    assert np.all(got.diagonal()[clamped] == 0.0)
    oracle = sigma_form_grad(raw, mode, G, floor=SOFTPLUS_FLOOR)
    assert np.all(oracle.diagonal()[clamped] == 0.0)
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
def test_masks_are_cached_read_only_and_gradients_are_fresh(mode, rng):
    masks = _masks(5, mode)
    assert _masks(5, mode) is masks
    for mask in masks:
        with pytest.raises(ValueError):
            mask[0, 0] = mask[0, 0]
    w = WeightingParams(rng.uniform(-2, 2, size=(5, 5)), mode)
    grad_sigma = rng.standard_normal((5, 5))
    first = raw_grad(w.factor, grad_sigma, mode)
    first[:] = 123.0
    assert_bitwise(raw_grad(w.factor, grad_sigma, mode), ref_chain(w.raw, mode, grad_sigma))


def lapack_outputs(module):
    """dtrtrs as WeightingParams.inverse calls it and dtbtrs as gen_ar does,
    on seeded random inputs: each solution and its info code."""
    rng = np.random.default_rng(5)
    out = []
    for T in (1, 8, 96):
        L = np.tril(rng.standard_normal((T, T)), -1) + np.diag(rng.uniform(0.5, 2.0, T))
        out += module.dtrtrs(L.T, np.eye(T), lower=0, trans=1)
    for p in (1, 2, 3):
        band = np.zeros((p + 1, 500), order="F")
        band[1:] = rng.uniform(-0.3, 0.3, (p, 1))
        out += module.dtbtrs(band, rng.standard_normal((500, 1)), uplo="L", diag="U")
    return [np.asarray(a) for a in out]


@pytest.fixture(scope="module")
def direct_outputs(tmp_path_factory):
    """lapack_outputs in a fresh process, where lapack() loads _flapack from its file."""
    path = tmp_path_factory.mktemp("lapack") / "direct.npz"
    script = "\n".join([
        "import sys", "import numpy as np", "from qdf.weighting import lapack",
        inspect.getsource(lapack_outputs),
        f"np.savez({str(path)!r}, *lapack_outputs(lapack()))",
        "assert 'scipy.linalg' not in sys.modules, 'package init ran'",
        "assert 'scipy.linalg._flapack' in sys.modules",
    ])
    src = str(Path(qdf.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    with np.load(path) as data:
        return [data[f"arr_{i}"] for i in range(len(data.files))]


def assert_all_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_bitwise(a, b)


@pytest.fixture
def unloaded_flapack(monkeypatch):
    """lapack() as in a process that has not loaded scipy's _flapack yet."""
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    lapack.cache_clear()
    yield monkeypatch
    lapack.cache_clear()


def test_direct_lapack_load_is_bitwise_equal_to_scipy_linalg_lapack(direct_outputs):
    assert_all_bitwise(direct_outputs, lapack_outputs(scipy.linalg.lapack))
    assert all(a == 0 for a in direct_outputs[1::2])


def test_lapack_loads_flapack_from_its_file(unloaded_flapack, direct_outputs):
    module = lapack()
    assert module is sys.modules["scipy.linalg._flapack"] and lapack() is module
    assert Path(module.__file__).name.startswith("_flapack")
    assert_all_bitwise(lapack_outputs(module), direct_outputs)


def _fail_to_load(spec):
    raise ImportError("cannot load")


@pytest.mark.parametrize("broken", [(weighting, "EXTENSION_SUFFIXES", [".missing"]),
                                    (importlib.util, "module_from_spec", _fail_to_load)],
                         ids=["no-file", "load-fails"])
def test_lapack_falls_back_to_scipy_linalg_lapack(unloaded_flapack, direct_outputs, broken):
    unloaded_flapack.setattr(*broken)
    assert lapack() is scipy.linalg.lapack
    assert "scipy.linalg._flapack" not in sys.modules
    assert_all_bitwise(lapack_outputs(lapack()), direct_outputs)
