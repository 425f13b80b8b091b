from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_factor, grad_wrt_residual, quadratic_loss, row_grad, window_samples
from qdf.bench import benchmark_data
from qdf.bilevel import (
    SplitPair,
    _coverage_overlaps,
    hypergradient,
    make_split_pair,
    minibatch_moments,
    split_moments,
)
from qdf.data import ArSpec, SeriesFrame, WindowSet, ar_conditional_cov, gen_ar, make_windows
from qdf import bilevel, timing, workflow
from qdf.errors import ConditioningError, InvalidSplitError, NumericError, QdfError
from qdf.model import LinearForecaster, forecast, forecast_batch, init_forecaster, moment_grad
from qdf.timing import PhaseTimer
from qdf.weighting import (
    WeightingMode,
    WeightingParams,
    identity_params,
    normalized_raw,
    params_from_matrix,
)
from qdf.workflow import QdfConfig


def build_windows(rng, H, T, n_rows=80):
    return make_windows(SeriesFrame(rng.standard_normal((n_rows, 1)), ["y"]), H, T)


def build_pair(rng, H, T, n_rows=80):
    return make_split_pair(build_windows(rng, H, T, n_rows))


def one_update(windows, theta0, cfg, mode=WeightingMode.FULL):
    """learn_weighting's update on its own: one split pair, one round, from
    the identity start; returns the learned weighting."""
    cfg = replace(cfg, k_splits=1, outer_rounds=1)
    return workflow.learn_weighting(windows, theta0, cfg, mode)[0]


def reference_inner_run(theta0, params, X, Y, steps, lr):
    """Inner GD on raw W and b, with the grad_wrt_residual oracle's gradient."""
    W, b = np.array(theta0.weights), np.array(theta0.bias)
    for _ in range(steps):
        upstream = -grad_wrt_residual(Y - (X @ W.T + b), params)
        W, b = W - lr * (upstream.T @ X), b - lr * upstream.sum(axis=0)
    return W, b


def fd_hypergradient(theta0, w, split, cfg, step=1e-4):
    """Finite-difference oracle: re-run the inner loop at perturbed weighting,
    holding the outer loss's direct weighting slot at the unperturbed value."""
    X, Y = window_samples(split.inner)
    Xo, Yo = window_samples(split.outer)

    def outer_loss_at(raw):
        perturbed = WeightingParams(raw, w.mode)
        W, b = reference_inner_run(theta0, perturbed, X, Y, cfg.inner_steps, cfg.inner_lr)
        resid = Yo - (Xo @ W.T + b)
        return quadratic_loss(resid, w)  # direct slot fixed at w

    grad = np.zeros_like(w.raw)
    for i in range(w.horizon):
        for j in range(i + 1):
            rp = w.raw.copy()
            rm = w.raw.copy()
            rp[i, j] += step
            rm[i, j] -= step
            grad[i, j] = (outer_loss_at(rp) - outer_loss_at(rm)) / (2 * step)
    return grad


def cs_hypergradient(theta0, raw, mode, split, cfg, h=1e-30):
    """Complex-step oracle: Im f(raw + i h E_ij) / h for every lower entry,
    f being the outer loss after the inner GD steps re-run on the samples in
    complex arithmetic, with the outer form's Sigma^-1 held at its real value.
    Entries the mode does not read come out zero."""
    X, Y = window_samples(split.inner)
    Xo, Yo = window_samples(split.outer)
    Z, Zo = (np.column_stack([a, np.ones(len(a))]) for a in (X, Xo))
    L0 = complex_factor(raw, mode)
    A0 = np.linalg.inv(L0 @ L0.T)

    def outer_loss_at(z):
        L = complex_factor(z, mode)
        A = np.linalg.inv(L @ L.T)  # plain transpose: analytic in z
        theta = theta0.astype(complex)
        for _ in range(cfg.inner_steps):
            theta = theta + (2 * cfg.inner_lr / len(Z)) * (A @ (Y - Z @ theta.T).T @ Z)
        R = Yo - Zo @ theta.T
        return ((R @ A0) * R).sum() / len(Zo)

    grad = np.zeros_like(raw)
    for i, j in zip(*np.tril_indices(raw.shape[0])):
        z = raw.astype(complex)
        z[i, j] += 1j * h
        grad[i, j] = outer_loss_at(z).imag / h
    return grad


def assert_close_hypergrad(analytic, fd, tol=1e-3, floor=1e-8):
    significant = np.abs(fd) > floor
    err = np.abs(analytic - fd)[significant] / np.abs(fd)[significant]
    assert err.size > 0, "no significant entries to compare"
    assert np.max(err) <= tol
    # insignificant entries must also be near zero analytically
    assert np.all(np.abs(analytic[~significant]) < 1e-6)


# ------------------------------------------------------------ split pairs

def test_make_split_pair_disjoint_coverage(rng):
    pair = build_pair(rng, 4, 2, 60)
    span = 6
    inner_end = int(pair.inner.starts.max()) + span
    assert inner_end <= int(pair.outer.starts.min())


def test_split_pair_rejects_overlap(rng):
    frame = SeriesFrame(rng.standard_normal((30, 1)), ["y"])
    ws = make_windows(frame, 3, 2)
    with pytest.raises(InvalidSplitError):
        SplitPair(ws.slice(0, 10), ws.slice(9, 20))


def test_split_pair_rejects_empty(rng):
    frame = SeriesFrame(rng.standard_normal((30, 1)), ["y"])
    ws = make_windows(frame, 3, 2)
    with pytest.raises(InvalidSplitError):
        SplitPair(ws.slice(0, 0), ws.slice(10, 20))


def test_make_split_pair_too_small(rng):
    frame = SeriesFrame(rng.standard_normal((10, 1)), ["y"])
    ws = make_windows(frame, 4, 4)  # 3 windows, all mutually overlapping
    with pytest.raises(InvalidSplitError):
        make_split_pair(ws)


# --------------------------------------------------------- hypergradient

@pytest.mark.parametrize("inner_steps", [1, 2, 3])
def test_hypergradient_matches_finite_differences(rng, inner_steps):
    for _ in range(4):
        T = int(rng.integers(2, 9))
        H = int(rng.integers(2, 9))
        pair = build_pair(rng, H, T, n_rows=90)
        theta0 = init_forecaster(H, T, rng)
        raw = rng.uniform(-0.6, 0.6, size=(T, T))
        w = WeightingParams(raw)
        cfg = QdfConfig(inner_steps=inner_steps, inner_lr=0.02, eta=0.1)
        analytic = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)[1]
        fd = fd_hypergradient(theta0, w, pair, cfg)
        assert_close_hypergrad(analytic, fd)


@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("T", [1, 2, 8, 33])
def test_hypergradient_matches_complex_step(rng, mode, T):
    # normwise, against an oracle exact to rounding: no difference quotient's
    # truncation error to hide behind, so a relative error of 1e-6 anywhere
    # in the reverse pass fails; the diagonal stays far above SOFTPLUS_FLOOR
    for inner_steps in (1, 2, 3, 8):
        H = int(rng.integers(1, 7))
        pair = build_pair(rng, H, T, n_rows=4 * (T + H) + 60)
        theta0 = rng.standard_normal((T, H + 1))
        raw = rng.uniform(-0.6, 0.6, (T, T)) / np.sqrt(T)  # Sigma stays well conditioned
        np.fill_diagonal(raw, rng.uniform(-0.6, 0.6, T))
        cfg = QdfConfig(inner_steps=inner_steps, inner_lr=0.02)
        w = WeightingParams(raw, mode)
        g = hypergradient(theta0, (w.factor, w.inverse), mode, pair, cfg)[1]
        oracle = cs_hypergradient(theta0, raw, mode, pair, cfg)
        assert np.linalg.norm(g - oracle) <= 1e-12 * np.linalg.norm(oracle)
        free = {WeightingMode.FULL: np.tri(T), WeightingMode.DIAG_ONLY: np.eye(T),
                WeightingMode.OFFDIAG_ONLY: np.tri(T, k=-1)}[mode] != 0
        assert np.all(g[~free] == 0.0) and np.all(oracle[free] != 0.0)


def test_hypergradient_spec_example_n1_t2(rng):
    pair = build_pair(rng, 2, 2, 70)
    theta0 = init_forecaster(2, 2, rng)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (2, 2)))
    cfg = QdfConfig(inner_steps=1, inner_lr=0.05, eta=0.1)
    analytic = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)[1]
    fd = fd_hypergradient(theta0, w, pair, cfg)
    assert_close_hypergrad(analytic, fd)


def test_hypergradient_vanishes_with_inner_lr(rng):
    pair = build_pair(rng, 3, 3, 70)
    theta0 = init_forecaster(3, 3, rng)
    w = identity_params(3)
    big = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair,
                        QdfConfig(inner_steps=1, inner_lr=1e-2, eta=0.1))[1]
    small = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair,
                          QdfConfig(inner_steps=1, inner_lr=1e-8, eta=0.1))[1]
    assert np.max(np.abs(small)) < 1e-5 * max(np.max(np.abs(big)), 1e-12) + 1e-12


def test_hypergradient_mode_masks(rng):
    pair = build_pair(rng, 3, 4, 80)
    theta0 = init_forecaster(3, 4, rng)
    cfg = QdfConfig(inner_steps=2, inner_lr=0.02, eta=0.1)
    diag = WeightingParams(rng.uniform(-0.5, 0.5, (4, 4)), WeightingMode.DIAG_ONLY)
    g_diag = hypergradient(theta0.theta, (diag.factor, diag.inverse), diag.mode, pair, cfg)[1]
    assert np.all(np.tril(g_diag, k=-1) == 0.0)
    off = WeightingParams(rng.uniform(-0.5, 0.5, (4, 4)), WeightingMode.OFFDIAG_ONLY)
    g_off = hypergradient(theta0.theta, (off.factor, off.inverse), off.mode, pair, cfg)[1]
    assert np.all(np.diagonal(g_off) == 0.0)


def seed_rounding_bound(theta0, w, pair, cfg):
    """First-order bound on the hypergradient that the rounding of the outer
    seed alone can give, in Frobenius norms.

    The seed A (Theta_N Go - Co) cancels to zero on a perfect outer fit,
    leaving a rounding error of about (H + 2) eps ||Co|| in Theta_N Go - Co.
    The reverse pass maps a seed error d linearly to a hypergradient of norm
    at most 2 ||L|| s ||A||^2 ||d|| sum_k ||M_k|| (1 + s ||A|| ||G||)^(N-1-k),
    over the inner steps k = 0 .. N-1, with s = lr and M_k = C - Theta_k G
    the inner residual moments.
    """
    norm = np.linalg.norm
    G, C = pair.inner_moments
    Go, Co = pair.outer_moments
    A, s = w.inverse, cfg.inner_lr
    seed_error = norm(A) * (theta0.history + 2) * np.finfo(float).eps * norm(Co)
    thetas = [theta0.theta] + [
        hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair,
                      replace(cfg, inner_steps=k))[0]
        for k in range(1, cfg.inner_steps)]
    carry = sum(norm(C - th @ G) * (1 + s * norm(A) * norm(G)) ** (cfg.inner_steps - 1 - k)
                for k, th in enumerate(thetas))
    return 2 * norm(w.factor) * s * norm(A) ** 2 * carry * seed_error


def test_stop_gradient_zero_outer_residuals(rng):
    # Build an outer split whose labels equal the post-inner-loop forecasts:
    # the hypergradient vanishes up to the rounding of the outer seed, even
    # though the inner residuals do not.
    H, T = 3, 2
    frame = SeriesFrame(rng.standard_normal((60, 1)), ["y"])
    ws = make_windows(frame, H, T)
    pair = make_split_pair(ws)
    theta0 = init_forecaster(H, T, rng)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (T, T)))
    cfg = QdfConfig(inner_steps=2, inner_lr=0.02, eta=0.1)

    # theta after the inner loop, computed by the module's own path
    theta_n = LinearForecaster(
        hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)[0])
    Xo, _ = window_samples(pair.outer)
    perfect_Y = forecast_batch(theta_n, Xo)[:, :, None]
    Xo3, _ = pair.outer.arrays()
    perfect_pair = SplitPair(pair.inner, WindowSet(Xo3, perfect_Y, pair.outer.starts))

    bound = seed_rounding_bound(theta0, w, perfect_pair, cfg)
    assert 0 < bound < 1e-12
    g = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, perfect_pair, cfg)[1]
    assert np.linalg.norm(g) <= bound
    # contrast: outer labels off the forecasts by a thousandth of their scale
    # give a hypergradient far above the bound, so a seed that ignored the
    # outer residuals would fail one of the two checks
    noise = 1e-3 * np.std(perfect_Y) * rng.standard_normal(perfect_Y.shape)
    off_pair = SplitPair(pair.inner, WindowSet(Xo3, perfect_Y + noise, pair.outer.starts))
    g_off = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, off_pair, cfg)[1]
    assert np.linalg.norm(g_off) > 1e6 * seed_rounding_bound(theta0, w, off_pair, cfg)
    # sanity: inner residuals themselves are not zero
    X, Y = window_samples(pair.inner)
    assert np.max(np.abs(Y - forecast_batch(theta_n, X))) > 1e-3


@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("T", [1, 2, 8])
def test_outer_moment_seed_matches_row_seed(rng, mode, T):
    # the seed hypergradient reads off the pair's outer moments,
    # A (Theta Go - Co), is the row-form gradient oracle on the
    # outer samples, up to the rounding of Theta Go - Co
    for _ in range(5):
        H = int(rng.integers(1, 9))
        pair = build_pair(rng, H, T, n_rows=int(rng.integers(40, 120)))
        theta = rng.standard_normal((T, H + 1))
        A = WeightingParams(rng.uniform(-0.6, 0.6, (T, T)), mode).inverse
        Xo, Yo = window_samples(pair.outer)
        block = np.column_stack([Xo, np.ones(len(Xo)), Yo])
        rows = row_grad(theta, A, block)
        Go, Co = pair.outer_moments
        moments = moment_grad(theta, A, Go, Co)
        norm = np.linalg.norm
        tol = norm(A) * (H + 2) * np.finfo(float).eps * (
            norm(Co) + norm(theta) * norm(Go))
        assert np.linalg.norm(moments - rows) <= tol
        assert np.linalg.norm(rows) > 1e6 * tol


def test_outer_split_is_read_once_per_pair(rng):
    # a pair reads each side once, when it is built, and never again
    pair = build_pair(rng, 3, 2, 60)
    assert (pair.inner.reads, pair.outer.reads) == (1, 1)
    theta = init_forecaster(3, 2, rng).theta
    w, mode = identity_params(2), WeightingMode.FULL
    raw, factor = w.raw, (w.factor, w.inverse)
    cfg = QdfConfig(inner_steps=2, inner_lr=0.02, eta=0.1)
    for _ in range(5):
        theta, grad = hypergradient(theta, factor, mode, pair, cfg)
        raw, factor = normalized_raw(raw - cfg.eta * grad, mode)
    assert pair.outer.reads == 1
    assert pair.inner.reads == 1


def test_overflowing_outer_split_raises_numeric_error(rng):
    pair = build_pair(rng, 3, 2, 60)
    theta0 = init_forecaster(3, 2, rng)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (2, 2)))
    cfg = QdfConfig(inner_steps=2, inner_lr=0.02, eta=0.1)
    Xo, Yo = pair.outer.arrays()
    with np.errstate(over="ignore"):  # the pair's outer moments overflow
        huge = SplitPair(pair.inner, WindowSet(Xo * 1e300, Yo, pair.outer.starts))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="diverged"):
        hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, huge, cfg)


def test_hypergradient_deterministic(rng):
    pair = build_pair(rng, 4, 3, 80)
    theta0 = init_forecaster(4, 3, rng)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (3, 3)))
    cfg = QdfConfig(inner_steps=2, inner_lr=0.02, eta=0.1)
    g1 = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)[1]
    g2 = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)[1]
    assert np.array_equal(g1, g2)


# --------------------------------------------------------- atomic update

def test_atomic_update_eta_zero_returns_w_unchanged(rng):
    # eta = 0 takes a zero outer step, and the rescale leaves the identity
    # start as it is: the raw block comes back equal, in every mode, while
    # the inner trajectory runs as plain GD
    ws = build_windows(rng, 3, 2, 60)
    pair = make_split_pair(ws)
    theta0 = init_forecaster(3, 2, rng)
    cfg = QdfConfig(inner_steps=3, inner_lr=0.02, eta=0.0)
    X, Y = window_samples(pair.inner)
    for mode in WeightingMode:
        w = identity_params(2, mode)
        assert np.array_equal(one_update(ws, theta0, cfg, mode).raw, w.raw)
        theta_n = LinearForecaster(
            hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)[0])
        W, b = reference_inner_run(theta0, w, X, Y, 3, 0.02)
        assert np.allclose(theta_n.weights, W, atol=1e-12)
        assert np.allclose(theta_n.bias, b, atol=1e-12)


def test_atomic_update_applies_hypergradient_step(rng):
    ws = build_windows(rng, 3, 2, 60)
    theta0 = init_forecaster(3, 2, rng)
    cfg = QdfConfig(inner_steps=1, inner_lr=0.02, eta=0.3)
    for mode in WeightingMode:
        w = identity_params(2, mode)
        g = hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, make_split_pair(ws), cfg)[1]
        assert np.any(g != 0.0)
        raw = one_update(ws, theta0, cfg, mode).raw
        assert np.array_equal(raw, normalized_raw(w.raw - 0.3 * g, w.mode)[0])


def test_atomic_update_normalizes_scale(rng):
    ws = build_windows(rng, 3, 2, 60)
    theta0 = init_forecaster(3, 2, rng)
    cfg = QdfConfig(inner_steps=1, inner_lr=0.02, eta=0.3)
    w2 = one_update(ws, theta0, cfg)
    assert not np.array_equal(w2.raw, identity_params(2).raw)
    assert np.trace(np.linalg.inv(w2.sigma)) == pytest.approx(2.0, rel=1e-9)


def guard_case(rng, where):
    """A split pair, a model and a config on which one check of the update fires."""
    pair = build_pair(rng, 3, 2, 60)
    theta0 = init_forecaster(3, 2, rng)
    lr, eta = {"inner": (1e300, 0.1), "step": (1e100, 0.1), "trace": (0.02, 1e300)}.get(
        where, (0.02, 0.1))
    if where == "outer":
        Xo, Yo = pair.outer.arrays()
        with np.errstate(over="ignore"):  # the pair's outer moments overflow
            pair = SplitPair(pair.inner, WindowSet(Xo * 1e300, Yo, pair.outer.starts))
    return pair, theta0, QdfConfig(k_splits=1, outer_rounds=1, inner_steps=2, inner_lr=lr,
                                   eta=eta)


@pytest.mark.parametrize("where, message", [
    ("inner", "inner loop diverged"),
    ("outer", "outer adjoint diverged"),
])
def test_unrolled_loop_guards_fire(rng, monkeypatch, where, message):
    # the check stops hypergradient alone, at any weighting, and
    # learn_weighting's update over it
    pair, theta0, cfg = guard_case(rng, where)
    monkeypatch.setattr(workflow, "make_split_pair", lambda windows: pair)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (2, 2)))
    for run in (lambda: hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg),
                lambda: workflow.learn_weighting(pair.inner, theta0, cfg)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=message) as err:
            run()
        assert err.value.exit_code == 4


def singular(a):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("where, error, message", [
    ("inner", NumericError, "inner loop diverged; reduce inner_lr or eta"),
    ("outer", NumericError, "outer adjoint diverged; reduce inner_lr or eta"),
    ("step", NumericError, "outer step diverged; reduce eta or inner_lr"),
    ("trace", ConditioningError, "trace of inverse weighting is not finite"),
    ("lapack", ConditioningError, "triangular factor is singular"),
])
def test_update_guards_fire_alike_in_learn_weighting(rng, monkeypatch, where, error, message):
    # each check of an update stops learn_weighting's first update, with its
    # own error and exit code 4: the unroll's, the step's and the rescale's
    pair, theta0, cfg = guard_case(rng, where)
    monkeypatch.setattr(workflow, "make_split_pair", lambda windows: pair)
    if where == "lapack":  # a floored L is never singular; LAPACK reporting so must stop
        monkeypatch.setattr(np.linalg, "inv", singular)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QdfError) as err:
        workflow.learn_weighting(pair.inner, theta0, cfg)
    assert (type(err.value), str(err.value), err.value.exit_code) == (error, message, 4)


class CountingClock:
    """Stands in for the time module in qdf.timing, counting clock reads."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return 0.0

    process_time = perf_counter


def test_update_reads_the_clock_only_with_a_timer(rng, monkeypatch):
    pair = build_pair(rng, 3, 2, 60)
    theta0 = init_forecaster(3, 2, rng)
    cfg = QdfConfig(inner_steps=2, inner_lr=0.02, eta=0.1)
    clock = CountingClock()
    monkeypatch.setattr(timing, "time", clock)
    monkeypatch.setattr(workflow, "make_split_pair", lambda windows: pair)
    w = identity_params(2)
    hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg)
    workflow.learn_weighting(pair.inner, theta0, replace(cfg, k_splits=1, outer_rounds=1))
    assert clock.reads == 0
    timer = PhaseTimer()
    hypergradient(theta0.theta, (w.factor, w.inverse), w.mode, pair, cfg, timer)
    assert timer.steps == {"inner_fwd": 2, "inner_bwd": 2, "outer_fwd": 1, "outer_bwd": 1}
    # two clocks, read once at the start and at each phase's end
    assert clock.reads == 2 * (1 + 6)


def _windows_at(starts, H, T):
    n = len(starts)
    return WindowSet(np.zeros((n, H, 1)), np.zeros((n, T, 1)), np.array(starts))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    H=st.integers(1, 6),
    T=st.integers(1, 6),
    a=st.lists(st.integers(0, 120), min_size=1, max_size=12),
    b=st.lists(st.integers(0, 120), min_size=1, max_size=12),
)
def test_coverage_overlap_check_matches_brute_force(H, T, a, b):
    def rows(starts):
        return {r for s in starts for r in range(s, s + H + T)}

    want = bool(rows(a) & rows(b))
    assert _coverage_overlaps(_windows_at(a, H, T), _windows_at(b, H, T)) is want
    assert _coverage_overlaps(_windows_at(b, H, T), _windows_at(a, H, T)) is want


# ------------------------------------------------------------ split moments

def test_split_moments_are_the_block_products(rng):
    ws = build_windows(rng, 4, 3, 80)
    G, C = split_moments(ws)
    assert ws.reads == 1
    X, Y = window_samples(ws)
    Z = np.column_stack([X, np.ones(len(X))])
    for got, want in ((G, (2 / len(X)) * (Z.T @ Z)), (C, (2 / len(X)) * (Y.T @ Z))):
        assert np.allclose(got, want, rtol=1e-14, atol=0)
    assert np.array_equal(G, G.T)


def test_split_moments_of_several_variables_sum_over_the_variables(rng):
    # the rows of a D-variable split are the rows of its D one-column splits
    # of 84 rows each, so its scaled moments are theirs averaged, up to the
    # order of the sums
    values = rng.standard_normal((90, 3))
    G, C = split_moments(make_windows(SeriesFrame(values, ["a", "b", "c"]), 4, 3))
    parts = [split_moments(make_windows(SeriesFrame(values[:, [d]], ["y"]), 4, 3))
             for d in range(3)]
    for got, want in ((G, sum(part.G for part in parts) / 3),
                      (C, sum(part.C for part in parts) / 3)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_split_moments_of_an_empty_split_raise():
    ws = WindowSet(np.zeros((0, 3, 1)), np.zeros((0, 2, 1)), np.zeros(0, dtype=int))
    with pytest.raises(QdfError):
        split_moments(ws)


def moments_shape_split(shape):
    """The validation split at a named shape, with its AR(1) oracle covariance."""
    if shape == "bench":  # the corr-only preset: AR(1), phi = 0.6, H = 16, T = 8
        data = benchmark_data("corr-only", 0)
        return data.valid, data.oracle_cov
    # criterion 9: H = 16, T = 96, about 11900 windows of AR(1), as in its
    # validation split
    spec = ArSpec((0.6,), 1.0, 12000, seed=909)
    return make_windows(gen_ar(spec), 16, 96), ar_conditional_cov(spec, 96)


@pytest.mark.parametrize("shape", ["bench", "criterion-9"])
def test_moments_loss_matches_quadratic_loss_on_the_samples(shape):
    # the loss less its offset, 1/2 <A Theta, Theta G - 2 C>, differs from the
    # mean e^T A e of the residual rows by a constant: the difference between
    # two parameter blocks matches, relative to the loss, between a small
    # random start and the least squares fit Theta* = C G^-1, where the loss
    # cancels most
    valid, oracle = moments_shape_split(shape)
    moments = split_moments(valid)
    X, Y = window_samples(valid)
    T, k = moments.C.shape
    fit = np.linalg.solve(moments.G, moments.C.T).T
    start = 0.1 * np.random.default_rng(0).standard_normal((T, k))
    thetas = start, (start + fit) / 2, (start + 3 * fit) / 4, fit
    worst = 0.0
    for w in (identity_params(T), params_from_matrix(oracle)):
        want = [quadratic_loss(Y - forecast(theta, X), w) for theta in thetas]
        got = [moments.loss_less_offset(theta, w.inverse) for theta in thetas]
        for i in range(len(thetas)):
            for j in range(i):
                err = abs((got[i] - got[j]) - (want[i] - want[j]))
                worst = max(worst, err / max(want[i], want[j]))
    assert worst <= 1e-12
    # the offset is the loss at Theta = 0, <A, Y^T Y> / B
    w = params_from_matrix(oracle)
    offset = np.vdot(w.inverse, Y.T @ Y) / len(Y)
    assert moments.loss_less_offset(fit, w.inverse) + offset == pytest.approx(
        quadratic_loss(Y - forecast(fit, X), w), rel=1e-12)


def minibatch_case(case, monkeypatch):
    """A training sample block at a named shape, with the batch size and the
    CHUNK_FLOATS the case runs at."""
    H, T, n, size = {
        "bench": (16, 8, 210, 64),  # 600 windows, 35 % of them, one chunk per epoch
        "criterion-9": (16, 96, 1000, 64),  # one minibatch per chunk
        "tail-batch": (16, 8, 210, 48),  # 4 whole minibatches and one of 18
        "several-chunks": (16, 8, 210, 16),
        "below-one-minibatch": (16, 8, 210, 64),
    }[case]
    if case == "several-chunks":
        monkeypatch.setattr(bilevel, "CHUNK_FLOATS", 3 * 16 * 25 + 7)  # 3 minibatches
    if case == "below-one-minibatch":
        monkeypatch.setattr(bilevel, "CHUNK_FLOATS", 100)
    spec = ArSpec((0.6,), 1.0, n + H + T - 1, seed=71)
    return make_windows(gen_ar(spec), H, T).sample_block(), H + 1, size


@pytest.mark.parametrize("case", ["bench", "criterion-9", "tail-batch", "several-chunks",
                                  "below-one-minibatch"])
def test_minibatch_moment_gradients_match_the_row_form(case, monkeypatch):
    # every minibatch of an epoch, in order, through the stacked chunk
    # products and the moments kernel, against the row-form oracle on the
    # same rows
    rows, k, size = minibatch_case(case, monkeypatch)
    rng = np.random.default_rng(5)
    T = rows.shape[1] - k
    theta = 0.3 * rng.standard_normal((T, k))
    A = params_from_matrix(np.eye(T) + 0.5 * np.tri(T, k=-1) @ np.tri(T, k=-1).T / T).inverse
    order = rng.permutation(len(rows))
    batches = list(minibatch_moments(rows, k, order, size))
    assert len(batches) == -(-len(rows) // size)
    worst = 0.0
    for b, (G, C) in enumerate(batches):
        want = row_grad(theta, A, rows[order[b * size:(b + 1) * size]])
        got = moment_grad(theta, A, G, C)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    assert worst <= 1e-13


@pytest.mark.parametrize("shape", ["bench", "criterion-9"])
def test_split_moments_are_one_whole_split_minibatch(shape):
    # the scaled moments of a split are those minibatch_moments gives for one
    # minibatch of the whole split in window order, up to the rounding of
    # the two products (the minibatch's is one stacked gemm, the split's G a
    # product of its own)
    valid, _ = moments_shape_split(shape)
    G, C = split_moments(valid)
    rows = valid.sample_block()
    k = valid.history + 1
    (Gb, Cb), = minibatch_moments(rows, k, np.arange(len(rows)), len(rows))
    worst = max(np.linalg.norm(got - want) / np.linalg.norm(want)
                for got, want in ((G, Gb), (C, Cb)))
    assert worst <= 2e-16  # 1.1e-16 at criterion 9, one BLAS thread
