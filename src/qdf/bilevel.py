"""Bilevel hypergradient: N inner model steps, then the outer loss's gradient
with respect to the weighting.

The inner loop runs plain full-batch gradient descent on the quadratic loss
over the inner split.  The hypergradient differentiates the outer-split loss
with respect to the weighting parameters *through the unrolled inner
trajectory only*: the weighting's direct appearance in the outer quadratic
form is held constant.  Everything here is exact reverse-mode differentiation
of the unrolled updates, with no autodiff.

The model is linear and the loss quadratic, so with Z = [X, 1] and
Theta = [W, b] every gradient depends on a split's B rows only through its
moments G = (2/B) Z^T Z and C = (2/B) Y^T Z (``Moments``), scaled as
``model.moment_grad`` takes every set of rows.  ``split_moments`` reads a
split once into one sample block [X | 1 | Y] (``WindowSet.sample_block``)
and takes both from views of it; a split pair holds both sides' from when
it is built.  With A = Sigma^-1, an inner step is
Theta <- Theta + lr A (C - Theta G), the reverse pass needs only the
residual moments M_k = C - Theta_k G of each step, and the outer adjoint is
seeded from the outer moments as A (Theta_N Go - Co).  So an update costs
O(T^2 H + T H^2) whatever the number of windows, and reads no sample row.
The seed is the outer residuals' R^T Z in normal-equation form: a perfect
outer fit gives a hypergradient that is zero up to the rounding of
Theta_N Go - Co.  The same moments give a split's mean quadratic loss under
a frozen A less its Theta-free part <A, Y^T Y> / B, which final training
ranks its epochs by (``Moments.loss_less_offset``); final training's
minibatches take theirs from one stacked product per chunk of gathered rows
(``minibatch_moments``).

At desk scale every array here is small, so the cost is per numpy call, not
per flop.  ``hypergradient`` therefore runs on plain arrays: it takes the
T x (H+1) parameter block and the weighting's factor L with its Sigma^-1,
which ``learn_weighting`` carries from the rescale of its previous update,
and returns theta_N and the gradient of the weighting's ``raw`` block,
building no model or weighting object.  It reads each side's moments off
the pair, and runs the unroll and the reverse pass; the outer step and the
rescale are ``workflow.learn_weighting``'s.  Each inner step is checked
finite, and so is the outer adjoint seed.  The adjoint is carried back
N - 1 times, since the last carry would never be read.  A ``PhaseTimer``
laps the inner and the outer phases back to back, from one start.  A split
pair's disjointness is checked on the sorted window starts, with no row
masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .data import CHUNK_FLOATS, WindowSet
from .errors import EmptyInputError, InvalidDimensionError, InvalidSplitError, NumericError
from .model import moment_grad
from .timing import UNTIMED, PhaseTimer
from .weighting import WeightingMode, raw_grad

if TYPE_CHECKING:  # workflow imports this module
    from .workflow import QdfConfig


@dataclass(frozen=True)
class SplitPair:
    """Inner/outer window sets, disjoint in source-row coverage, and their moments."""

    inner: WindowSet
    outer: WindowSet
    inner_moments: Moments = field(init=False, repr=False, compare=False)
    outer_moments: Moments = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.inner) == 0 or len(self.outer) == 0:
            raise InvalidSplitError("inner and outer splits must be nonempty")
        if (
            self.inner.history != self.outer.history
            or self.inner.horizon != self.outer.horizon
        ):
            raise InvalidDimensionError("inner/outer window shapes disagree")
        if _coverage_overlaps(self.inner, self.outer):
            raise InvalidSplitError("inner and outer windows share source rows")
        object.__setattr__(self, "inner_moments", split_moments(self.inner))
        object.__setattr__(self, "outer_moments", split_moments(self.outer))


class Moments(NamedTuple):
    """A split's second moments, scaled by 2/B as ``model.moment_grad`` takes them."""

    G: np.ndarray  # (2/B) Z^T Z over the B rows [Z | Y], Z = [X | 1]; (H+1) x (H+1)
    C: np.ndarray  # (2/B) Y^T Z, T x (H+1)

    def loss_less_offset(self, theta: np.ndarray, A: np.ndarray) -> float:
        """Mean of e^T A e over the rows, e = y - Theta z, for the parameter
        block ``theta`` and a symmetric A, less its Theta-free part
        <A, Y^T Y> / B: 1/2 <A Theta, Theta G - 2 C>.  Under a fixed A the
        offset is a constant, so this ranks parameter blocks as the loss does."""
        P = theta @ self.G
        P -= self.C
        P -= self.C
        return 0.5 * float(np.vdot(A @ theta, P))


def split_moments(windows: WindowSet) -> Moments:
    """The scaled moments of a nonempty split, from its sample block; the
    block is not kept."""
    if len(windows) == 0:
        raise EmptyInputError("moments of an empty split")
    k, T = windows.history + 1, windows.horizon
    # The moments' buffers are taken before the block's, so that the freed
    # block leaves the top of the heap for the next one to reuse.
    G, C = np.empty((k, k)), np.empty((T, k))
    block = windows.sample_block()
    Z, Y = block[:, :k], block[:, k:]
    np.matmul(Z.T, Z, out=G)
    np.matmul(Y.T, Z, out=C)
    G *= 2.0 / len(block)
    C *= 2.0 / len(block)
    return Moments(G, C)


def minibatch_moments(rows: np.ndarray, k: int, order: np.ndarray, size: int):
    """The scaled moments (2/B_b) (G_b, C_b) of each minibatch of a sample
    block ``rows`` = [Z | Y], Z its first ``k`` columns: the rows ``order``
    lists, ``size`` at a time, the last minibatch shorter if ``size`` does not
    divide them.

    The rows are gathered a chunk at a time, whole minibatches of at most
    ``CHUNK_FLOATS`` floats and at least one, and one stacked product
    E_b^T Z_b of each chunk's minibatches E_b gives every [G_b; C_b]; a
    short last minibatch takes a product of its own.
    """
    width = rows.shape[1]
    span = size * max(1, CHUNK_FLOATS // (size * width))
    for lo in range(0, len(order), span):
        chunk = rows.take(order[lo:lo + span], 0)
        whole = len(chunk) - len(chunk) % size
        for E in chunk[:whole].reshape(-1, size, width), chunk[whole:][None]:
            if E.size:
                M = np.matmul(E.transpose(0, 2, 1), E[:, :, :k])
                M *= 2.0 / E.shape[1]
                for GC in M:
                    yield GC[:k], GC[k:]


def _coverage_overlaps(a: WindowSet, b: WindowSet) -> bool:
    """Whether a window of ``a`` shares a source row with one of ``b``.

    Windows of one span overlap iff their starts differ by less than the
    span, so each start of ``a`` is checked against its nearest starts of
    ``b`` on either side.
    """
    span = a.history + a.horizon
    sb = np.sort(b.starts)
    i = np.searchsorted(sb, a.starts)
    above = sb[np.minimum(i, sb.size - 1)]
    below = sb[np.maximum(i - 1, 0)]
    return bool((np.minimum(np.abs(above - a.starts), np.abs(a.starts - below)) < span).any())


def make_split_pair(windows: WindowSet) -> SplitPair:
    """Chronological inner/outer split of one window set.

    The window list is cut in half; inner windows whose coverage runs past
    the first outer window's start are dropped so the two sides share no
    source rows (an embargo at the boundary).
    """
    n = len(windows)
    cut = n // 2
    if cut < 1:
        raise InvalidSplitError(f"cannot split {n} windows in half")
    inner = windows.slice(0, cut)
    outer = windows.slice(cut, n)
    span = windows.history + windows.horizon
    boundary = int(outer.starts.min())
    keep = inner.starts + span <= boundary
    if not np.any(keep):
        raise InvalidSplitError(
            "inner split empty after dropping boundary-straddling windows"
        )
    last = int(np.max(np.nonzero(keep)[0])) + 1
    return SplitPair(inner.slice(0, last), outer)


def hypergradient(theta, factor, mode: WeightingMode, split: SplitPair, cfg: QdfConfig,
                  timer: PhaseTimer = UNTIMED):
    """N inner GD steps from the parameter block ``theta`` under the
    weighting whose factor and Sigma^-1 are ``factor`` = (L, Sigma^-1), and
    the gradient of the outer loss with respect to the weighting's ``raw``
    block through that inner trajectory only (the direct outer occurrence of
    Sigma held fixed).

    Each step's Jacobian is I - lr A (.) G, constant in theta for a
    quadratic loss; the mixed derivative of step k with respect to Sigma is
    -lr A M_k lambda^T A, accumulated before the two A factors apply.

    Returns (theta_N, grad); the caller takes the outer step.
    """
    L, A = factor
    T = A.shape[0]
    if theta.shape != (T, split.inner.history + 1) or split.inner.horizon != T:
        raise InvalidDimensionError("model/weighting/split shapes disagree")
    (G, C), (Go, Co) = split.inner_moments, split.outer_moments
    moments = []
    timer.start()
    for _ in range(cfg.inner_steps):
        M = C - theta @ G
        timer.lap("inner_fwd")
        theta = theta + cfg.inner_lr * (A @ M)
        finite = np.isfinite(theta).all()
        timer.lap("inner_bwd")
        if not finite:
            raise NumericError("inner loop diverged; reduce inner_lr")
        moments.append(M)
    lam = moment_grad(theta, A, Go, Co)
    timer.lap("outer_fwd")
    if not np.isfinite(lam).all():
        raise NumericError("outer adjoint diverged; reduce inner_lr")
    steps = reversed(moments)
    P = next(steps) @ lam.T
    for M in steps:
        lam = lam - cfg.inner_lr * (A @ lam @ G)
        P += M @ lam.T
    grad = raw_grad(L, -cfg.inner_lr * (A @ P @ A), mode)
    timer.lap("outer_bwd")
    return theta, grad
