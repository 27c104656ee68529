"""Power-law-process inference for cause-specific failure intensities.

Each cause q has intensity  lam_q(t | z) = z * beta_q * alpha_q * t^(beta_q-1)
* T^(-beta_q), where alpha_q is the expected number of cause-q failures per
system over (0, T] and beta_q the elasticity.  Under the prior
pi(alpha, beta) ~ prod alpha_q^-1 beta_q^-zeta the marginal posteriors are
independent gammas, so point estimates and credible intervals are closed-form.
`posterior` returns the 2K gammas as one `GammaMarginal` of arrays, in the
order of `parameter_names`.

The gamma CDF and quantile are computed here with numpy alone, after DiDonato
& Morris, "Computation of the incomplete gamma function ratios and their
inverse", ACM TOMS 12 (1986).  The regularised incomplete gammas P(a, x) and
Q(a, x) share the prefactor D = x^a e^-x / Gamma(a), taken in Temme's form

    log D = a * log1pmx((x - a) / a) + log(a / 2 pi) / 2 - stirlerr(a),

with log1pmx(t) = log(1 + t) - t and stirlerr the remainder of Stirling's
series for log Gamma(a).  The naive a log x - x - lgamma(a) subtracts numbers
near a log a and loses about 3e-13 at shape 5e4.

Below x = a + 1, P is the power series D / a * sum_n x^n / ((a+1)...(a+n)) and
Q = 1 - P; above it, Q is D times Legendre's continued fraction (modified
Lentz) and P = 1 - Q.  From shapes of about one upward the smaller of the two
is thus never formed by cancellation.  The power series is summed in blocks
whose length depends on a alone, so that an element's P, Q and quantile do
not depend on the other elements of its batch.

The quantile solves P = p (or Q = 1 - p when p > 1/2) by Halley steps from
the larger of the Wilson-Hilferty value and (p Gamma(a + 1))^(1/a).  The
latter is a lower bound on the quantile, since P(a, x) <= x^a / Gamma(a + 1),
and it takes over where Wilson-Hilferty fails, at small shapes or small p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FailureDataset, CountSummary, DatasetError

__all__ = [
    "PlpParams",
    "PriorConfig",
    "GammaMarginal",
    "parameter_names",
    "ParameterEstimate",
    "ImproperPosteriorError",
    "mle",
    "classic_mle",
    "posterior",
    "bayes_estimates",
    "check_duane",
    "duane_points",
]


class ImproperPosteriorError(ValueError):
    """Raised when the data cannot support a proper posterior."""


@dataclass(frozen=True)
class PlpParams:
    """Per-cause (beta_q, alpha_q) pairs, all strictly positive."""

    beta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if beta.shape != alpha.shape:
            raise ValueError("beta and alpha must have matching length")
        if not (np.all(beta > 0) and np.all(alpha > 0)):
            raise ValueError("PLP parameters must be strictly positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)

    @property
    def K(self):
        return self.beta.size


@dataclass(frozen=True)
class PriorConfig:
    """Exponent zeta in pi(alpha, beta) ~ prod alpha_q^-1 beta_q^-zeta.

    zeta = 2 makes the posterior-mean estimators unbiased; propriety needs
    n_q > zeta - 1 for every cause.
    """

    zeta: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.zeta < math.inf:  # also rejects nan
            raise ValueError(f"zeta must be finite and nonnegative, got {self.zeta}")


_EPS = float(np.finfo(float).eps)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling-series coefficients of stirlerr(a) in powers of 1/a^2, from 1/(12 a).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _stirlerr(a):
    """log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2, for a > 0.

    Stirling's series is accurate to about 1e-17 from a = 10; below that,
    subtracting the leading terms from lgamma loses at most a few 1e-15.
    """
    out = np.empty_like(a)
    big = a >= 10.0
    if big.any():
        ab = a[big]
        inv2 = 1.0 / (ab * ab)
        series = np.zeros_like(ab)
        for coef in reversed(_STIRLING):
            series = series * inv2 + coef
        out[big] = series / ab
    small = ~big
    if small.any():
        s = a[small]
        lg = np.array([math.lgamma(v) for v in s.tolist()])
        out[small] = lg - (s - 0.5) * np.log(s) + s - _HALF_LOG_2PI
    return out


def _log_prefactor(a, x):
    """log(x^a e^-x / Gamma(a)) in Temme's form (see the module docstring)."""
    t = (x - a) / a
    near = np.abs(t) < 0.5
    with np.errstate(divide="ignore"):
        log1pmx = np.log(x / a) - t
    if near.any():
        # log(1 + t) = 2 atanh(y) with y = t / (2 + t), so log1pmx(t) is
        # -t^2 / (2 + t) + 2 y^3 (1/3 + y^2/5 + ...), |y| <= 1/3.
        tn = t[near]
        y = tn / (2.0 + tn)
        y2 = y * y
        # the largest y2 sets the terms; another's extra ones are below e^-39
        terms = max(1, math.ceil(-39.0 / math.log(max(float(y2.max()), 1e-300))))
        s = np.full_like(y, 1.0 / (2 * terms + 3))
        for k in range(terms - 1, -1, -1):
            s = s * y2 + 1.0 / (2 * k + 3)
        log1pmx[near] = -tn * tn / (2.0 + tn) + 2.0 * y * y2 * s
    return a * log1pmx + 0.5 * np.log(a) - _HALF_LOG_2PI - _stirlerr(a)


def _gamma_pq(a, x):
    """Regularised incomplete gammas P(a, x), Q(a, x) and x^a e^-x / Gamma(a).

    Elementwise over broadcast arrays, for a > 0 and x >= 0.  The third value
    divided by x is the gamma density at x.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    a, x = a.ravel(), np.minimum(x.ravel(), 1e300)
    d = np.exp(_log_prefactor(a, x))
    p = np.empty_like(x)
    q = np.empty_like(x)

    low = x < a + 1.0
    # P = D / a * sum_n prod_{k<=n} x / (a + k), in blocks whose length depends
    # on a alone; the ratios fall below 1, so the sum stops once the geometric
    # bound on its tail is negligible, and a further block cannot move it.
    blocks = np.sqrt(80.0 * (a + 1.0)).astype(int) + 32
    for block in set(blocks[low].tolist()):  # np.unique would import numpy.ma
        at = np.flatnonzero(low & (blocks == block))
        al, xl = a[at], x[at]
        total = np.ones_like(xl)
        last = np.ones_like(xl)
        n = 0
        while True:
            k = np.arange(n + 1, n + block + 1, dtype=float)
            terms = last[:, None] * np.cumprod(xl[:, None] / (al[:, None] + k), axis=1)
            total += terms.sum(axis=1)
            last = terms[:, -1]
            n += block
            r = xl / (al + n + 1.0)
            if not np.any(last * r > _EPS / 16 * total * (1.0 - r)):
                break
        p[at] = d[at] / al * total
        q[at] = 1.0 - p[at]

    high = ~low
    if high.any():
        pairs = zip(a[high].tolist(), x[high].tolist())
        q[high] = d[high] * np.array([_upper_continued_fraction(ai, xi) for ai, xi in pairs])
        p[high] = 1.0 - q[high]
    return p, q, d


def _upper_continued_fraction(a, x):
    """Q(a, x) / D = 1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))), x >= a + 1.

    Modified Lentz, one element at a time: the steps are sequential, and on
    Python floats a step costs a fraction of one numpy call.  It takes about
    1.4 sqrt(a) steps at x = a + 1 and fewer further out; the cap only ends
    a loop that rounding or a NaN would keep from converging.
    """
    eps = _EPS
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 1000 + int(20 * math.sqrt(a))):
        an = i * (a - i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= eps:
            break
    return h


def _normal_tail_quantile(tail):
    """z with upper normal tail probability `tail` (<= 1/2), to about 1e-10.

    The rational start of Abramowitz & Stegun 26.2.23 (error below 4.5e-4)
    takes one Halley step on erfc.
    """
    t = np.sqrt(-2.0 * np.log(tail))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    upper = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in z.tolist()])
    u = (upper - tail) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * z * z)
    return z + u / (1.0 - 0.5 * z * u)


def parameter_names(K):
    """The order of the 2K PLP parameters: beta_1..beta_K, then alpha_1..alpha_K."""
    return [f"{kind}_{q}" for kind in ("beta", "alpha") for q in range(1, K + 1)]


@dataclass(frozen=True, eq=False)
class GammaMarginal:
    """Gamma(shape, rate) marginals, elementwise over broadcast shapes and rates.

    `posterior` returns one marginal per PLP parameter as arrays of length 2K,
    in `parameter_names` order.
    """

    shape: np.ndarray
    rate: np.ndarray

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def sd(self):
        return np.sqrt(self.shape) / self.rate

    def ppf(self, p):
        """Quantiles at p, broadcast against the marginals: 0 at p = 0, inf at p = 1.

        Halley steps on P(a, x) = p, or on Q(a, x) = 1 - p above the median,
        each step kept inside (0, inf); an element stops once its step is
        below 1e-8 relative, after which the cubic convergence leaves it
        within rounding of the root.
        """
        a, rate, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (self.shape, self.rate, p)))
        shape_out = p.shape
        a, rate, p = a.ravel(), rate.ravel(), p.ravel()
        x = np.full_like(p, np.nan)
        x[p == 0.0] = 0.0
        x[p == 1.0] = np.inf
        todo = np.flatnonzero((p > 0.0) & (p < 1.0))
        pt, at = p[todo], a[todo]
        lower = pt <= 0.5
        qt = 1.0 - pt
        z = _normal_tail_quantile(np.minimum(pt, qt))
        z = np.where(lower, -z, z)
        wilson = at * np.maximum(1.0 - 1.0 / (9.0 * at) + z / (3.0 * np.sqrt(at)), 0.0) ** 3
        log_gamma = np.array([math.lgamma(v) for v in (at + 1.0).tolist()])
        small = np.exp((np.log(pt) + log_gamma) / at)
        xt = np.maximum(wilson, small)
        # A start of 0 means the quantile lies below the smallest float.
        x[todo[xt == 0.0]] = 0.0
        keep = xt > 0.0
        for _ in range(100):
            todo, pt, qt, lower, at, xt = todo[keep], pt[keep], qt[keep], lower[keep], at[keep], xt[keep]
            if todo.size == 0:
                break
            P, Q, d = _gamma_pq(at, xt)
            # Newton step u = residual / density, density = d / x; Halley
            # scales it by the density's log-derivative (a - 1) / x - 1.
            ratio = np.where(lower, P - pt, qt - Q) / d
            step = ratio * xt / (1.0 - 0.5 * np.minimum(1.0, ratio * (at - 1.0 - xt)))
            new = xt - step
            xt = np.where(new > 0.0, new, 0.5 * xt)
            done = np.abs(step) < 1e-8 * xt
            x[todo[done]] = xt[done]
            keep = ~done
        x[todo] = xt
        return (x / rate).reshape(shape_out)[()]

    def interval(self, level=0.95):
        """Equal-tail credible bounds (lo, hi), each shaped like the marginals."""
        half = (1.0 - level) / 2.0
        lo, hi = self.ppf(np.reshape([half, 1.0 - half], (2,) + (1,) * np.ndim(self.shape)))
        return lo, hi


def mle(summary: CountSummary) -> np.ndarray:
    """Per-cause MLE beta_hat_q = n_q / sum log(T / t) over cause-q failures."""
    n_q = summary.n_q
    if np.any(n_q == 0):
        bad = int(np.flatnonzero(n_q == 0)[0]) + 1
        raise ImproperPosteriorError(f"cause {bad} has no failures; its MLE is undefined")
    return n_q / summary.log_ratio_sums


def classic_mle(summary: CountSummary):
    """Single-system, single-cause MLEs (beta_hat, mu_hat)."""
    d = summary.design
    if not (d.m == 1 and d.K == 1):
        raise ValueError("classic MLEs apply only to m=1, K=1")
    beta_hat = float(mle(summary)[0])
    mu_hat = d.T / summary.n ** (1.0 / beta_hat)
    return beta_hat, mu_hat


def posterior(summary: CountSummary, prior: PriorConfig = PriorConfig()) -> GammaMarginal:
    """Closed-form marginal posteriors, in `parameter_names` order.

    beta_q ~ Gamma(n_q + 1 - zeta, rate n_q / beta_hat_q) and
    alpha_q ~ Gamma(n_q, rate m), independent across all 2K marginals.
    """
    n_q = summary.n_q
    zeta = prior.zeta
    for q in range(summary.design.K):
        if n_q[q] <= zeta - 1.0:
            raise ImproperPosteriorError(
                f"cause {q + 1}: n_q={n_q[q]} <= zeta-1={zeta - 1}; posterior improper"
            )
    beta_hat = mle(summary)  # raises for a cause with no failures, which zeta < 1 lets pass
    return GammaMarginal(
        shape=np.concatenate([n_q + 1.0 - zeta, n_q]),
        rate=np.concatenate([n_q / beta_hat, np.full(n_q.size, float(summary.design.m))]),
    )


@dataclass(frozen=True)
class ParameterEstimate:
    name: str
    mean: float
    sd: float
    ci_low: float
    ci_high: float


def bayes_estimates(post: GammaMarginal, level=0.95) -> list[ParameterEstimate]:
    """Posterior means, SDs and equal-tail credible intervals per parameter."""
    columns = (post.mean, post.sd, *post.interval(level))
    names = parameter_names(post.shape.size // 2)
    return [ParameterEstimate(*row) for row in zip(names, *(c.tolist() for c in columns))]


def check_duane(data: FailureDataset, cause: int) -> None:
    """Raise `DatasetError` unless cause `cause` has two distinct failure times.

    A Duane slope needs at least two points with different log-times; ties
    across systems are valid data, but a cause whose times all tie has no
    slope.
    """
    of_q = data.cause == cause
    if np.count_nonzero(of_q) < 2:
        raise DatasetError(f"cause {cause} needs at least 2 failures for a Duane plot")
    if data.time.min(where=of_q, initial=np.inf) == data.time.max(where=of_q, initial=0.0):
        raise DatasetError(
            f"cause {cause} needs two distinct failure times for a Duane plot; all tie"
        )


def duane_points(data: FailureDataset, cause: int):
    """Duane-plot data for one cause, pooled over systems.

    Returns (log_times, log_counts, slope): cumulative cause-q failure counts
    at each ordered cause-q failure time on log-log axes, with the unweighted
    least-squares slope of log count on log time, taken in closed form from
    the centred log-times.  Near-linearity supports the power-law form; the
    slope estimates beta_q.  The selected times are sorted and logged in
    place, so the log-times are the only copy of them.  Raises `DatasetError`
    as `check_duane` does.
    """
    check_duane(data, cause)
    log_t = data.time[data.cause == cause]
    log_t.sort()
    np.log(log_t, out=log_t)
    log_n = np.arange(1, log_t.size + 1, dtype=float)
    np.log(log_n, out=log_n)
    dx = log_t - log_t.mean()
    # einsum's own loop rather than a BLAS dot, whose threads can take
    # milliseconds to wake when another process holds a core
    slope = float(np.einsum("i,i", dx, log_n) / np.einsum("i,i", dx, dx))
    return log_t, log_n, slope
