"""Domain types for exponential Kantorovich sampling: sampling schemes,
kernel profiles, nonlinear responses, signals and phi-function pairs.

Everything here is immutable after construction and safe to share across
workers.  Numerics live in the sibling modules; this one only evaluates and
holds the Gauss-Legendre rules they share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import backend


class ExpKantError(Exception):
    """Base error for the package."""


class ValidationError(ExpKantError):
    """Bad parameters or malformed configuration."""


class EvaluationError(ExpKantError):
    """Non-finite values or an empty retained index set during evaluation."""


class PreconditionError(ExpKantError):
    """A theorem hypothesis failed its numerical audit."""


# ---------------------------------------------------------------------------
# quadrature rules


@functools.lru_cache(maxsize=32)
def gauss_legendre(m: int) -> tuple:
    """The m-point Gauss-Legendre rule on [-1, 1] as (nodes, weights).

    Computing a rule is an O(m^3) eigen-solve (0.8 s for m = 2048), so each
    is computed once per process; the arrays are shared by every caller and
    therefore read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_panels(a: np.ndarray, b: np.ndarray, m: int) -> tuple:
    """(u, wts): the m-point Gauss-Legendre nodes and weights mapped onto
    each panel [a_i, b_i], as (panel x node) arrays."""
    nodes, weights = gauss_legendre(m)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    return u, wts


# ---------------------------------------------------------------------------
# sampling schemes


@dataclass(frozen=True)
class SamplingScheme:
    """Node sequence t_k with gaps bounded in [lower_gap, upper_gap]: a
    strictly increasing base window (b_0, ..., b_{m-1}) extended
    periodically with period P, t_{q*m+i} = q*P + b_i, so that infinite
    sums stay well defined with the same gap bounds.  The nodes are the
    residue classes b_i + qP of Poisson summation.

    A uniform scheme of step s and offset o is the one-point base (o,) of
    period s.  Construction checks the pair, however it is built; schemes
    compare and hash by value, so equal pairs share cached moments.
    """

    base: tuple
    period: float

    def __post_init__(self):
        b, p = self.base, self.period
        if not (isinstance(b, tuple) and b
                and all(isinstance(v, float) for v in b)):
            raise ValidationError(
                f"scheme base must be a non-empty tuple of floats (got {b!r})")
        if not all(math.isfinite(v) for v in (*b, p)):
            raise ValidationError("scheme base and period must be finite")
        if any(c <= a for a, c in zip(b, b[1:])):
            raise ValidationError("scheme base must be strictly increasing")
        if p <= b[-1] - b[0]:
            raise ValidationError("period must exceed the base window span")

    @staticmethod
    def uniform(step: float = 1.0, offset: float = 0.0) -> "SamplingScheme":
        return SamplingScheme((float(offset),), float(step))

    @staticmethod
    def tabulated(base: Sequence[float], period: float) -> "SamplingScheme":
        return SamplingScheme(tuple(float(v) for v in base), float(period))

    @property
    def gaps(self) -> tuple:
        """The gaps of one period: b_{i+1} - b_i, then P - (b_{m-1} - b_0)."""
        b = self.base
        return (*(c - a for a, c in zip(b, b[1:])),
                self.period - (b[-1] - b[0]))

    @property
    def lower_gap(self) -> float:
        return min(self.gaps)

    @property
    def upper_gap(self) -> float:
        return max(self.gaps)

    @property
    def is_unit_uniform(self) -> bool:
        return self.base == (0.0,) and self.period == 1.0

    def node(self, k: int) -> float:
        q, i = divmod(k, len(self.base))
        return q * self.period + self.base[i]

    def nodes(self, k_lo: int, k_hi: int) -> np.ndarray:
        """t_k for k in [k_lo, k_hi] inclusive: q*P + b over every period q
        the indices reach, sliced to them."""
        m = len(self.base)
        q_lo = k_lo // m
        t = np.add.outer(np.arange(q_lo, k_hi // m + 1) * self.period,
                         self.base).ravel()
        return t[k_lo - q_lo * m:k_hi - q_lo * m + 1]

    def index_range(self, lo: float, hi: float) -> tuple:
        """Smallest k-interval [k_lo, k_hi] containing every t_k in [lo, hi].

        Per base point b_i, the nodes b_i + qP inside are those with
        ceil((lo - b_i)/P - 1e-12) <= q <= floor((hi - b_i)/P + 1e-12);
        the nodes ascend with k, so k_lo is the least first index of the
        classes and k_hi the greatest last one.  Returns k_lo > k_hi when
        the interval contains no node.
        """
        if hi < lo:
            return (0, -1)
        m, p = len(self.base), self.period
        k_lo, k_hi = math.inf, -math.inf
        for i, b in enumerate(self.base):
            k_lo = min(k_lo, math.ceil((lo - b) / p - 1e-12) * m + i)
            k_hi = max(k_hi, math.floor((hi - b) / p + 1e-12) * m + i)
        return (k_lo, k_hi)


# ---------------------------------------------------------------------------
# kernel profiles and responses


@dataclass(frozen=True, eq=False)
class KernelProfile:
    """The nonnegative factor L of a factorized kernel, viewed in the log
    variable: log_values(v) = L(e^v).

    A profile is one of backend's built-in kinds and an order:
    backend.KIND_BSPLINE, the B-spline of degree ``order``, compact in
    |v| <= support_radius, or backend.KIND_FEJER, the Mellin-Fejer form
    (order unused), whose closed-form tails and partition sums the moments
    module uses.  name, log_values, support_radius, is_compact and
    l1_log_norm are derived once, from backend._kind.  Profiles compare
    by identity, so the moment cache keys on the object."""

    kind: int
    order: int = 0
    name: str = field(init=False)
    log_values: Callable = field(init=False, repr=False)
    support_radius: Optional[float] = field(init=False)
    is_compact: bool = field(init=False, repr=False)
    l1_log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        try:
            name, values, radius = backend._kind(self.kind, self.order)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        # the instance is frozen: its derived fields are set here, once
        vars(self).update(name=name, log_values=values, support_radius=radius,
                          is_compact=radius is not None, l1_log_norm=1.0)


def make_builtin_profile(name: str, n: int = 2) -> KernelProfile:
    """Built-in profiles: bspline(n) and mellin_fejer.

    bspline(n) is the central B-spline of degree n (n >= 2), support radius
    (n+1)/2 in the log variable, partition of unity over integer shifts.
    mellin_fejer is (1/(2*pi)) (sin(v/2)/(v/2))^2 = (1 - cos v)/(pi v^2),
    already of unit L1 norm along the log axis; its log-moments of order
    >= 1 diverge.  Its Fourier transform is the triangle (1 - |xi|)_+, so
    its partition sums are known exactly on steps up to 2 pi, and the
    (1 - cos v)/(pi v^2) form gives its lattice and integral tails in
    closed form (moments.py).
    """
    if name == "bspline":
        if n < 2:
            raise ValidationError("bspline profile needs order n >= 2")
        return KernelProfile(backend.KIND_BSPLINE, n)
    if name == "mellin_fejer":
        return KernelProfile(backend.KIND_FEJER)
    raise ValidationError(f"unknown profile name {name!r}")


@dataclass(frozen=True, eq=False)
class SlopeFunction:
    """The psi of the (L, psi)-Lipschitz condition: nondecreasing, psi(0)=0."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    growth_exponent: Optional[float] = None      # psi(u) = O(u^q) as u -> 0+

    def __call__(self, u):
        return self.evaluate(np.asarray(u, dtype=float))


@dataclass(frozen=True, eq=False)
class ResponseFamily:
    """The family g_w with g_w(0) = 0 and g_w(u) -> u uniformly as w grows.

    deviation_rate is the alpha with sup_u |g_w(u) - u| = O(w^-alpha);
    None marks the exact identity family.  slope_range = (w_min, gap_max)
    is where the slope holds: |g_w(u) - g_w(v)| <= psi(|u - v|) for every
    w >= w_min and every gap |u - v| <= gap_max.  Below w_min some gap
    breaks it, and at w_min so does some gap beyond a finite gap_max.
    """

    name: str
    evaluate: Callable[[float, np.ndarray], np.ndarray]
    lipschitz_slope: SlopeFunction
    deviation_rate: Optional[float] = None
    slope_range: tuple = (0.0, math.inf)

    def __call__(self, w: float, u):
        return self.evaluate(w, np.asarray(u, dtype=float))


def identity_slope() -> SlopeFunction:
    return SlopeFunction("u", lambda u: u, growth_exponent=1.0)


def make_response(name: str, alpha: float = 1.0, r: float = 1.0) -> ResponseFamily:
    """Built-in response families.

    identity: g_w(u) = u (the linear case).
    soft(alpha): g_w(u) = u + w^-alpha * tanh(u), Lipschitz constant
    1 + w^-alpha; slope psi(u) = 2u for w >= 1.
    soft_power(alpha, r): g_w(u) = u + w^-alpha * sign(u) * min(|u|^r, 1),
    for runs that need psi(u) = u^r with r < 1.  At a gap d = |u - v| it
    moves by at most d + w^-alpha 2^(1-r) d^r (u = -v = d/2), at most
    psi(d) = 2 d^r for d <= 1 exactly when w >= 2^((1-r)/alpha).
    """
    if name == "identity":
        return ResponseFamily("identity", lambda w, u: u, identity_slope())
    if name == "soft":
        if alpha <= 0:
            raise ValidationError("soft response needs alpha > 0")
        return ResponseFamily(
            f"soft({alpha:g})",
            lambda w, u, _a=alpha: u + w ** (-_a) * np.tanh(u),
            SlopeFunction("2u", lambda u: 2.0 * u, growth_exponent=1.0),
            deviation_rate=float(alpha),
            slope_range=(1.0, math.inf),
        )
    if name == "soft_power":
        if alpha <= 0 or not (0.0 < r <= 1.0):
            raise ValidationError("soft_power needs alpha > 0 and r in (0, 1]")

        def _eval(w, u, _a=alpha, _r=r):
            return u + w ** (-_a) * np.sign(u) * np.minimum(np.abs(u) ** _r, 1.0)

        return ResponseFamily(
            f"soft_power({alpha:g},{r:g})",
            _eval,
            SlopeFunction(f"2u^{r:g}", lambda u, _r=r: 2.0 * u**_r,
                          growth_exponent=float(r)),
            deviation_rate=float(alpha),
            slope_range=(2.0 ** ((1.0 - r) / alpha),
                         1.0 if r < 1.0 else math.inf),
        )
    raise ValidationError(f"unknown response name {name!r}")


@dataclass(frozen=True, eq=False)
class NonlinearKernel:
    """Factorized nonlinear kernel chi(x, u) = L(x) * g_w(u).

    chi(x, 0) = 0 holds identically because g_w(0) = 0.
    """

    profile: KernelProfile
    response: ResponseFamily

    @property
    def slope(self) -> SlopeFunction:
        return self.response.lipschitz_slope


# ---------------------------------------------------------------------------
# signals


@dataclass(frozen=True, eq=False)
class Signal:
    """A test function on R+ with declared regularity metadata.

    The library never infers regularity: theorems quantify over classes, so
    each experiment must know what the test function claims.

    A signal is given in the log variable, where the Haar measure dx/x is
    dv: ``log_core(v) = f(e^v)``.  ``log_evaluate`` runs the core at v
    without a round trip through exp and log, so it does not underflow for
    v < -745, and ``evaluate(x)`` is ``log_core(ln x)``.
    ``log_mean(a, b)`` declares the cell mean
    ``(1/(b - a)) * int_a^b f(e^v) dv``, elementwise over arrays of cell
    edges a < b; ``operator.mean_values`` takes every Steklov mean from it,
    and raises ValidationError for a signal that declares none.  A
    user-built signal with an antiderivative G declares
    ``log_mean=lambda a, b: (G(b) - G(a)) / (b - a)``.  A mean computed as an
    antiderivative difference ``(G(b) - G(a)) / (b - a)`` is off by at most
    ``4 eps max(|G(a)|, |G(b)|) / (b - a) + eps |mean|`` (eps the double
    precision unit round-off) when G is exact.  The bumps' G = h R Phi(v/R)
    is tabulated to within delta (``signals.BUMP_INTEGRAL_ERROR``), which
    adds ``2 delta |h| R / (b - a)``, and a bump mean near the subnormal
    range adds the underflow ``2^-1073 / (b - a) + 2^-1074``.  sin_log's
    mean, a product of sines, is off by at most
    ``eps (|a| + |b|) / 2 + 4 eps``, and power_clipped's series states its
    bound in ``signals.power_clipped``.  These are the bounds their tests
    check.

    ``spread`` optionally declares a bound on sup f - inf f, the widest gap
    between two values (and so between two cell means); an undeclared
    spread is read as 2 ``sup_norm``.

    Construction checks the metadata, since every bound built on it trusts
    it: ``support`` r is None or finite with r > 1, ``sup_norm`` and
    ``spread`` are None or finite and >= 0, and ``holder`` is None or
    (nu, C) with 0 < nu <= 1 and C None or finite and >= 0.
    """

    name: str
    log_core: Callable[[np.ndarray], np.ndarray]
    sup_norm: Optional[float] = None
    support: Optional[float] = None              # support inside [1/r, r], r > 1
    holder: Optional[tuple] = None               # (nu, constant)
    mellin_derivative: Optional[Callable] = None  # theta f = x f'(x)
    log_mean: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    spread: Optional[float] = None               # >= sup f - inf f

    def __post_init__(self):
        def bad(what):
            return ValidationError(f"signal {self.name!r}: {what}")

        if self.support is not None and not 1.0 < self.support < math.inf:
            raise bad(f"support must be finite and > 1 (got {self.support!r})")
        for key in ("sup_norm", "spread"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value < math.inf:
                raise bad(f"{key} must be finite and >= 0 (got {value!r})")
        if self.holder is None:
            return
        try:
            nu, const = self.holder
            valid = 0.0 < nu <= 1.0 and (const is None
                                         or 0.0 <= const < math.inf)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise bad("holder must be (nu, C) with 0 < nu <= 1 and C None "
                      f"or finite and >= 0 (got {self.holder!r})")

    def evaluate(self, x) -> np.ndarray:
        # ln 0 = -inf is a legitimate query point
        with np.errstate(divide="ignore"):
            v = np.log(np.asarray(x, dtype=float))
        return self.log_core(v)

    def __call__(self, x):
        return self.evaluate(x)

    def log_evaluate(self, v) -> np.ndarray:
        return self.log_core(np.asarray(v, dtype=float))

    @property
    def log_support_radius(self) -> Optional[float]:
        return math.log(self.support) if self.support is not None else None

    def dilate(self, factor: float) -> "Signal":
        """The dilated signal x -> f(x * factor), with metadata adjusted; the
        log core and a cell mean shift by ln(factor)."""
        base = self
        s = math.log(factor)
        shift = abs(s)
        return Signal(
            name=f"{self.name}~dil({factor:g})",
            log_core=lambda v: base.log_core(np.asarray(v, dtype=float) + s),
            sup_norm=self.sup_norm,
            spread=self.spread,
            support=(math.exp(self.log_support_radius + shift)
                     if self.support is not None else None),
            holder=self.holder,
            mellin_derivative=(
                (lambda x: base.mellin_derivative(np.asarray(x, dtype=float) * factor))
                if self.mellin_derivative is not None else None),
            log_mean=((lambda a, b: base.log_mean(np.asarray(a, dtype=float) + s,
                                                  np.asarray(b, dtype=float) + s))
                      if base.log_mean is not None else None),
        )


def difference_signal(f: Signal, g: Signal) -> Signal:
    """f - g; a cell mean when both operands declare one."""
    sup = spread = None
    if f.sup_norm is not None and g.sup_norm is not None:
        sup = f.sup_norm + g.sup_norm
    if f.spread is not None and g.spread is not None:
        spread = f.spread + g.spread
    support = None
    if f.support is not None and g.support is not None:
        support = max(f.support, g.support)
    log_mean = None
    if f.log_mean is not None and g.log_mean is not None:
        def log_mean(a, b):
            return f.log_mean(a, b) - g.log_mean(a, b)
    return Signal(
        name=f"({f.name})-({g.name})",
        log_core=lambda v: f.log_core(v) - g.log_core(v),
        sup_norm=sup,
        spread=spread,
        support=support,
        log_mean=log_mean,
    )


# ---------------------------------------------------------------------------
# phi-functions


@dataclass(frozen=True, eq=False)
class PhiFunction:
    """A phi-function: continuous, nondecreasing, phi(0)=0, unbounded."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u):
        return self.evaluate(np.asarray(u, dtype=float))


@dataclass(frozen=True, eq=False)
class PhiPair:
    """A target phi together with its growth-condition companion eta and the
    lambda -> C_lambda map of the compatibility inequality
    phi(C_lambda * psi(u)) <= eta(lambda * u)."""

    phi: PhiFunction
    eta: PhiFunction
    c_lambda: Callable[[float], float]
