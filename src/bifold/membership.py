"""Class-membership functionals and disk-sampled membership checks.

Both function classes are carved out by the same functional

    Phi(f)(z) = (1/2) * ( z f'(z)/f(z) + (z f'(z)/f(z))^(1/lambda) ),

an arg-type condition |arg Phi| < alpha*pi/2 or a re-type condition
Re Phi > beta, imposed on f and on its inverse g.  On the series side the
fractional power is taken as a power series around the constant term 1
(which is Phi(0) and keeps the principal branch well defined near the
origin); at lambda = 1 the two summands coincide and Phi is exactly
z f'/f.

Membership is *sampled*, not certified: the functional is evaluated on a
polar grid for f and for the truncated reversion g, r * exp(2*pi*i*j/A) for
each r of the ten ``RADII`` and j < A.  On each circle the truncated series is
evaluated at once by an inverse FFT of its scaled coefficients
(``TruncatedSeries.eval_polar``), which rounds no worse than Horner's rule
at each point.  Because g only exists as a truncated series, its grid
radius is capped and every margin is weighed against a crude geometric tail
estimate of the truncation error; margins inside the noise floor yield the
verdict "inconclusive" rather than pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds as bounds_mod
from .mfold import off_shape_exponent
from .series import TruncatedSeries, scalar_types

__all__ = [
    "ClassSpec",
    "phi",
    "arg_margin",
    "re_margin",
    "check_membership",
    "MembershipReport",
    "SideReport",
    "tail_estimate",
    "RADII",
    "G_SIDE_RADIUS_CAP",
]

RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
DEFAULT_ANGLES = 720
G_SIDE_RADIUS_CAP = 0.7
_G_RADII = tuple(sorted({min(r, G_SIDE_RADIUS_CAP) for r in RADII}))


@dataclass(frozen=True)
class ClassSpec:
    """Parameters of one membership condition.

    kind "arg": |arg Phi| < alpha*pi/2 with 0 < alpha <= 1.
    kind "re":  Re Phi > beta with 0 <= beta < 1.
    Both take 0 < lambda <= 1; lambda = 1 reduces Phi to z f'/f.
    """

    kind: str
    m: int = 1
    lam: object = 1
    alpha: object = None
    beta: object = None

    def __post_init__(self):
        if self.kind not in ("arg", "re"):
            raise ValueError(f"kind must be 'arg' or 're', got {self.kind!r}")
        bounds_mod._check_m(self.m)
        object.__setattr__(self, "m", int(self.m))
        bounds_mod._check_lambda(self.lam)
        if self.kind == "arg":
            bounds_mod._check_alpha(self.alpha)
        else:
            bounds_mod._check_beta(self.beta)

    @classmethod
    def from_kind(cls, kind, m, param, lam) -> "ClassSpec":
        """The spec named in the "alpha" | "beta" vocabulary of ``bounds``,
        ``solve-coeffs`` and ``search``: alpha is the arg type, beta the
        re type."""
        if kind == "alpha":
            return cls("arg", m=m, lam=lam, alpha=param)
        if kind == "beta":
            return cls("re", m=m, lam=lam, beta=param)
        raise ValueError(f"kind must be 'alpha' or 'beta', got {kind!r}")

    @property
    def param(self):
        return self.alpha if self.kind == "arg" else self.beta

    def bounds(self):
        """(B1, B2): the closed-form bounds on |a_{m+1}| and |a_{2m+1}|."""
        if self.kind == "arg":
            return bounds_mod.bound_alpha(self.m, self.alpha, self.lam)
        return bounds_mod.bound_beta(self.m, self.beta, self.lam)

    def describe(self) -> str:
        name = "alpha" if self.kind == "arg" else "beta"
        return f"{self.kind}-type(m={self.m}, {name}={self.param}, lambda={self.lam})"


def phi(f: TruncatedSeries, lam) -> TruncatedSeries:
    """Series of the membership functional of a normalized f.

    Constant term 1; for an m-fold f only exponents divisible by m appear.
    With rational lam on the exact backend the result is exact.
    """
    if not f.is_normalized():
        raise ValueError("the membership functional needs a normalized series")
    bounds_mod._check_lambda(lam)
    return _phi_of_ratio(_log_derivative(f), lam)


def _log_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """z f'/f of a normalized f, constant term 1."""
    return f.derivative().shift_up(1) / f


def _phi_of_ratio(ratio: TruncatedSeries, lam) -> TruncatedSeries:
    """Phi from the series ratio = z f'/f."""
    if lam == 1:
        return ratio
    real, _ = scalar_types(ratio.backend)
    return (ratio + ratio.pow(1 / real(lam))) * (real(1) / 2)


def arg_margin(value, spec: ClassSpec) -> float:
    """alpha*pi/2 - |arg value|, principal branch in (-pi, pi]; -inf at 0."""
    return _margin(value, spec, "arg")


def re_margin(value, spec: ClassSpec) -> float:
    """Re value - beta."""
    return _margin(value, spec, "re")


def _margin(value, spec, kind):
    """One point's margin by the grid scan's ``_margins``, to the bit."""
    import numpy as np

    if spec.kind != kind:
        raise ValueError(f"{kind}_margin needs a spec of kind {kind!r}, "
                         f"got {spec.describe()}")
    return float(_margins(np.asarray(complex(value)), spec))


_TAIL_WINDOW = 6


def tail_estimate(series: TruncatedSeries, radius: float) -> float:
    """Crude geometric extrapolation of the truncation error at |z| = radius.

    Looks at the trailing six coefficient magnitudes (never the
    constant term, which no truncation cuts), takes the largest ratio of
    consecutive nonzero ones as the growth rate rho, and bounds the tail by
    |c_N| r^N * q/(1-q) with q = rho*r.  Infinite when the extrapolated
    terms do not decay.  Identically zero series tails are zero.
    """
    start = max(1, series.order + 1 - _TAIL_WINDOW)
    last = [abs(complex(c)) for c in series.coeffs[start:]]
    if max(last, default=0.0) == 0.0:
        return 0.0
    ratios = [b / a for a, b in zip(last, last[1:]) if a > 0 and b > 0]
    rho = max(ratios) if ratios else 1.0
    rho = max(rho, 1e-3)
    q = rho * radius
    if q >= 1.0:
        return float("inf")
    lead = max(c * radius ** (start + i) for i, c in enumerate(last))
    return lead * q / (1.0 - q)


@dataclass
class SideReport:
    """Grid outcome for one side (f itself or its truncated inverse g)."""

    side: str
    verdict: str  # pass | fail | inconclusive
    worst_margin: float
    witness: complex  # location of the worst margin
    witness_value: complex  # Phi at the witness
    radii: tuple
    tail: float  # tail estimate at the worst-margin radius
    nonpositive_ratio_points: int  # samples where Re(z f'/f) <= 0


@dataclass
class MembershipReport:
    spec: ClassSpec
    f_report: SideReport
    g_report: SideReport
    order: int

    @property
    def verdict(self) -> str:
        sides = (self.f_report.verdict, self.g_report.verdict)
        if "fail" in sides:
            return "fail"
        if "inconclusive" in sides:
            return "inconclusive"
        return "pass"


def _margins(values, spec):
    import numpy as np

    if spec.kind == "arg":
        out = np.pi / 2 * float(spec.alpha) - np.abs(np.angle(values))
        out = np.where(values == 0, -np.inf, out)
        return out
    return values.real - float(spec.beta)


def _scan_side(side, phi_series, ratio_series, spec, radii, angles):
    import numpy as np

    theta = 2.0 * np.pi * np.arange(angles) / angles
    # one row per radius, one FFT per row; points only locate the witness
    points = np.array(radii, dtype=float)[:, None] * np.exp(1j * theta)
    values = phi_series.eval_polar(radii, angles)
    margins = _margins(values, spec)
    # at lambda = 1, Phi is the ratio itself (_phi_of_ratio returns it)
    ratio_values = (values if ratio_series is phi_series
                    else ratio_series.eval_polar(radii, angles))
    flagged = int(np.count_nonzero(ratio_values.real <= 0))
    worst = math.inf
    worst_point = 0j
    worst_value = 0j
    worst_tail = 0.0
    all_clear = True
    for row, r in enumerate(radii):
        tail = tail_estimate(phi_series, r)
        idx = int(np.argmin(margins[row]))
        local = float(margins[row, idx])
        if local < worst:
            worst = local
            worst_point = complex(points[row, idx])
            worst_value = complex(values[row, idx])
            worst_tail = tail
        if not np.all(margins[row] > tail):
            all_clear = False
    if worst < -worst_tail:
        verdict = "fail"  # a definite witness: below zero by more than noise
    elif all_clear:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return SideReport(side=side, verdict=verdict, worst_margin=worst,
                      witness=worst_point, witness_value=worst_value,
                      radii=tuple(radii), tail=worst_tail,
                      nonpositive_ratio_points=flagged)


def check_membership(f, spec: ClassSpec, angles=DEFAULT_ANGLES, order=None,
                     g_order=32) -> MembershipReport:
    """Sample the membership condition for f and its truncated inverse.

    ``f`` is a normalized TruncatedSeries on either backend or an
    ``MFoldFunction``, which is expanded to ``order`` and refused when that
    order would drop one of its nonzero coefficients.  A series is
    truncated to ``order``; an order above its own is refused, as a series
    says nothing about the coefficients past its order.

    f is scanned on ``RADII``, its inverse on those capped at 0.7 and at
    a moderate truncation (``g_order``): reversion amplifies cancellation,
    so high float orders are noise, while the capped radius makes modest
    orders accurate.  When f is exact the reversion itself is done exactly.
    Every margin is compared against the geometric tail estimate; margins
    inside the estimate give "inconclusive".
    """
    for name, value in (("angles", angles), ("g_order", g_order)):
        if not (bounds_mod._is_integer(value) and value >= 1):
            raise ValueError(
                f"{name} must be a positive integer, got {value!r}")
    if hasattr(f, "to_series"):
        fn, f = f, f.to_series(order)
        dropped = [k * fn.m + 1 for k in range(1, fn.depth + 1)
                   if k * fn.m + 1 > f.order and fn.coefficient(k) != 0]
        if dropped:
            raise ValueError(
                f"order {f.order} drops the nonzero coefficient of "
                f"z^{dropped[-1]}; membership needs order >= {dropped[-1]}")
    elif order is not None:
        f = f.truncate(order)
    if not f.is_normalized():
        raise ValueError("membership checks need a normalized function")
    if spec.m > 1 and off_shape_exponent(f, spec.m) is not None:
        raise ValueError(f"series is not {spec.m}-fold symmetric")
    g = f.truncate(min(f.order, g_order)).revert().to_float()
    f = f.to_float()
    ratio_f, ratio_g = _log_derivative(f), _log_derivative(g)
    phi_f = _phi_of_ratio(ratio_f, spec.lam)
    phi_g = _phi_of_ratio(ratio_g, spec.lam)
    f_report = _scan_side("f", phi_f, ratio_f, spec, RADII, angles)
    g_report = _scan_side("g", phi_g, ratio_g, spec, _G_RADII, angles)
    return MembershipReport(spec=spec, f_report=f_report, g_report=g_report,
                            order=f.order)
