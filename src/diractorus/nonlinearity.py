"""Subcritical nonlinearities f(s) and their primitives F(s) = int_0^s f(t) t dt.

The equation couples a subcritical term f(|psi|) psi with the fixed critical
term |psi|^(2* - 2) psi, 2* = 2m/(m-1).  Built-in kinds:

    zero         f = 0 (the pure critical-power problem; alias "bnd")
    power        f(s) = alpha s^(p-2),  2 < p < 2*,   F(s) = alpha s^p / p
    log-critical F(s) = alpha s^(2*) / ln(1 + s^q),  0 < q <= 2/(m-1)
    custom       user-supplied vectorized f, F

The hypothesis checker samples the growth/monotonicity conditions used by the
solvers and reports verdicts instead of raising, so ill-behaved custom
evaluators surface as failed hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonlinearityError(ValueError):
    """Invalid nonlinearity parameters."""


def critical_exponent(m):
    """2* = 2m/(m-1)."""
    return 2.0 * m / (m - 1.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluators (f, F) with parameters and hypothesis metadata."""

    kind: str
    m: int
    params: dict = field(default_factory=dict)
    _f: object = None
    _F: object = None

    @property
    def two_star(self):
        return critical_exponent(self.m)

    def f(self, s):
        """Coefficient f(s) >= 0 of the subcritical term."""
        return self._f(np.asarray(s, dtype=float))

    def F(self, s):
        """Primitive F(s) = int_0^s f(t) t dt."""
        return self._F(np.asarray(s, dtype=float))

    def g(self, s):
        """Full coefficient g(s) = f(s) + s^(2*-2)."""
        s = np.asarray(s, dtype=float)
        return self.g_of_rho(s * s, s)

    def g_prime(self, s):
        """g'(s): the critical part exactly, plus f'(s) by a central difference."""
        s = np.asarray(s, dtype=float)
        out = (self.two_star - 2.0) * s ** (self.two_star - 3.0)
        return out if self.is_zero() else out + self._f_prime(s)

    def G(self, s):
        """Full primitive G(s) = F(s) + s^(2*)/2*."""
        s = np.asarray(s, dtype=float)
        return self.G_of_rho(s * s, s)

    # The energy kernel works on rho = s^2 = |u|^2, the sum of squares it
    # forms anyway: s^(2*) = rho^(m/(m-1)) and s^(2*-2) = rho^(1/(m-1)), which
    # at m = 2 are numpy's fast exponents 2 and 1.  The modulus s = sqrt(rho)
    # is taken only for f, F or a negative power; ``s`` passes it when the
    # caller has it.  The zero kind adds no f or F term at all.

    def G_of_rho(self, rho, s=None):
        """G(s) at s = sqrt(rho)."""
        out = rho ** (self.m / (self.m - 1.0)) / self.two_star
        return out if self.is_zero() else out + self._F(np.sqrt(rho) if s is None else s)

    def g_of_rho(self, rho, s=None):
        """g(s) at s = sqrt(rho)."""
        out = rho ** (1.0 / (self.m - 1.0))
        return out if self.is_zero() else out + self._f(np.sqrt(rho) if s is None else s)

    def radial_of_rho(self, rho):
        """g'(s)/s at s = sqrt(rho) > 0: the weight of the radial part of the second variation.

        The critical part is (2* - 2) rho^((2-m)/(m-1)), the constant 2 at
        m = 2; f'(s) is ``g_prime``'s central difference.
        """
        out = (self.two_star - 2.0) * rho ** ((2.0 - self.m) / (self.m - 1.0))
        if self.is_zero():
            return out
        s = np.sqrt(rho)
        return out + self._f_prime(s) / s

    def _f_prime(self, s):
        h = 1e-7 * np.maximum(s, 1e-3)
        return (self._f(s + h) - self._f(np.maximum(s - h, 0.0))) / (2.0 * h)

    def is_zero(self):
        return self.kind == "zero"

    def consistency_residual(self, s_min=1e-3, s_max=1e3, n=40):
        """Max relative error of F'(s) = f(s) s on a log-spaced grid."""
        s = np.geomspace(s_min, s_max, n)
        h = 1e-5 * s
        dF = (self.F(s + h) - self.F(s - h)) / (2.0 * h)
        target = self.f(s) * s
        scale = np.maximum(np.abs(target), 1e-30)
        return float(np.max(np.abs(dF - target) / scale))


def make_nonlinearity(kind, m, alpha=None, p=None, q=None, f=None, F=None):
    """Construct a built-in or custom nonlinearity for dimension m."""
    if m < 2:
        raise NonlinearityError(f"dimension must be >= 2, got {m}")
    two_star = critical_exponent(m)
    kind = kind.lower()
    if kind in ("zero", "bnd"):
        return Nonlinearity("zero", m, {}, _f=lambda s: np.zeros_like(s), _F=lambda s: np.zeros_like(s))
    if kind == "power":
        if alpha is None or p is None:
            raise NonlinearityError("power nonlinearity needs alpha and p")
        if not (alpha > 0):
            raise NonlinearityError(f"alpha must be positive, got {alpha}")
        if not (2.0 < p < two_star):
            raise NonlinearityError(
                f"power exponent must satisfy 2 < p < 2* = {two_star}, got p={p}"
            )
        a, pp = float(alpha), float(p)
        return Nonlinearity(
            "power",
            m,
            {"alpha": a, "p": pp},
            _f=lambda s: a * s ** (pp - 2.0),
            _F=lambda s: (a / pp) * s**pp,
        )
    if kind in ("log-critical", "logcrit"):
        if alpha is None or q is None:
            raise NonlinearityError("log-critical nonlinearity needs alpha and q")
        if not (alpha > 0):
            raise NonlinearityError(f"alpha must be positive, got {alpha}")
        if not (0.0 < q <= 2.0 / (m - 1.0)):
            raise NonlinearityError(
                f"log exponent must satisfy 0 < q <= 2/(m-1) = {2.0 / (m - 1.0)}, got q={q}"
            )
        return _make_log_critical(m, float(alpha), float(q))
    if kind == "custom":
        if f is None or F is None:
            raise NonlinearityError("custom nonlinearity needs both f and F evaluators")
        return Nonlinearity("custom", m, {}, _f=lambda s: np.asarray(f(s), dtype=float),
                            _F=lambda s: np.asarray(F(s), dtype=float))
    raise NonlinearityError(f"unknown nonlinearity kind {kind!r}")


def _make_log_critical(m, alpha, q):
    two_star = critical_exponent(m)

    def F(s):
        s = np.maximum(s, 0.0)
        out = np.zeros_like(s)
        tiny = s < 1e-8
        u = s**q
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = alpha * s**two_star / np.log1p(u)
        # ln(1+u) ~ u for small u, so F ~ alpha s^(2*-q) (1 + u/2).
        series = alpha * s ** (two_star - q) * (1.0 + 0.5 * u)
        out = np.where(tiny, series, direct)
        return np.where(s == 0.0, 0.0, out)

    def f(s):
        s = np.maximum(s, 0.0)
        u = s**q
        tiny = s < 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log1p(u)
            direct = (
                alpha
                * s ** (two_star - 2.0)
                * (two_star * lg - q * u / (1.0 + u))
                / lg**2
            )
        series = alpha * (two_star - q) * s ** (two_star - q - 2.0) + 0.5 * alpha * two_star * s ** (
            two_star - 2.0
        )
        out = np.where(tiny, series, direct)
        return np.where(s == 0.0, 0.0, out)

    return Nonlinearity("log-critical", m, {"alpha": alpha, "q": q}, _f=f, _F=F)


def radial_integral(f, breaks, scale):
    """sum_i int_(breaks[i])^(breaks[i+1]) f(r) dr for a vectorized f; the last break may be inf.

    Each piece is one 64-node Gauss-Legendre rule in theta = arctan(r / scale),
    dr = scale sec^2(theta) dtheta, which maps [0, inf) onto [0, pi/2) and
    spreads the nodes over the scale where the radial profiles bend.  A break
    belongs wherever f is only piecewise smooth.  The nodes are built on each
    call (1-2 ms), so ``import diractorus`` does no quadrature work.
    """
    edges = np.arctan(np.asarray(breaks, dtype=float) / scale)
    # nodes and weights on [-1, 1], scaled to each piece's half-width
    x, w = (0.5 * np.diff(edges)[:, None] * v for v in np.polynomial.legendre.leggauss(64))
    theta = (x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    return float(np.dot(f(scale * np.tan(theta)), w.ravel() * scale / np.cos(theta) ** 2))


def f5_integral(nl, rho):
    """The (f_5) quantity rho^(m-1) / |ln rho|^max(3-m, 0) * int_0^(1/rho) F(...) r^(m-1) dr."""
    m = nl.m
    ex = 0.5 * (m - 1.0)
    val = radial_integral(lambda r: nl.F(rho**-ex / (1.0 + r * r) ** ex) * r ** (m - 1.0), (0.0, 1.0 / rho), 1.0)
    return rho ** (m - 1.0) / abs(np.log(rho)) ** max(3.0 - m, 0.0) * val


RHO_SWEEP = (0.1, 0.05, 0.02, 0.01, 0.005)  # concentration scales of the (f5) divergence check


def check_hypotheses(nl):
    """Sampled verdicts for the structural hypotheses on (f, F).

    Verdicts, not exceptions: a custom evaluator that is negative somewhere
    simply fails (f1).  The (f5) check detects a divergence trend of the
    scaled concentration integral along the rho sweep RHO_SWEEP.
    """
    m = nl.m
    ts = nl.two_star
    s = np.geomspace(1e-6, 1e6, 241)
    fs = nl.f(s)
    report = {}

    report["f1"] = bool(abs(float(nl.f(0.0))) <= 1e-12 and np.all(fs >= -1e-12))

    ratio2 = fs / s ** (ts - 2.0)
    tail2 = ratio2[s >= 1e4]
    report["f2"] = bool(tail2[-1] <= max(1e-3, 0.02 * (ratio2.max() + 1e-30)))

    incr = fs + s ** (ts - 2.0)
    report["f3"] = bool(np.all(np.diff(incr) > 0))

    Fs = nl.F(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio4 = np.where(Fs > 0, fs * s / np.maximum(Fs, 1e-300) ** ((m + 1.0) / (2.0 * m)), 0.0)
    tail4 = ratio4[s >= 1e4]
    report["f4"] = bool(tail4[-1] <= max(1e-3, 0.02 * (ratio4.max() + 1e-30)))

    vals = np.array([f5_integral(nl, r) for r in RHO_SWEEP])
    report["f5_values"] = vals.tolist()
    if np.any(vals <= 0):
        report["f5"] = False
    else:
        # Divergence trend: strictly increasing with a positive terminal
        # log-log slope against 1/rho.
        slope = (np.log(vals[-1]) - np.log(vals[-2])) / (
            np.log(RHO_SWEEP[-2]) - np.log(RHO_SWEEP[-1])
        )
        report["f5"] = bool(np.all(np.diff(vals) > 0) and slope > 0.02)

    # Monotone-combination properties of g, G used by the uniqueness arguments.
    gg = nl.g(s) * s**2 - 2.0 * nl.G(s)
    report["remark_i"] = bool(np.all(np.diff(gg) > 0))
    s0_mask = s >= 1.0
    report["remark_ii"] = bool(np.min(gg[s0_mask] / s[s0_mask] ** 2) > 0)

    report["all_f1_f3"] = report["f1"] and report["f2"] and report["f3"]
    return report
