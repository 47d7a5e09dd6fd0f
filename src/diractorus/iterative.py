"""The solvers' two iteration loops: L-BFGS and GMRES.

``lbfgs`` is the quasi-Newton loop of every ascent and descent (the fibers,
the sphere descent, the ray-quotient start); ``gmres`` solves the Newton
systems of the polish.  Both run on plain numpy arrays, so a solve pays no
per-call wrapping and loads no optimization or sparse-matrix library.

``lbfgs`` follows the unconstrained path of L-BFGS-B (Byrd, Lu, Nocedal and
Zhu, SIAM J. Sci. Comput. 16, 1995) as scipy runs it: the same first step,
line search, memory resets, stop tests and messages, except that a run
also ends converged at the first trial whose gradient meets gtol, which
scipy's tests only once the line search accepts the trial.  Two options
leave that path further, and only the sphere descent sets them.  A run can
start from the pairs (s, y) of an earlier run, kept in a ``_Memory`` that
it updates in place (quasi-Newton pairs reused across related problems:
Morales and Nocedal, SIAM J. Optim. 10, 2000); its first trial is then the
unit step, like every later one.  The descent's fibers share their pairs
this way.  And a run with no pairs can take a first step of length
||g||/|f|, the unit step on log |f|, instead of L-BFGS-B's unit length;
the descent itself starts so.  Without them a run is scipy's up to that
early stop.  Its search direction is the two-loop recursion's (Nocedal,
Math. Comp. 35, 1980), with the recursion's inner products read off the
matrix of the pairs' s_i.y_j (``_Memory``); L-BFGS-B's own compact
matrices give the same direction up to rounding.  The line search is
MINPACK-2's ``dcsrch``/``dcstep`` (More and Thuente, ACM TOMS 20, 1994).

``gmres`` is Saad and Schultz's GMRES (SIAM J. Sci. Stat. Comput. 7, 1986)
from a zero start, without restarts and without a preconditioner: the
polish hands it an operator already scaled so that it is the identity plus
a compact part, on which GMRES converges superlinearly.  It stops on the
relative residual its Givens rotations track, the quantity a Newton
forcing term asks for; its iterates are scipy's ``gmres`` ones up to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
STPMAX = 1e10  # L-BFGS-B's largest step when no variable is bounded
MAXLS = 20  # evaluations in one line search before the memory is reset


@dataclass(frozen=True)
class LbfgsResult:
    """Outcome of ``lbfgs``: the last accepted iterate with its value and gradient."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nfev: int  # calls of ``fun``
    nit: int  # accepted steps
    success: bool  # stopped on one of the two convergence tests
    message: str


def lbfgs(fun, x0, gtol, ftol, maxiter, maxcor, memory=None, relative=False):
    """Minimize ``fun``, which returns (value, gradient), from ``x0`` with L-BFGS.

    The inverse Hessian is that of the two-loop recursion over the last
    ``maxcor`` pairs (s, y) on H0 = (s.y / y.y) I of the newest pair, and the
    identity with no pair (``_Memory``).  ``memory``, when given, is a
    ``_Memory`` of ``maxcor`` pairs that the run starts from and leaves its
    own pairs in, so a run on a nearby problem starts on this one's
    curvature; without it the run starts empty.  With no pair the first step
    along d = -g is min(1/||d||, 1e10), a unit length, or, when
    ``relative``, 1/|f|, a length ||g||/|f|: the unit step of L-BFGS on
    log |f|.  With pairs the first step is 1, as every later one, and the
    line search is ``dcsrch`` with ftol 1e-3, gtol 0.9 and xtol 0.1.  A line
    search that ends in a warning is accepted as the next iterate.  One that
    meets no condition in 20 evaluations, or starts uphill, is undone: the
    memory, a handed one too, is emptied and the step retried along -g
    (with the first-step rule when no step was taken yet), or, with the
    memory already empty, the run stops ``ABNORMAL``.  After each accepted
    step the tests run in L-BFGS-B's order: ``maxiter`` steps; max |g_i| <=
    ``gtol``; f_old - f <= ``ftol`` max(|f_old|, |f|, 1).  Then the pair is
    stored unless s.y <= eps (-g_old.s).  As in scipy, a trial point equal
    to the last evaluated one is not evaluated again.  Unlike scipy, the
    run ends converged at the first trial whose max |g_i| <= ``gtol``,
    taken as a step, before the line search judges it: near a minimum the
    trial's decrease sits at the rounding of f, and a search that rejected
    such a trial made the run's end hang on that rounding.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    xe, ft, gt, nfev, nit = x, f, g, 1, 0
    memory = _Memory(x.size, maxcor) if memory is None else memory
    if np.abs(g).max() <= gtol:
        return LbfgsResult(x, f, g, nfev, nit, True, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")
    while True:
        d = memory.direction(g)
        gd0 = float(g @ d)
        if nit or memory.k:
            stp = 1.0
        elif relative:
            stp = 1.0 / max(abs(f), 1.0 / STPMAX)
        else:
            stp = min(1.0 / math.sqrt(d @ d), STPMAX)
        accepted = False
        if gd0 < 0:
            search = _LineSearch(f, gd0, stp)
            for _ in range(MAXLS):
                xt = x + stp * d
                if not (xt == xe).all():
                    ft, gt = fun(xt)
                    xe, nfev = xt, nfev + 1
                    if np.abs(gt).max() <= gtol:  # converged, whether or not the line search would accept it
                        return LbfgsResult(xt, ft, gt, nfev, nit + 1, True,
                                           "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")
                gd = float(gt @ d)
                stp, task = search.step(stp, ft, gd)
                if task != "FG":
                    accepted = True
                    break
        if not accepted:
            if not memory.k:
                return LbfgsResult(x, f, g, nfev, nit, False, "ABNORMAL: ")
            memory.reset()
            continue
        nit += 1
        f_old, g_old = f, g
        x, f, g = xt, ft, gt
        if nit >= maxiter:
            return LbfgsResult(x, f, g, nfev, nit, False, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
        if np.abs(g).max() <= gtol:
            return LbfgsResult(x, f, g, nfev, nit, True, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return LbfgsResult(x, f, g, nfev, nit, True, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH")
        sy = (gd - gd0) * stp  # s.y with s = stp d, as L-BFGS-B forms it
        if sy > EPS * (-gd0 * stp):
            memory.add(stp * d, g - g_old, sy)


class _Memory:
    """The last ``maxcor`` L-BFGS pairs (s, y), oldest first, and the product -H g they define.

    The two-loop recursion (Nocedal, Math. Comp. 35, 1980) takes alpha_i =
    rho_i s_i.q_(i+1) from the newest pair down, with rho_i = 1/(s_i.y_i),
    then beta_i = rho_i y_i.r_i from the oldest up.  Its inner products are
    read off R, the upper triangle of the matrix of s_i.y_j (i <= j), whose
    inverse is kept as pairs come and go: alpha = R^-1 S g, q = g - Y^T alpha
    and alpha - beta = R^-T (D alpha - gamma Y q), with D the s_i.y_i.  So a
    product is four passes over the stacked pairs, whatever their number,
    instead of four per pair (Byrd, Nocedal and Schnabel, Math. Prog. 63,
    1994, give the same matrices).  The pairs sit in rows ``lo`` to ``lo + k``
    of buffers twice ``maxcor`` long (and R^-1 in that block of its own), so
    dropping the oldest moves nothing.
    """

    def __init__(self, n, maxcor):
        self.maxcor = maxcor
        self.s = np.empty((2 * maxcor, n))
        self.y = np.empty((2 * maxcor, n))
        self.sy = np.empty(2 * maxcor)
        self.rinv = np.zeros((2 * maxcor, 2 * maxcor))  # R^-1 of the pairs in its [lo, lo + k) block
        self.reset()

    def reset(self):
        self.lo, self.k, self.gamma = 0, 0, 1.0

    def add(self, s, y, sy):
        lo, k = self.lo, self.k
        if lo + k == len(self.s):  # move the pairs to the front
            for buf in (self.s, self.y, self.sy):
                buf[:k] = buf[lo:lo + k]
            self.rinv[:k, :k] = self.rinv[lo:lo + k, lo:lo + k]
            lo = self.lo = 0
        new, old = lo + k, slice(lo, lo + k)
        self.rinv[old, new] = (self.rinv[old, old] @ (self.s[old] @ y)) * (-1.0 / sy)
        self.rinv[new, old] = 0.0
        self.rinv[new, new] = 1.0 / sy
        self.s[new], self.y[new], self.sy[new] = s, y, sy
        self.gamma = sy / float(y @ y)
        if k == self.maxcor:  # drop the oldest: the inverse of a trailing block of R is that block of R^-1
            self.lo = lo + 1
        else:
            self.k = k + 1

    def direction(self, g):
        """-H g."""
        if not self.k:
            return -g
        pairs = slice(self.lo, self.lo + self.k)
        s, y, rinv = self.s[pairs], self.y[pairs], self.rinv[pairs, pairs]
        alpha = rinv @ (s @ g)
        q = g - alpha @ y
        c = (self.sy[pairs] * alpha - self.gamma * (y @ q)) @ rinv
        return -(self.gamma * q + c @ s)


class _LineSearch:
    """MINPACK-2's ``dcsrch`` with ftol 1e-3, gtol 0.9, xtol 0.1, on steps in [0, STPMAX].

    Built at stp = 0 with the value ``f0`` and slope ``g0`` < 0 there and
    the first trial step ``stp``; ``step`` takes the value and slope at the
    trial step and returns the next step with "FG" (evaluate there), or the
    same step with "CONV" (sufficient decrease and curvature hold) or "WARN"
    (rounding, the bracket width or a step bound ends the search).
    """

    FTOL, GTOL, XTOL = 1e-3, 0.9, 0.1

    def __init__(self, f0, g0, stp):
        self.brackt, self.stage = False, 1
        self.finit, self.ginit, self.gtest = f0, g0, self.FTOL * g0
        self.width, self.width1 = STPMAX, STPMAX / 0.5
        self.stx, self.fx, self.gx = 0.0, f0, g0
        self.sty, self.fy, self.gy = 0.0, f0, g0
        self.stmin, self.stmax = 0.0, stp + 4.0 * stp

    def step(self, stp, f, g):
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2
        task = "FG"
        if self.brackt and (stp <= self.stmin or stp >= self.stmax):
            task = "WARN"  # rounding errors prevent progress
        if self.brackt and self.stmax - self.stmin <= self.XTOL * self.stmax:
            task = "WARN"  # xtol test satisfied
        if stp == STPMAX and f <= ftest and g <= self.gtest:
            task = "WARN"  # stp = stpmax
        if stp == 0.0 and (f > ftest or g >= self.gtest):
            task = "WARN"  # stp = stpmin
        if f <= ftest and abs(g) <= self.GTOL * -self.ginit:
            task = "CONV"
        if task != "FG":
            return stp, task
        if self.stage == 1 and f <= self.fx and f > ftest:
            # the modified function psi(stp) = f(stp) - f0 - ftol stp g0 until it has a nonpositive value
            gt = self.gtest
            stx, fxm, gxm, sty, fym, gym, stp, self.brackt = _dcstep(
                self.stx, self.fx - self.stx * gt, self.gx - gt, self.sty, self.fy - self.sty * gt, self.gy - gt,
                stp, f - stp * gt, g - gt, self.brackt, self.stmin, self.stmax)
            self.stx, self.fx, self.gx = stx, fxm + stx * gt, gxm + gt
            self.sty, self.fy, self.gy = sty, fym + sty * gt, gym + gt
        else:
            (self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp, self.brackt) = _dcstep(
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy,
                stp, f, g, self.brackt, self.stmin, self.stmax)
        if self.brackt:
            if abs(self.sty - self.stx) >= 0.66 * self.width1:
                stp = self.stx + 0.5 * (self.sty - self.stx)
            self.width1, self.width = self.width, abs(self.sty - self.stx)
            self.stmin, self.stmax = min(self.stx, self.sty), max(self.stx, self.sty)
        else:
            self.stmin, self.stmax = stp + 1.1 * (stp - self.stx), stp + 4.0 * (stp - self.stx)
        stp = min(max(stp, 0.0), STPMAX)
        if self.brackt and (stp <= self.stmin or stp >= self.stmax
                            or self.stmax - self.stmin <= self.XTOL * self.stmax):
            stp = self.stx  # no progress is possible: the best step so far
        return stp, "FG"


def _sqrt(v):
    """sqrt(v), NaN for v < 0 (or NaN) as in the Fortran original, where math.sqrt would raise."""
    return math.sqrt(v) if v >= 0 else math.nan


def _sign(v):
    """-1, 0 or 1: the sign ``dcstep`` compares slopes by."""
    return (v > 0) - (v < 0)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded step from the best step stx, the other end sty and the trial stp."""
    sgnd = _sign(dp) * _sign(dx)
    if fp > fx:  # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + (p / q) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0:  # lower value, slopes of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + (p / q) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # lower value, same sign, the slope decreases in magnitude
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:  # lower value, same sign, the slope does not decrease: cubic step to sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * _sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + (p / q) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _norm(v):
    """np.linalg.norm(v) of a real vector, without its dispatch: the same ddot and square root."""
    return math.sqrt(v.dot(v))


GMRES_MAXITER = 500  # iterations at most, and so rows of the Arnoldi basis


def gmres(matvec, b, rtol):
    """Solve A x = b (``matvec``) by GMRES from x = 0, unrestarted.

    Returns (x, iterations, istop, relres), with one ``matvec`` per
    iteration.  relres is the residual ||b - A x|| / ||b|| that the Givens
    rotations track; GMRES minimizes it over the Krylov space, so it never
    rises.  ``istop`` is the stop code: 1 when relres <= ``rtol``, 6 after
    min(n, ``GMRES_MAXITER``) iterations, and 0 for b = 0.
    The Arnoldi basis is the rows of one array, grown by doubling from 16,
    and each new vector is orthogonalized by classical Gram-Schmidt run
    twice (Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005): two
    matrix-vector products with the basis per pass, whatever the iteration.
    The rotated Hessenberg columns are kept as the columns of the triangular
    factor, and x comes from one back substitution at the stop.
    """
    n = b.size
    beta = _norm(b)
    if beta == 0:
        return np.zeros(n), 0, 0, 0.0
    maxiter = min(n, GMRES_MAXITER)
    basis = np.empty((min(16, maxiter), n))
    basis[0] = b / beta
    cols, cs, sn, g = [], [], [], [beta]  # g: the rotated beta e1; |g[-1]| is the residual norm
    itn, istop = 0, 0
    while istop == 0:
        w = matvec(basis[itn])
        v = basis[:itn + 1]
        h = v @ w
        w = w - h @ v
        h2 = v @ w
        w -= h2 @ v
        h = (h + h2).tolist()
        hnext = _norm(w)
        for i in range(itn):  # the earlier rotations
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        gamma = math.hypot(h[itn], hnext)
        cs.append(h[itn] / gamma)
        sn.append(hnext / gamma)
        h[itn] = gamma
        cols.append(np.array(h))
        g.append(-sn[itn] * g[itn])
        g[itn] *= cs[itn]
        itn += 1
        relres = abs(g[itn]) / beta
        if relres <= rtol:
            istop = 1
        elif itn >= maxiter:
            istop = 6
        else:
            if itn == len(basis):
                basis = np.concatenate([basis, np.empty((min(itn, maxiter - itn), n))])
            basis[itn] = w * (1.0 / hnext)
    y = np.array(g[:itn])
    for j in range(itn - 1, -1, -1):  # back substitution, column by column
        y[j] /= cols[j][j]
        y[:j] -= y[j] * cols[j][:j]
    return y @ basis[:itn], itn, istop, relres
