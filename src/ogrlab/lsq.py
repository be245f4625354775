"""Bounded nonlinear least squares by the trust-region reflective method.

The method is Branch, Coleman and Li's (SIAM J. Sci. Comput. 21(1), 1999).
This module ports the one path of scipy 1.17.1's
``least_squares(method="trf")`` that the cell model uses: bounds, a dense
Jacobian, the exact SVD-based subproblem, linear loss and unit ``x_scale``
(whose products by 1.0 are exact and are left out).  Operations run in
scipy's order, so ``x``, ``fun``, ``jac``, ``nfev`` and ``status`` are
bit-identical to scipy's.  The SVD is the LAPACK ``gesdd`` call that
scipy.linalg.svd makes, with scipy's ``lwork`` and checks but without its
per-call wrapper: numpy.linalg.svd links another OpenBLAS build, whose last
bits differ.  ``gesdd`` is taken from scipy's compiled LAPACK extension,
loaded from its file without running ``scipy/linalg/__init__.py``: that
package's import pulls in scipy's array-API layer and with it numpy.testing,
numpy.f2py, numpy.random and unittest, about 0.25 s of every ``import
ogrlab`` for one routine that loads in a few milliseconds.

Derived from scipy/optimize/_lsq (least_squares.py, trf.py, common.py) of
scipy 1.17.1, under the license below.

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""
from __future__ import annotations

import os
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from math import copysign
from types import SimpleNamespace

import numpy as np
import scipy
from numpy.linalg import LinAlgError  # the class scipy.linalg raises too

EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def _load_flapack():
    """scipy's LAPACK extension that get_lapack_funcs(..., ilp64="preferred")
    picks for float64 (the 64-bit-integer build where scipy ships one), and
    the integer type of its arguments.  Loaded at the first solve, not at
    import: it loads scipy's OpenBLAS, whose worker threads spin for a while
    after they start and share the CPUs with whatever runs next."""
    path = [os.path.join(scipy.__path__[0], "linalg")]
    for name, int_dtype in (("_flapack_64", np.int64), ("_flapack", np.intc)):
        spec = PathFinder.find_spec("scipy.linalg." + name, path)
        if spec is not None:  # CPython lists it in sys.modules, for scipy.linalg to reuse
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module, np.dtype(int_dtype)
    raise ImportError(f"scipy's LAPACK extension scipy.linalg._flapack is not in {path[0]}")


def _norm(v):
    return np.sqrt(v.dot(v))


@lru_cache(maxsize=None)
def _gesdd_lwork(m, n):
    """scipy.linalg.lapack._compute_lwork(gesdd_lwork, m, n, compute_uv=1,
    full_matrices=0) for float64: the workspace scipy.linalg.svd asks for."""
    flapack, int_dtype = _load_flapack()
    work, info = flapack.dgesdd_lwork(m, n, compute_uv=1, full_matrices=0)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork = int(work.real)
    if not 0 <= lwork <= np.iinfo(int_dtype).max:
        raise ValueError(f"Too large work array required -- computation cannot be "
                         f"performed with standard {8 * int_dtype.itemsize}-bit LAPACK.")
    return lwork


def svd(a):
    """scipy.linalg.svd(a, full_matrices=False) of a float64 matrix: the
    same gesdd call, workspace and checks, without the per-call wrapper."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    u, s, vt, info = _load_flapack()[0].dgesdd(a, compute_uv=1, lwork=_gesdd_lwork(*a.shape),
                                               full_matrices=0, overwrite_a=0)
    if info > 0:
        raise LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt


def least_squares(fun, x0, jac, *, bounds, ftol, xtol, gtol, max_nfev):
    """Minimize 0.5 * |fun(x)|^2 over bounds[0] <= x <= bounds[1] as
    scipy.optimize.least_squares(method="trf") does with these arguments.

    The result has x, fun (a copy) and jac there, nfev, scipy's status
    (0: max_nfev reached, 1: gtol, 2: ftol, 3: xtol, 4: ftol and xtol)
    and success (status > 0).
    """
    x0 = np.atleast_1d(x0).astype(float)
    lb, ub = (np.full(x0.shape, b, dtype=float) for b in bounds)
    if not ((x0 >= lb) & (x0 <= ub)).all():
        raise ValueError("Initial guess is outside of provided bounds")
    x = make_strictly_feasible(x0, lb, ub, rstep=1e-10)
    f, J = fun(x), jac(x)
    if not np.isfinite(f).all():
        raise ValueError("Residuals are not finite in the initial point.")
    m, n = f.size, x.size
    if J.shape != (m, n):
        raise ValueError(f"The return value of `jac` has wrong shape: "
                         f"expected {(m, n)}, actual {J.shape}.")
    nfev, cost, g = 1, 0.5 * np.dot(f, f), J.T.dot(f)
    f_augmented, J_augmented = np.zeros(m + n), np.zeros((m + n, n))
    J_h, diag_root = J_augmented[:m], J_augmented[m:].reshape(-1)[::n + 1]  # views into it
    finite = np.isfinite(lb), np.isfinite(ub)
    v, dv = _cl_scaling_vector(x, g, lb, ub, *finite)  # kept up to date with x and g
    Delta = _norm(x / v**0.5) or 1.0  # the trust-region radius
    alpha, status = 0.0, None  # alpha: the Levenberg-Marquardt parameter
    while True:
        g_norm = np.abs(g * v).max()
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        d, diag_h = v**0.5, g * dv  # the scaled ("hat") variables are x / d
        g_h = d * g
        f_augmented[:m] = f
        J_h[:] = J * d
        diag_root[:] = diag_h**0.5  # the rest of J_augmented[m:] stays 0
        U, s, V = svd(J_augmented)
        V, uf = V.T, U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # step-back ratio from the bounds
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta)
            x_new = x + step
            if not ((x_new > lb) & (x_new < ub)).all():  # else left as it is
                x_new = make_strictly_feasible(x_new, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # update_tr_radius
            ratio = (actual_reduction / predicted_reduction if predicted_reduction > 0
                     else 1 if predicted_reduction == actual_reduction == 0 else 0)
            Delta_new = (0.25 * step_h_norm if ratio < 0.25 else 2.0 * Delta
                         if ratio > 0.75 and step_h_norm > 0.95 * Delta else Delta)
            # check_termination
            ftol_met = actual_reduction < ftol * cost and ratio > 0.25
            xtol_met = _norm(step) < xtol * (xtol + _norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T.dot(f)
            v, dv = _cl_scaling_vector(x, g, lb, ub, *finite)
    status = status or 0
    return SimpleNamespace(x=x, fun=f.copy(), jac=J, nfev=nfev,
                           status=status, success=status > 0)


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step p (cut back at the first bound it
    crosses), its reflection off that bound, and the anti-gradient step."""
    if ((x + p >= lb) & (x + p <= ub)).all():
        return p, p_h, -_evaluate_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_size_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # intersect_trust_region: the t > 0 with |p_h + t * r_h| = Delta
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - Delta**2
    if a == 0 or c > 0:
        raise ValueError("the reflected step starts outside the trust region")
    q = -(b + copysign(np.sqrt(b*b - a*c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    r_stride_l, r_stride_u = 0, -1
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    r_value = np.inf
    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    p *= theta  # now strictly interior
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _cl_scaling_vector(x, g, lb, ub, finite_lb, finite_ub):
    """Coleman-Li scaling v, the distance to the bound the anti-gradient
    points at (else 1), and its derivative dv."""
    upper, lower = (g < 0) & finite_ub, (g > 0) & finite_lb
    return (np.where(upper, ub - x, np.where(lower, x - lb, 1.0)),
            np.where(upper, -1.0, np.where(lower, 1.0, 0.0)))


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha):
    """More's trust-region step p, |p| <= Delta, and its Levenberg-Marquardt
    parameter, from one SVD J = U diag(s) V^T and uf = U^T f."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -(suf**2 / denom**3).sum() / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)  # the Gauss-Newton step
        if _norm(p) <= Delta:
            return p, 0.0
    alpha_upper, alpha_lower = _norm(suf) / Delta, 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / _norm(p)  # norm Delta, so that p cannot end outside the region
    return p, alpha


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """a, b (and c, given s0) of a t^2 + b t + c = q(s0 + t s), for the
    model q(y) = 0.5 y^T (J^T J + diag) y + g^T y."""
    v = J.dot(s)
    a, b = 0.5 * (np.dot(v, v) + np.dot(s * diag, s)), np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b = b + np.dot(u, v) + np.dot(s0 * diag, s)
    return a, b, 0.5 * np.dot(u, u) + np.dot(g, s0) + 0.5 * np.dot(s0 * diag, s0)


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """The minimum point and value of a t^2 + b t + c on [lb, ub]."""
    t = [lb, ub]
    if a != 0 and lb < -0.5 * b / a < ub:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = y.argmin()
    return t[i], y[i]


def _evaluate_quadratic(J, g, s, diag):
    Js = J.dot(s)
    return 0.5 * (np.dot(Js, Js) + np.dot(s * diag, s)) + np.dot(s, g)


def _step_size_to_bound(x, s, lb, ub):
    """The least t >= 0 with x + t s on a bound, and where it gets there."""
    with np.errstate(all="ignore"):  # s = 0 is masked out
        steps = np.where(s != 0, np.maximum((lb - x) / s, (ub - x) / s), np.inf)
    min_step = steps.min()
    return min_step, (steps == min_step) & (s != 0)


def make_strictly_feasible(x, lb, ub, rstep):
    """x moved off the bounds: to the next float (rstep=0), or out to a
    relative distance rstep; to the midpoint where the bounds are tighter."""
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
        to_lb, to_ub = np.nextafter(lb, ub), np.nextafter(ub, lb)
    else:
        lower_step = rstep * np.maximum(1, np.abs(lb))
        upper_step = rstep * np.maximum(1, np.abs(ub))
        lower = np.isfinite(lb) & (x - lb <= np.minimum(ub - x, lower_step))
        upper = np.isfinite(ub) & (ub - x <= np.minimum(x - lb, upper_step))
        to_lb, to_ub = lb + lower_step, ub - upper_step
    x_new = np.where(upper, to_ub, np.where(lower, to_lb, x))
    return np.where((x_new < lb) | (x_new > ub), 0.5 * (lb + ub), x_new)
