import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import svd as scipy_svd
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs
from scipy.optimize import least_squares as scipy_least_squares

import ogrlab
from ogrlab import lsq
from ogrlab.forms_points import QuadraticForm
from ogrlab.orthopositroids import (
    _ResidualModel,
    bridge_decomposition,
    enumerate_orthopositroids,
)

# the settings cell_dim_in_ogr_numeric pins
PINNED = dict(bounds=(1e-3, 1e3), xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=300)


def oracle_cases():
    """Starts drawn as cell_dim_in_ogr_numeric draws them: 4 on every cell
    of (2,5) and every 3rd of (2,6), 2 on every 2nd cell of (3,6)."""
    for k, n, step, starts in [(2, 5, 1, 4), (2, 6, 3, 4), (3, 6, 2, 2)]:
        cells = sorted(enumerate_orthopositroids(k, n), key=lambda p: p.sort_key())
        for idx, pos in list(enumerate(cells))[::step]:
            decomp = bridge_decomposition(pos.dperm)
            model = _ResidualModel(decomp, QuadraticForm.alternating(n))
            rng = np.random.default_rng(idx)
            for _ in range(starts):
                yield model, np.exp(rng.uniform(np.log(0.3), np.log(3.0), decomp.dim))


def step_kinds(monkeypatch):
    """Count the steps lsq selects: interior, truncated, reflected or
    anti-gradient (the last two told apart by the direction of the step)."""
    kinds = Counter()
    select = lsq._select_step

    def spy(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
        inside = np.all((x + p >= lb) & (x + p <= ub))
        step, step_h, value = select(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
        if step_h is p_h:
            kinds["interior" if inside else "truncated"] += 1
        elif np.allclose(step_h * np.sqrt(g_h @ g_h), -g_h * np.sqrt(step_h @ step_h),
                         rtol=1e-9, atol=0):
            kinds["anti-gradient"] += 1
        else:
            kinds["reflected"] += 1
        return step, step_h, value

    monkeypatch.setattr(lsq, "_select_step", spy)
    return kinds


def test_least_squares_is_bitwise_scipys_trf(monkeypatch):
    kinds = step_kinds(monkeypatch)
    for model, x0 in oracle_cases():
        ours = lsq.least_squares(model.residual, x0, model.jacobian, **PINNED)
        ref = scipy_least_squares(model.residual, x0, jac=model.jacobian,
                                  method="trf", **PINNED)
        assert np.array_equal(ours.x, ref.x)
        assert np.array_equal(ours.fun, ref.fun)
        assert np.array_equal(ours.jac, ref.jac)
        assert (ours.nfev, ours.status, ours.success) == (ref.nfev, ref.status, ref.success)
        kinds["capped"] += ours.status == 0 and ours.nfev == PINNED["max_nfev"]
    # the cases reach every branch of the step selection and the nfev cap
    assert all(kinds[kind] > 0 for kind in
               ("interior", "truncated", "reflected", "anti-gradient", "capped")), kinds


def test_fun_is_a_copy():
    def fun(x):
        return residual

    residual = np.array([1.0, 2.0])
    sol = lsq.least_squares(fun, [1.0], lambda x: np.zeros((2, 1)), **PINNED)
    assert np.array_equal(sol.fun, residual) and sol.fun is not residual


def line(x):
    return np.array([x[0] - 2.0, 0.5 * x[0]])


def line_jac(x):
    return np.array([[1.0], [0.5]])


def test_refuses_a_start_outside_the_bounds():
    with pytest.raises(ValueError, match="outside"):
        lsq.least_squares(line, [2e3], line_jac, **PINNED)


def test_refuses_a_residual_not_finite_at_the_start():
    with pytest.raises(ValueError, match="not finite"):
        lsq.least_squares(lambda x: np.array([np.nan, 1.0]), [1.0], line_jac, **PINNED)


def test_refuses_a_jacobian_of_the_wrong_shape():
    with pytest.raises(ValueError, match="wrong shape"):
        lsq.least_squares(line, [1.0], lambda x: np.ones((2, 2)), **PINNED)


def test_strictly_feasible_moves_off_the_bounds():
    lb, ub = np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0])
    x = np.array([1.0, 1.5, 2.0])
    assert np.array_equal(lsq.make_strictly_feasible(x, lb, ub, rstep=0),
                          [np.nextafter(1.0, 2.0), 1.5, np.nextafter(2.0, 1.0)])
    assert np.array_equal(lsq.make_strictly_feasible(x, lb, ub, rstep=1e-10),
                          [1.0 + 1e-10, 1.5, 2.0 - 2e-10])


def test_tight_bounds_start_at_the_midpoint():
    # bounds closer than the start's relative step 1e-10 put the start
    # halfway between them, as in scipy
    lb, ub = np.array([1.0]), np.array([1.0 + 1e-12])
    assert np.array_equal(lsq.make_strictly_feasible(lb, lb, ub, rstep=1e-10),
                          0.5 * (lb + ub))
    settings = dict(PINNED, bounds=(lb, ub))
    ours = lsq.least_squares(line, lb, line_jac, **settings)
    ref = scipy_least_squares(line, lb, jac=line_jac, method="trf", **settings)
    assert np.array_equal(ours.x, ref.x) and (ours.nfev, ours.status) == (ref.nfev, ref.status)


def test_import_does_not_load_scipy_optimize():
    # nor scipy.linalg, whose package import loads scipy's array-API layer,
    # nor scipy's LAPACK extension, which loads scipy's OpenBLAS, whose
    # spinning worker threads would slow every command that never solves
    src = os.path.dirname(os.path.dirname(ogrlab.__file__))
    code = ("import sys, ogrlab, ogrlab.acceptance, ogrlab.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy._lib._array_api', "
            "'scipy.linalg._flapack', 'scipy.linalg._flapack_64') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "[]"


def test_gesdd_is_scipys_routine_with_scipys_workspace():
    ref, ref_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=np.float64,
                                      ilp64="preferred")
    flapack, int_dtype = lsq._load_flapack()
    assert flapack.__name__ == "scipy.linalg._" + ref.module_name
    assert int_dtype == ref.int_dtype
    assert lsq.LinAlgError is scipy.linalg.LinAlgError
    # every augmented Jacobian shape (m + n, n) the sweep factors at (2,4) to
    # (3,6), and a few edge shapes
    shapes = {(1, 1), (7, 2), (4, 4), (2, 5)}
    for k, n in [(2, 4), (2, 5), (2, 6), (3, 6)]:
        form = QuadraticForm.alternating(n)
        for pos in enumerate_orthopositroids(k, n):
            decomp = bridge_decomposition(pos.dperm)
            if decomp.dim:
                shapes.add((_ResidualModel(decomp, form).n_quadrics + decomp.dim, decomp.dim))
    assert len(shapes) > 10
    for m, n in shapes:
        assert lsq._gesdd_lwork(m, n) == _compute_lwork(ref_lwork, m, n, compute_uv=1,
                                                        full_matrices=0)


def test_svd_is_scipys(monkeypatch):
    # every augmented matrix the oracle cases factor, and a rank-deficient
    # one with a zero diagonal block
    checked = []
    svd = lsq.svd

    def spy(a):
        ours = svd(a)
        ref = scipy_svd(a, full_matrices=False)
        assert all(np.array_equal(x, y) for x, y in zip(ours, ref, strict=True))
        checked.append(a.shape)
        return ours

    monkeypatch.setattr(lsq, "svd", spy)
    for model, x0 in oracle_cases():
        lsq.least_squares(model.residual, x0, model.jacobian, **PINNED)
    assert len(checked) > 2000
    rank_one = np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0])
    a = np.vstack([rank_one, np.diag([0.0, 0.0, 0.25])])
    ours, ref = svd(a), scipy_svd(a, full_matrices=False)
    assert all(np.array_equal(x, y) for x, y in zip(ours, ref, strict=True))
    assert ours[1][-1] < 1e-15 * ours[1][0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd_refuses_what_scipys_refuses(bad):
    a = np.eye(3)
    a[1, 2] = bad
    for svd in (lsq.svd, lambda a: scipy_svd(a, full_matrices=False)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            svd(a)


def identity(x):
    return x


def identity_jac(x):
    return np.eye(2)


def test_trial_point_on_a_bound_is_moved_off_it(monkeypatch):
    # the minimum of |x|^2 is at the lower bound, and one trial step lands
    # exactly on it
    rsteps = []
    feasible = lsq.make_strictly_feasible

    def spy(x, lb, ub, rstep):
        rsteps.append(rstep)
        return feasible(x, lb, ub, rstep)

    monkeypatch.setattr(lsq, "make_strictly_feasible", spy)
    ours = lsq.least_squares(identity, [1.0, 2.0], identity_jac, **PINNED)
    ref = scipy_least_squares(identity, [1.0, 2.0], jac=identity_jac, method="trf",
                              **PINNED)
    assert 0 in rsteps
    assert np.array_equal(ours.x, ref.x) and np.array_equal(ours.fun, ref.fun)
    assert (ours.nfev, ours.status) == (ref.nfev, ref.status)
