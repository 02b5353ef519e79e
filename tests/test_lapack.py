"""The 4x4 solves call LAPACK directly, through the compiled wrappers of
scipy that thetaflow loads once: LU (``dgesv``) for the Gram system of the
tangent projection, least squares (``dgelsd``) for its fallback and for the
Schur complement of the Newton direction, and an SVD (``dgesdd``) for the
projection Jacobian and the multiplier system.

Each must be bitwise scipy.linalg's call of the same routine, and agree
with numpy.linalg to 1e-13 on well-conditioned systems.  numpy calls the
same routines, but numpy and scipy may link different LAPACK builds, so the
two libraries are not compared bit for bit.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lstsq, lu_factor, lu_solve, svd

from thetaflow.app.presets import preset_symmetric_lens
from thetaflow.energy import PackedLayout
from thetaflow.multipliers import solve_capped
from thetaflow.scheme import _lstsq, _tangent_project

# np.linalg.lstsq's cutoff at rcond=None for a 4x4 matrix
LSTSQ_COND = 4.0 * np.finfo(float).eps


def _orthogonal(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q * np.sign(np.diag(r))


def _systems(rng, count=300):
    """(kind, matrix, rhs), each matrix scaled by 10^(-6..6): "general"
    with singular values in [1, 10], "gram" symmetric positive definite with
    eigenvalues in [1, 10], and "schur" symmetric positive definite with
    one eigenvalue 1e-10 to 1e-7, nearly rank-deficient as the Schur
    complement of the Newton direction is near a straight bar."""
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        u = _orthogonal(rng)
        sig = rng.uniform(1.0, 10.0, size=4)
        yield "general", scale * (u * sig) @ _orthogonal(rng).T, rng.normal(size=4)
        yield "gram", scale * (u * sig) @ u.T, rng.normal(size=4)
        sig[rng.integers(4)] = 10.0 ** rng.uniform(-10.0, -7.0)
        yield "schur", scale * (u * sig) @ u.T, rng.normal(size=4)


def _assert_rel_close(got, expect, rel=1e-13):
    assert np.max(np.abs(got - expect)) <= rel * np.max(np.abs(expect))


def _non_finite(rng):
    """Dense seeded 4x4 matrices with one NaN entry.  inf entries are left
    out: on them LAPACK's SVD (numpy's and scipy's alike) can fail to
    return, so a regression would hang here; a subprocess with a timeout
    tests them instead."""
    for _ in range(5):
        a = rng.normal(size=(4, 4))
        a[tuple(rng.integers(4, size=2))] = np.nan
        yield a


def _gram_solver(monkeypatch):
    """(solve, shape): solve(gram, grad) gives the coef of _tangent_project
    with its Gram matrix replaced by ``gram``, and the right-hand side it
    solved; shape is that of a packed gradient."""
    layout, theta = PackedLayout.of(preset_symmetric_lens(nodes_per_unit=10))
    tangents = layout.tangents(theta)
    blocks = layout.moments(tangents, tangents)

    def solve(gram, grad):
        monkeypatch.setattr(PackedLayout, "moment_products",
                            lambda *args: gram)
        rhs = layout.E @ layout.products(tangents, grad)
        return _tangent_project(layout, tangents, blocks, grad)[1], rhs

    return solve, theta.shape


def test_gram_lu_solve_equals_scipy_and_numpy(rng, monkeypatch):
    solve, shape = _gram_solver(monkeypatch)
    for kind, gram, _ in _systems(rng):
        coef, rhs = solve(gram, rng.normal(size=shape))
        assert np.array_equal(coef, lu_solve(lu_factor(gram), rhs))
        if kind != "schur":
            _assert_rel_close(coef, np.linalg.solve(gram, rhs))


def test_least_squares_equals_scipy_and_numpy(rng):
    for kind, a, rhs in _systems(rng):
        x = _lstsq(a, rhs)
        want, *_ = lstsq(a, rhs, cond=LSTSQ_COND, lapack_driver="gelsd")
        assert x.shape == (4,)
        assert np.array_equal(x, want)
        if kind != "schur":
            _assert_rel_close(x, np.linalg.lstsq(a, rhs, rcond=None)[0])


def test_capped_svd_solve_equals_scipy_and_numpy(rng):
    # the solve multiplies numpy's C-ordered factors, while scipy returns
    # them in Fortran order
    for kind, a, rhs in _systems(rng):
        x = solve_capped(a, rhs, "test matrix")
        u, s, vt = map(np.ascontiguousarray, svd(a, lapack_driver="gesdd"))
        assert np.array_equal(x, vt.T @ ((u.T @ rhs) / s))
        if kind != "schur":
            u, s, vt = np.linalg.svd(a)
            _assert_rel_close(x, vt.T @ ((u.T @ rhs) / s))


def test_non_finite_matrices_raise_numpys_errors(rng, monkeypatch):
    solve, shape = _gram_solver(monkeypatch)
    for a in _non_finite(rng):
        with pytest.raises(np.linalg.LinAlgError,
                           match="^SVD did not converge$"):
            solve_capped(a, np.ones(4), "test matrix")
        for least_squares in (lambda: _lstsq(a, np.ones(4)),
                              lambda: solve(a, np.ones(shape))):
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not "
                               "converge in Linear Least Squares$"):
                least_squares()



def test_non_finite_matrices_raise_instead_of_hanging_lapack():
    # On a matrix with an inf entry, and on the identity with one NaN,
    # LAPACK's SVD reports an illegal value in DLASCL and does not return;
    # both SVD-based solves refuse a non-finite matrix first, with numpy's
    # errors.  In a subprocess with a timeout, so a regression fails
    # instead of hanging the suite.
    code = textwrap.dedent("""
        import numpy as np
        from thetaflow.multipliers import solve_capped
        from thetaflow.scheme import _lstsq

        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=4)
        inf_a, minus_inf_a, nan_eye = a.copy(), a.copy(), np.eye(4)
        inf_a[1, 0], minus_inf_a[1, 0], nan_eye[1, 2] = np.inf, -np.inf, np.nan
        for a in (inf_a, minus_inf_a, nan_eye):
            for solve, message in (
                    (lambda: _lstsq(a, b),
                     "SVD did not converge in Linear Least Squares"),
                    (lambda: solve_capped(a, b, "x"),
                     "SVD did not converge")):
                try:
                    solve()
                except np.linalg.LinAlgError as err:
                    assert str(err) == message, err
                else:
                    raise AssertionError("no LinAlgError")
        print("refused")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "refused\n"), out.stderr
