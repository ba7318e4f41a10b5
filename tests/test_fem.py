import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import gamma

import fracinv.fem as fem_mod
from fracinv.cases import get_case, make_setup
from fracinv.errors import NumericalError, ParameterError, ShapeError
from fracinv.fem import (
    HISTORY_BLOCK,
    FemOperator,
    L1Weights,
    convergence_study,
    l1_evolve,
    l1_responses,
    mass_inner,
    mass_norm,
    solve_fem,
)
from fracinv.grids import Grid1D, Grid2D, as_nodal_values
from fracinv.mittag_leffler import ml_neg
from fracinv.problems import ProblemSpec, TimeGrid

from oracles import (
    caputo_derivative_at_T,
    fd_eigendecomposition,
    fem_trajectory,
    l1_evolve_stepwise,
    l1_march_per_block,
    l1_responses_stepwise,
    l1_trajectory,
    scipy_csr,
    solve_spectral,
    upper_band_factor,
)


class TestL1Weights:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_monotone_positive(self, alpha):
        b = L1Weights(alpha, 200).b
        assert b[0] == 1.0
        assert np.all(b > 0)
        assert np.all(np.diff(b) < 0)

    def test_alpha_one_is_backward_euler(self):
        b = L1Weights(1.0, 10).b
        assert b[0] == 1.0
        assert np.allclose(b[1:], 0.0)


class TestCaputoAtFinal:
    def test_constant_in_time_is_zero(self):
        grid = Grid1D(32)
        tg = TimeGrid(16, 1.0)
        v = np.sin(np.pi * grid.nodes)
        out = caputo_derivative_at_T(np.tile(v, (17, 1)), tg, 0.5)
        assert np.max(np.abs(out)) < 1e-13

    def test_linear_in_time_exact(self):
        # the L1 rule integrates piecewise-linear u exactly:
        # d^alpha(t v) = T^(1-alpha)/Gamma(2-alpha) v at t = T
        grid = Grid1D(32)
        alpha, T = 0.5, 0.8
        tg = TimeGrid(64, T)
        v = np.sin(np.pi * grid.nodes)
        vals = np.linspace(0.0, T, 65)[:, None] * v[None, :]
        out = caputo_derivative_at_T(vals, tg, alpha)
        ref = T ** (1 - alpha) / gamma(2 - alpha) * v
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_insufficient_history(self):
        with pytest.raises(ValueError, match="two stored steps"):
            caputo_derivative_at_T(np.zeros((1, 9)), TimeGrid(1, 1.0), 0.5)


def spectral_single_mode(alpha, t, grid):
    factor = float(ml_neg(alpha, 1.0, np.array([np.pi**2 * t**alpha]))[0])
    return factor * np.sin(np.pi * grid.nodes)


class TestSolveFem1D:
    def test_single_mode_vs_spectral(self):
        alpha, T = 0.5, 0.5
        grid = Grid1D(512)
        tg = TimeGrid(1024, T)
        spec = ProblemSpec(alpha=alpha, u0=lambda x: np.sin(np.pi * x), f=0.0)
        u = solve_fem(spec, FemOperator(grid), tg)
        ref = spectral_single_mode(alpha, T, grid)
        assert mass_norm(grid, u - ref) <= 5e-4

    def test_steady_state_long_run(self):
        grid = Grid1D(128)
        spec = ProblemSpec(alpha=0.5, u0=0.0, f=lambda x: np.sin(np.pi * x))
        u = solve_fem(spec, FemOperator(grid), TimeGrid(256, 200.0))
        ref = np.sin(np.pi * grid.nodes) / np.pi**2
        # discrete steady state of the P1 operator differs from the exact one
        # by O(h^2); the remaining transient decays algebraically
        assert mass_norm(grid, u - ref) < 5e-4

    def test_determinism_bitwise(self):
        grid = Grid1D(64)
        tg = TimeGrid(32, 0.5)
        spec = ProblemSpec(alpha=0.4, u0=lambda x: np.sin(np.pi * x),
                           f=lambda x: np.minimum(x, 1 - x))
        q = lambda x: np.sin(np.pi * x) ** 4
        u1 = solve_fem(spec, FemOperator(grid, 1.0, q), tg)
        u2 = solve_fem(spec, FemOperator(grid, 1.0, q), tg)
        assert np.array_equal(u1, u2)

    def test_symmetry_preserved(self):
        # all data symmetric about x = 1/2: solution symmetric at every step
        grid = Grid1D(128)
        tg = TimeGrid(64, 0.5)
        spec = ProblemSpec(alpha=0.5, u0=1.0, f=lambda x: np.abs(np.sin(2 * np.pi * x)))
        vals = fem_trajectory(spec, FemOperator(grid, 1.0, lambda x: np.sin(np.pi * x) ** 4), tg)
        assert np.max(np.abs(vals - vals[:, ::-1])) < 1e-12

    def test_positivity_nonneg_data(self):
        grid = Grid1D(128)
        tg = TimeGrid(128, 0.5)
        spec = ProblemSpec(alpha=0.5, u0=1.0, f=lambda x: np.abs(np.sin(2 * np.pi * x)))
        vals = fem_trajectory(spec, FemOperator(grid, 1.0, lambda x: np.sin(np.pi * x) ** 4), tg)
        assert vals.min() >= -1e-10

    def test_pde_residual_identity_at_T(self):
        # f - A_q u(T) should match the discrete fractional derivative at T
        grid = Grid1D(256)
        tg = TimeGrid(512, 0.5)
        q = lambda x: np.sin(np.pi * x) ** 4
        f = lambda x: np.abs(np.sin(2 * np.pi * x))
        spec = ProblemSpec(alpha=0.5, u0=1.0, f=f)
        traj = fem_trajectory(spec, FemOperator(grid, 1.0, q), tg)
        dalpha = caputo_derivative_at_T(traj, tg, 0.5)
        x = grid.nodes[1:-1]
        u = traj[-1]
        h = grid.h
        lap = (u[:-2] - 2 * u[1:-1] + u[2:]) / h**2
        resid = f(x) - (-lap + q(x) * u[1:-1]) - dalpha[1:-1]
        assert mass_norm(grid, np.pad(resid, 1)) < 1e-2

    def test_lifted_dirichlet_steady(self):
        from scipy.integrate import solve_bvp

        grid = Grid1D(256)
        q = lambda x: np.sin(np.pi * x) ** 4
        f = lambda x: np.abs(np.sin(2 * np.pi * x))
        spec = ProblemSpec(alpha=0.5, u0=1.0, f=f, dirichlet=(0.5, 0.25))
        u = solve_fem(spec, FemOperator(grid, 1.0, q), TimeGrid(256, 500.0))
        assert u[0] == pytest.approx(0.5) and u[-1] == pytest.approx(0.25)

        def rhs(x, y):
            return np.vstack([y[1], q(x) * y[0] - f(x)])

        def bc(ya, yb):
            return np.array([ya[0] - 0.5, yb[0] - 0.25])

        xs = np.linspace(0, 1, 101)
        sol = solve_bvp(rhs, bc, xs, np.vstack([0.5 + 0 * xs, 0 * xs]), tol=1e-9)
        ref = sol.sol(grid.nodes)[0]
        assert np.max(np.abs(u - ref)) < 5e-3


class TestSolveFem2D:
    def test_2d_self_convergence(self):
        spec = ProblemSpec(
            alpha=0.5,
            u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            f=lambda x, y: np.minimum(x, 1 - x) * np.exp(x) * np.sin(2 * np.pi * y),
        )
        a = lambda x, y: 1.0 + np.sin(np.pi * x) * y * (1 - y)
        coarse = solve_fem(spec, FemOperator(Grid2D(32), a), TimeGrid(64, 0.5))
        fine = solve_fem(spec, FemOperator(Grid2D(64), a), TimeGrid(128, 0.5))
        # restrict fine to coarse nodes (every other node per direction)
        fine_grid = Grid2D(64)
        f2 = fine.reshape(65, 65)[::2, ::2].ravel()
        gap = mass_norm(Grid2D(32), coarse - f2)
        ref = mass_norm(Grid2D(32), f2)
        assert gap / ref < 1e-2

    def test_2d_laplace_single_mode(self):
        spec = ProblemSpec(
            alpha=0.5,
            u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            f=0.0,
        )
        grid = Grid2D(48)
        u = solve_fem(spec, FemOperator(grid), TimeGrid(96, 0.5))
        lam = 2 * np.pi**2
        factor = float(ml_neg(0.5, 1.0, np.array([lam * 0.5**0.5]))[0])
        pts = grid.nodes
        ref = factor * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        assert mass_norm(grid, u - ref) < 5e-3


class TestSolveFemFinal:
    """`solve_fem` returns u(T) alone: the last level of the trajectory that
    the march steps through, to rounding, with no trajectory kept."""

    @staticmethod
    def _case_problem(case_id, n, steps):
        """The data synthesis of `cases.exact_observation`, at n cells and steps steps."""
        case = get_case(case_id)
        setup = make_setup(case, 0.5, n=n, n_steps=steps)
        op = FemOperator(setup.grid, case.diffusion, case.truth if case.kind == "ipp" else 0.0)
        return setup.spec_for(case.truth), op, TimeGrid(steps, 0.5)

    # 5.3: Dirichlet lift and a potential; 5.1ii: the square
    @pytest.mark.parametrize("case_id, n, steps", [("5.3", 256, 128), ("5.1ii", 16, 32)])
    def test_final_is_last_trajectory_level(self, case_id, n, steps):
        spec, op, tg = self._case_problem(case_id, n, steps)
        ref = fem_trajectory(spec, op, tg)[-1]
        assert np.max(np.abs(solve_fem(spec, op, tg) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_peak_memory_holds_no_history(self):
        # on the 5.3 data synthesis (2,048 cells, 1,024 steps), with the step
        # polynomial cached, Horner's rule holds a few vectors of 2,047
        # unknowns; the march's history of the interior unknown took 16.8 MB
        spec, op, tg = self._case_problem("5.3", 2048, 1024)
        fem_mod._l1_polynomial(spec.alpha, tg.n_steps)
        tracemalloc.start()
        try:
            solve_fem(spec, op, tg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestFemOperator:
    """One sparse form and one banded Cholesky on both grids, checked against
    dense linear algebra, with variable diffusion and a nonzero potential."""

    C = 7.5  # a scale c of (c M + A)_II, as an L1 step would use

    @pytest.fixture(params=["1d", "2d"])
    def op(self, request):
        if request.param == "1d":
            return FemOperator(Grid1D(64), lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
                               lambda x: 2.0 + np.cos(3 * x))
        return FemOperator(Grid2D(8), lambda x, y: 1.0 + x * y * (1 - y),
                           lambda x, y: 1.0 + x + y**2)

    def _dense(self, op):
        I = op.interior
        M, A = scipy_csr(op.M), scipy_csr(op.A)
        return (self.C * M + A).toarray()[np.ix_(I, I)], M.toarray()[np.ix_(I, I)]

    def test_factorized_matches_dense_solve(self, op):
        K, _ = self._dense(op)
        rng = np.random.default_rng(0)
        solve = op.factorized(self.C)
        for rhs in (rng.standard_normal(K.shape[0]), rng.standard_normal((K.shape[0], 5))):
            ref = np.linalg.solve(K, rhs)
            assert np.max(np.abs(solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _reports(info_at: int, info: int):
        """A LAPACK routine that only writes info into its info argument."""
        def routine(*args):
            ctypes.c_int64.from_address(args[info_at]).value = info
        return routine

    def test_failed_factor_raises(self, op, monkeypatch):
        # dpbtrf (dpttrf on the interval) reports a matrix that is not
        # positive definite through info
        name, info_at = ("dpttrf", 3) if isinstance(op.grid, Grid1D) else ("dpbtrf", 5)
        monkeypatch.setattr(fem_mod, f"_{name.upper()}", self._reports(info_at, 3))
        with pytest.raises(NumericalError, match=f"{name} info 3"):
            op.factorized(self.C)

    def test_failed_solve_raises(self, op, monkeypatch):
        # dpbtrs (dpttrs on the interval) reports a bad argument through
        # info, not by raising
        name, info_at = ("dpttrs", 6) if isinstance(op.grid, Grid1D) else ("dpbtrs", 8)
        monkeypatch.setattr(fem_mod, f"_{name.upper()}", self._reports(info_at, -2))
        with pytest.raises(NumericalError, match=name):
            op.factorized(self.C)(np.ones(op.interior.size))

    def test_mass_apply_interior_matches_dense(self, op):
        _, M_II = self._dense(op)
        v = np.random.default_rng(1).standard_normal((M_II.shape[0], 3))
        ref = M_II @ v
        assert np.max(np.abs(op.M_II @ v - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(scipy_csr(op.M_II).toarray(), M_II)

    @pytest.mark.parametrize("n", [48, 128])
    def test_modes_are_the_pencil_eigenpairs(self, n):
        op = FemOperator(Grid1D(n), lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
                         lambda x: 2.0 + np.cos(3 * x))
        I = op.interior
        A_II, M_II = scipy_csr(op.A).toarray()[np.ix_(I, I)], scipy_csr(op.M_II).toarray()
        lam, V = op.modes
        assert np.max(np.abs(V.T @ M_II @ V - np.eye(I.size))) <= 1e-13
        assert np.max(np.abs(A_II @ V - (M_II @ V) * lam)) <= 1e-12 * np.max(lam)
        ref = scipy.linalg.eigh(A_II, M_II, eigvals_only=True)
        assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(ref)

    def test_measured_bandwidth(self, op):
        # kd comes from the grid: 1 on the interval, n on the square, where
        # with q = 0 the stiffness does not couple SW-NE diagonal neighbours
        ops = [op] if isinstance(op.grid, Grid1D) else [op, FemOperator(op.grid, 1.0, 0.0)]
        for o in ops:
            kd, m = (o.grid.n if isinstance(o.grid, Grid2D) else 1), o.interior.size
            o.factorized(self.C)
            dense = (scipy_csr(o.M_II).toarray(), scipy_csr(o.A_II).toarray())
            for band, K in zip(o._bands, dense):
                assert band.shape == (kd + 1, m)
                assert band.flags.f_contiguous  # LAPACK factors c M_b + A_b in place
                for d in range(kd + 1):
                    assert np.array_equal(band[d, :m - d], np.diag(K, -d))
            assert np.any(o._bands[0][kd, :m - kd])  # the mass fills the outermost row
            assert o._factor[1].shape == (kd + 1, m)

    def test_new_scale_builds_no_band(self, op, monkeypatch):
        calls = []
        monkeypatch.setattr(fem_mod, "_interior_block", lambda K, I, kd: calls.append(kd))
        op.factorized(self.C)
        op.factorized(2.0 * self.C)  # each scale reuses the held M_b and A_b
        assert calls == []

    @pytest.mark.parametrize("grid", [Grid1D(8), Grid2D(4)], ids=["1d", "2d"])
    @pytest.mark.parametrize("form", ["scalar", "array", "callable"])
    @pytest.mark.parametrize("which, bad", [("diffusion", np.nan), ("diffusion", np.inf),
                                            ("potential", np.nan), ("potential", np.inf),
                                            ("potential", -1.0)])
    def test_bad_coefficient_rejected(self, grid, form, which, bad):
        if form == "scalar":
            value = bad
        elif form == "array":
            # one interior node; the rule reads a nodal array at its nodes
            value = np.ones(grid.n_nodes)
            value[grid.n_nodes // 2] = bad
        else:
            value = lambda *pts: np.full(pts[0].shape, bad)
        with pytest.raises(ParameterError, match=which):
            FemOperator(grid, **{which: value})

    @pytest.mark.parametrize("grid", [Grid1D(8), Grid2D(4)], ids=["1d", "2d"])
    @pytest.mark.parametrize("which", ["diffusion", "potential"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_nodal_array_of_wrong_length_rejected(self, grid, which, extra):
        # on the square 30 values were read as their first 25 and 20 ended in
        # an IndexError; on the interval np.interp raised a plain ValueError
        with pytest.raises(ShapeError):
            FemOperator(grid, **{which: np.ones(grid.n_nodes + extra)})

    @pytest.mark.parametrize("n", [8, 128, 2048])
    def test_constant_interpolant_is_the_constant(self, n):
        grid = Grid1D(n)
        pts = (grid.nodes[:-1, None] + grid.h * fem_mod._GAUSS_XI).ravel()
        for c in (1.0, 0.1, np.pi, 0.0):
            assert fem_mod._coeff_at(c, pts, grid).tobytes() == np.full(pts.size, c).tobytes()

    @pytest.mark.parametrize("grid", [Grid1D(8), Grid2D(4)], ids=["1d", "2d"])
    def test_nodal_array_checked_at_its_nodes(self, grid):
        # -1 at one node between nodes of 10: every Gauss point of the
        # interval and every edge midpoint of the square reads q > 0
        q = np.full(grid.n_nodes, 10.0)
        q[grid.n_nodes // 2] = -1.0
        with pytest.raises(ParameterError, match="potential"):
            FemOperator(grid, potential=q)


_FACTOR_DIGESTS = """
import hashlib
from fracinv.fem import FemOperator
from fracinv.grids import Grid2D
for n in (32, 64):
    op = FemOperator(Grid2D(n), 1.0, 0.0)
    op.factorized(300.0)
    print(hashlib.sha256(op._factor[1].tobytes()).hexdigest())
"""


class TestBandFactor:
    """The lower-storage factor that `FemOperator.factorized` holds on the
    square against `cholesky_banded` on the upper band, the operator's
    earlier path."""

    SCALES = (3.0, 300.0, 3e4)

    @staticmethod
    def _op(grid):
        return FemOperator(grid, lambda x, y: 1.0 + x * y * (1 - y),
                           lambda x, y: 1.0 + x + y**2)

    def _pairs(self, grid):
        """(held factor, oracle factor, solve, oracle solve) at each scale."""
        op = self._op(grid)
        rhs = np.random.default_rng(grid.n).standard_normal((op.interior.size, 3))
        for c in self.SCALES:
            x = op.factorized(c)(rhs)
            ref = upper_band_factor(op, c)
            yield op._factor[1], ref, x, scipy.linalg.lapack.dpbtrs(ref, rhs)[0]

    @pytest.mark.parametrize("grid", [Grid2D(8), Grid2D(32), Grid2D(64)],
                             ids=["2d-8", "2d-32", "2d-64"])
    def test_bit_identical_up_to_kd_64(self, grid):
        # LAPACK's unblocked dpbtf2 does the same products in either storage
        for ub, ref, x, x_ref in self._pairs(grid):
            assert ub.shape == ref.shape
            assert np.array_equal(ub, ref)
            assert np.array_equal(x, x_ref)

    def test_blocked_path_agrees_above_kd_64(self):
        # kd = 72: the blocked dpbtrf orders its work by storage
        for ub, ref, x, x_ref in self._pairs(Grid2D(72)):
            assert ub.shape == ref.shape
            assert np.max(np.abs(ub - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))

    def test_peak_memory_is_two_bands(self):
        # kd = 64: LAPACK factors the band in place and the factor is copied
        # once into upper storage, so two band arrays live at the peak
        op = FemOperator(Grid2D(64), 1.0, 0.0)
        band = 8 * (64 + 1) * op.interior.size
        tracemalloc.start()
        try:
            op.factorized(300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * band

    def test_factor_independent_of_blas_threads(self):
        src = str(Path(fem_mod.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", _FACTOR_DIGESTS], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]


class TestTridiagonalFactor:
    """The interval's L D L^T factor of (c M + A)_II by dpttrf and its solve
    by dpttrs, against scipy's, and against the band Cholesky of the upper
    band, the operator's earlier path on the interval."""

    @pytest.mark.parametrize("n", [8, 128, 2048])
    @pytest.mark.parametrize("potential", [0.0, lambda x: 2.0 + np.cos(3 * x)], ids=["q0", "q"])
    def test_matches_scipy_and_cholesky(self, n, potential):
        # bit for bit with scipy's dpttrf/dpttrs; the Cholesky solve differs
        # by up to 3.4e-12 relative at n = 2048, c = 3, as the conditioning
        # allows, so both are held to their normwise backward error
        op = FemOperator(Grid1D(n), lambda x: 1.0 + 0.5 * np.sin(np.pi * x), potential)
        rng = np.random.default_rng(n)
        for c in TestBandFactor.SCALES:
            solve = op.factorized(c)
            K = c * op._bands[0] + op._bands[1]
            d, e, info = scipy.linalg.lapack.dpttrf(K[0], K[1, :-1])
            assert info == 0
            K = (c * scipy_csr(op.M_II) + scipy_csr(op.A_II)).toarray()
            ub = upper_band_factor(op, c)
            for rhs in (rng.standard_normal(n - 1), rng.standard_normal((n - 1, 36))):
                x = solve(rhs)
                assert np.array_equal(x, scipy.linalg.lapack.dpttrs(d, e, rhs)[0])
                for y in (x, scipy.linalg.lapack.dpbtrs(ub, rhs)[0]):
                    scale = np.max(np.abs(K).sum(axis=1)) * np.max(np.abs(y))
                    assert np.max(np.abs(K @ y - rhs)) <= 1e-15 * scale

    def test_indefinite_matrix_raises(self):
        # c < 0 makes the diagonal of c M + A negative: dpttrf stops at once
        with pytest.raises(NumericalError, match="dpttrf info 1"):
            FemOperator(Grid1D(8)).factorized(-1e4)

    def test_wrong_length_raises(self):
        solve = FemOperator(Grid1D(8)).factorized(3.0)
        for rhs in (np.ones(8), np.ones((6, 2))):
            with pytest.raises(ShapeError, match="7 unknowns"):
                solve(rhs)


_SWEEP_DIGESTS = """
import hashlib
import numpy as np
from fracinv.fem import FemOperator
from fracinv.grids import Grid2D
for n in (16, 32, 64):
    op = FemOperator(Grid2D(n), 1.0, 0.0)
    for p in (3, 36, 127):
        rhs = np.random.default_rng(n).standard_normal((op.interior.size, p))
        out = np.empty_like(rhs)
        op.row_sweep(300.0)(rhs, out)
        print(hashlib.sha256(out.tobytes()).hexdigest())
"""


class TestRowSweep:
    """`FemOperator.row_sweep`, the square's solve of a column block, on the
    factor it reads, against `factorized` column by column, its oracle."""

    SCALES = (3.0, 300.0, 3e4)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("potential", [0.0, lambda x, y: 1.0 + x + y**2], ids=["q0", "q"])
    def test_factor_is_grid_row_block_bidiagonal(self, n, potential):
        # U[r, r + d] = ub[kd - d, r + d] is exactly 0.0 unless r and r + d lie
        # in one block of n - 1 rows or in neighbouring ones
        op = FemOperator(Grid2D(n), 1.0, potential)
        for c in self.SCALES:
            op.factorized(c)
            ub = op._factor[1]
            col = np.arange(ub.shape[1])
            row = col - (ub.shape[0] - 1 - np.arange(ub.shape[0]))[:, None]
            outside = (row >= 0) & (col // (n - 1) - row // (n - 1) > 1)
            assert outside.sum() == n - 3  # U[i, i + n] at the end of each grid row but two
            assert np.all(ub[outside] == 0.0)

    @pytest.mark.parametrize("p", [1, 3, 36])
    def test_matches_factorized(self, p):
        for n in (8, 16, 32):
            op = TestBandFactor._op(Grid2D(n))
            rhs = np.random.default_rng(p).standard_normal((op.interior.size, p))
            for c in self.SCALES:
                ref = np.column_stack([op.factorized(c)(col) for col in rhs.T])
                out = np.empty_like(rhs)
                op.row_sweep(c)(rhs.copy(), out)
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_blocks_held_beside_the_factor(self, monkeypatch):
        # built once per held c from the held factor, no dpbtrf of their own,
        # and dropped with the factor of another c
        op = FemOperator(Grid2D(8))
        op.row_sweep(3.0)
        blocks, factor = op._row_blocks, op._factor
        monkeypatch.setattr(fem_mod, "_DPBTRF", None)  # a further factorization would fail
        op.row_sweep(3.0)
        assert op._row_blocks is blocks and op._factor is factor
        monkeypatch.undo()
        op.factorized(300.0)
        assert op._row_blocks is None and len(op._factor) == 3

    @pytest.mark.parametrize("kind", ["bp", "isp"])
    def test_stepped_columns_match_factorized(self, kind, monkeypatch):
        # l1_evolve takes the sweep for a column block on the square only
        op = FemOperator(Grid2D(16), 1.0, 0.5)
        w0 = np.eye(op.interior.size)[:, ::40]
        args = (w0, None) if kind == "bp" else (np.zeros_like(w0), op.M_II @ w0)
        tg = TimeGrid(16, 0.5)
        got = l1_evolve(op, 0.5, tg, *args)
        monkeypatch.setattr(FemOperator, "row_sweep", None)
        ref = np.stack([l1_evolve(op, 0.5, tg, *(a if a is None else a[:, j] for a in args))
                        for j in range(w0.shape[1])], axis=-1)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_independent_of_blas_threads(self):
        # its products stay below OpenBLAS's threading threshold (the march's
        # history sums over m p columns do not: their bits move with the count)
        src = str(Path(fem_mod.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", _SWEEP_DIGESTS], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 9 and digests[0] == digests[1]


class TestScipyKernels:
    """`FemOperator`'s CSR arrays and banded LAPACK calls, which run scipy's
    compiled kernels and numpy's OpenBLAS without scipy's packages, against
    scipy.sparse and scipy.linalg.lapack, bit for bit."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_csr_is_scipys(self, n, monkeypatch):
        # 5.1ii's variable diffusion, so element contributions of different
        # sizes are summed into each entry
        built, csr = [], fem_mod._csr

        def recording(*args):
            built.append((args, csr(*args)))
            return built[-1][1]

        monkeypatch.setattr(fem_mod, "_csr", recording)
        op = FemOperator(Grid2D(n), get_case("5.1ii").diffusion, 0.0)
        assert len(built) == 4  # A, M, then their interior blocks
        for (rows, cols, vals, size), ours in built[:2]:
            ref = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
            for got, want in zip((ours.indptr, ours.indices, ours.data),
                                 (ref.indptr, ref.indices, ref.data)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        I = op.interior
        for K, K_II in ((op.M, op.M_II), (op.A, op.A_II)):
            ref = scipy_csr(K)[I][:, I]
            for got, want in zip((K_II.indptr, K_II.indices, K_II.data),
                                 (ref.indptr, ref.indices, ref.data)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid", [Grid1D(128), Grid2D(32)], ids=["1d", "2d"])
    def test_products_are_csr_matmul(self, grid):
        op = FemOperator(grid, 1.0, 1.0)
        rng = np.random.default_rng(grid.n)
        for K in (op.M, op.A, op.M_II, op.A_II):
            size = K.indptr.size - 1
            for v in (rng.standard_normal(size), rng.standard_normal((size, 36)),
                      rng.standard_normal((36, size)).T):
                assert np.array_equal(K @ v, scipy_csr(K) @ v)
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.M @ np.ones(3)
        # `@` is the only operator: the sums and scalings of a sparse matrix fail at once
        for expr in (lambda: op.M + op.A, lambda: 2.0 * op.M, lambda: op.M * 2.0,
                     lambda: np.float64(2.0) * op.M, lambda: op.M - op.A):
            with pytest.raises(TypeError):
                expr()

    @pytest.mark.parametrize("grid", [Grid1D(128), Grid1D(2048), Grid2D(32), Grid2D(64)],
                             ids=["1d-128", "1d-2048", "2d-32", "2d-64"])
    def test_band_lapack_is_scipys(self, grid):
        # dpttrf/dpttrs on the interval, dpbtrf/dpbtrs on the square
        op = FemOperator(grid, 1.0, 0.0)
        (kd1, m), rng = op._bands[0].shape, np.random.default_rng(grid.n)
        for c in (3.0, 300.0):
            solve = op.factorized(c)
            K = c * op._bands[0] + op._bands[1]
            if isinstance(grid, Grid1D):
                d, e, info = scipy.linalg.lapack.dpttrf(K[0], K[1, :-1])
                assert info == 0
                assert np.array_equal(op._factor[1][0], d)
                assert np.array_equal(op._factor[1][1, :-1], e)
                ref = lambda rhs: scipy.linalg.lapack.dpttrs(d, e, rhs)[0]
            else:
                lb, info = scipy.linalg.lapack.dpbtrf(K, lower=1)
                assert info == 0
                for d in range(kd1):  # the held factor is L^T in upper storage
                    assert np.array_equal(op._factor[1][kd1 - 1 - d, d:], lb[d, :m - d])
                ref = lambda rhs: scipy.linalg.lapack.dpbtrs(op._factor[1], rhs)[0]
            for rhs in (rng.standard_normal(m), rng.standard_normal((m, 36))):
                assert np.array_equal(solve(rhs), ref(rhs))


class TestBlockedHistory:
    """`l1_evolve` evaluates w^N by Horner's rule on the step polynomial
    where m p >= N + 1 and marches the state where m p < N + 1; either
    against the step-by-step sum and the march's last step (`l1_trajectory`)."""

    @staticmethod
    def _problem(grid, p, loaded, seed):
        op = FemOperator(grid, 1.0, 0.5)
        shape = (op.interior.size,) if p == 1 else (op.interior.size, p)
        rng = np.random.default_rng(seed)
        return op, rng.standard_normal(shape), rng.standard_normal(shape) if loaded else None

    @pytest.mark.parametrize("grid", [Grid1D(64), Grid2D(8)], ids=["1d", "2d"])
    @pytest.mark.parametrize("n_steps", [1, HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                         HISTORY_BLOCK + 1, 100])
    @pytest.mark.parametrize("p", [1, 3, 36])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])  # 1.0: backward Euler, b_0 = 1
    @pytest.mark.parametrize("loaded", [False, True], ids=["free", "load"])
    def test_matches_stepwise(self, grid, n_steps, p, alpha, loaded):
        op, w0, load = self._problem(grid, p, loaded, n_steps + 7 * p)
        tg = TimeGrid(n_steps, 0.5)
        ours = l1_evolve(op, alpha, tg, w0, load)
        for ref in (l1_evolve_stepwise(op, alpha, tg, w0, load)[-1],
                    l1_trajectory(op, alpha, tg, w0, load)[-1]):
            assert ours.shape == ref.shape
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    # (grid, p, N): m p = N marches the state, m p = N + 1 runs Horner's rule
    @pytest.mark.parametrize("grid, p, n_steps, horner", [
        (Grid1D(34), 1, 32, True), (Grid1D(34), 1, 33, False),
        (Grid1D(12), 3, 32, True), (Grid1D(12), 3, 33, False),
        (Grid2D(4), 4, 35, True), (Grid2D(4), 4, 36, False)],
        ids=["1d-p1-horner", "1d-p1-march", "1d-p3-horner", "1d-p3-march",
             "2d-p4-horner", "2d-p4-march"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["free", "load"])
    def test_rule_on_the_state_size(self, grid, p, n_steps, horner, loaded, monkeypatch):
        op, w0, load = self._problem(grid, p, loaded, n_steps)
        tg = TimeGrid(n_steps, 0.5)
        ref = l1_trajectory(op, 0.5, tg, w0, load)[-1]
        fem_mod._l1_polynomial(0.5, n_steps)  # cached: Horner's rule marches nothing
        marched = []

        def recording(weights, first, step):
            marched.append(first.shape)
            return march(weights, first, step)

        march = fem_mod._l1_march
        monkeypatch.setattr(fem_mod, "_l1_march", recording)
        ours = l1_evolve(op, 0.5, tg, w0, load)
        assert marched == ([] if horner else [w0.shape])
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBlockedResponses:
    """The modal engine `l1_responses` evaluates at step N the polynomial in
    the step gain whose coefficients the blocked march builds
    (`_l1_polynomial`); checked against the step-by-step recursion."""

    @pytest.fixture(scope="class")
    def lam(self):
        op = FemOperator(Grid1D(64), lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
                         lambda x: 2.0 + np.cos(3 * x))
        return op.modes[0]

    @pytest.mark.parametrize("n_steps", [1, HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                         HISTORY_BLOCK + 1, 100, 512])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_matches_stepwise(self, lam, n_steps, alpha):
        tg = TimeGrid(n_steps, 0.5)
        for ours, ref in zip(l1_responses(alpha, tg, lam), l1_responses_stepwise(alpha, tg, lam)):
            assert ours.shape == ref[-1].shape == (lam.size,)
            assert np.max(np.abs(ours - ref[-1])) <= 1e-12 * np.max(np.abs(ref[-1]))

    @pytest.mark.parametrize("n_steps", [1, 33, 512])
    def test_backward_euler_closed_form(self, lam, n_steps):
        # alpha = 1: r^N = (1 + tau lam)^(-N)
        tg = TimeGrid(n_steps, 0.5)
        r = l1_responses(1.0, tg, lam)[0]
        ref = (1.0 + tg.tau * lam) ** -n_steps
        assert np.allclose(r, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_steps", [1, HISTORY_BLOCK, HISTORY_BLOCK + 1, 512, 1024])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_polynomial_is_a_distribution(self, n_steps, alpha):
        # r = g combo has nonnegative coefficients, r = 1 at g = 1, and
        # backward Euler (alpha = 1) is r^N = g^N
        p = fem_mod._l1_polynomial(alpha, n_steps)
        assert p.shape == (n_steps + 1,) and not p.flags.writeable
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-14
        if alpha == 1.0:
            assert np.array_equal(p, np.eye(1, n_steps + 1, n_steps)[0])

    @pytest.mark.parametrize("n_steps", [1, 33, 512])
    def test_lam_derivative(self, lam, n_steps):
        # dr^N/dlam against a central difference of r^N in lam
        tg = TimeGrid(n_steps, 0.5)
        h = 1e-6 * lam
        up, down = (l1_responses(0.5, tg, lam + d)[0] for d in (h, -h))
        assert np.allclose(l1_responses(0.5, tg, lam)[2], (up - down) / (2 * h),
                           rtol=1e-6, atol=1e-12)


class TestMarchBits:
    """`_l1_march` gathers its weights once per march and steps in place; its
    bits are those of the march that gathers each block's panel anew."""

    @pytest.fixture(scope="class")
    def op(self):
        return FemOperator(Grid1D(64), lambda x: 1.0 + 0.5 * np.sin(np.pi * x))

    @pytest.mark.parametrize("n_steps", [1, HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                         HISTORY_BLOCK + 1, 100, 512, 1024])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_bit_identical_to_per_block_gather(self, op, n_steps, alpha):
        weights = L1Weights(alpha, n_steps)
        c = weights.scale(0.5 / n_steps)
        gain = c / (c + op.modes[0])  # the modal engine's step on a vector state
        ours = fem_mod._l1_march(weights, np.ones(gain.size),
                                 lambda combo, out: np.multiply(combo, gain, out=out))
        ref = l1_march_per_block(weights, np.ones(gain.size), lambda combo: combo * gain)
        assert np.array_equal(ours, ref)

        solve = op.factorized(c)  # the time stepper's step on an (m, p) state

        def step(combo, out):
            out[...] = solve(c * (op.M_II @ combo))

        w0 = np.random.default_rng(n_steps).standard_normal((gain.size, 3))
        ours = fem_mod._l1_march(weights, w0, step)
        ref = l1_march_per_block(weights, w0,
                                 lambda combo: solve(c * (op.M_II @ combo)))
        assert np.array_equal(ours, ref)


class TestSpectralFemAgreement:
    def test_with_source_cross_validation(self):
        # mixed initial state + hat source: modal solve (200 modes) vs the
        # FEM engine at fine resolution
        alpha, T = 0.5, 0.5
        spec = ProblemSpec(alpha=alpha, u0=lambda x: np.sin(np.pi * x),
                           f=lambda x: np.minimum(x, 1 - x))
        ed = fd_eigendecomposition(0.0, 200, grid=Grid1D(2048))
        u_spectral = solve_spectral(spec, ed, T)
        grid = Grid1D(512)
        u_fem = solve_fem(spec, FemOperator(grid), TimeGrid(4096, T))
        u_ref = np.interp(grid.nodes, ed.grid.nodes, u_spectral)
        assert mass_norm(grid, u_fem - u_ref) <= 2e-4

    def test_joint_refinement_with_potential(self):
        # nonzero potential: the FEM/spectral gap shrinks under joint
        # space-time refinement
        q = lambda x: np.sin(np.pi * x) ** 4
        spec = ProblemSpec(alpha=0.5, u0=lambda x: np.sin(np.pi * x),
                           f=lambda x: np.minimum(x, 1 - x))
        ed = fd_eigendecomposition(q, 128, grid=Grid1D(2048))
        u_spectral = solve_spectral(spec, ed, 0.5)
        gaps = []
        for n, steps in [(64, 64), (128, 256), (256, 1024)]:
            grid = Grid1D(n)
            u = solve_fem(spec, FemOperator(grid, 1.0, q), TimeGrid(steps, 0.5))
            ref = np.interp(grid.nodes, ed.grid.nodes, u_spectral)
            gaps.append(mass_norm(grid, u - ref))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


class TestConvergence:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_space_order_is_p1(self, alpha):
        # bounded on both sides: a space order that the L1 time error raises
        # or lowers (2.24 / 2.65 / 5.04 against a fixed-tau reference) fails
        spec = ProblemSpec(alpha=alpha, u0=lambda x: np.sin(np.pi * x), f=0.0)
        report = convergence_study(spec, 0.5)
        assert 1.9 <= report.space_order <= 2.1
        assert report.time_order >= alpha

    def test_identical_runs_identical_errors(self):
        spec = ProblemSpec(alpha=0.5, u0=lambda x: np.sin(np.pi * x), f=0.0)
        r1 = convergence_study(spec, 0.5)
        r2 = convergence_study(spec, 0.5)
        assert r1.space_diffs == r2.space_diffs
        assert r1.time_diffs == r2.time_diffs


class TestTimeGrid:
    @pytest.mark.parametrize("n_steps, T", [(4, np.nan), (4, np.inf), (2.5, 1.0), (True, 1.0)])
    def test_horizon_and_steps_rejected(self, n_steps, T):
        # forward_map used to return NaN at T = nan and numbers at T = inf;
        # 2.5 steps failed later with a TypeError; True passed as one step
        with pytest.raises(ParameterError):
            TimeGrid(n_steps, T)


def test_mass_norm_of_another_size_is_shape_error():
    # an untyped ValueError came from the CSR product
    with pytest.raises(ShapeError):
        mass_norm(Grid1D(8), np.ones(5))


def test_mass_inner_is_exact_for_linears():
    grid = Grid1D(16)
    one = np.ones(grid.n_nodes)
    x = grid.nodes
    assert mass_inner(grid, one, one) == pytest.approx(1.0, rel=1e-14)
    assert mass_inner(grid, x, one) == pytest.approx(0.5, rel=1e-14)
    g2 = Grid2D(8)
    one2 = np.ones(g2.n_nodes)
    assert mass_inner(g2, one2, one2) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("grid", [Grid1D(4), Grid2D(4)], ids=["1d", "2d"])
def test_none_field_is_parameter_error(grid):
    # as_nodal_values(None) was an all-NaN field, and a solve from it NaN inside
    with pytest.raises(ParameterError, match="None"):
        as_nodal_values(None, grid)
    with pytest.raises(ParameterError, match="None"):
        solve_fem(ProblemSpec(0.5, None, 1.0), FemOperator(grid), TimeGrid(4, 0.5))
