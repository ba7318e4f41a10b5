import numpy as np
import pytest
import scipy.linalg
from scipy.special import gamma

import fracinv.fem as fem_mod
from fracinv.errors import NumericalError
from fracinv.fem import (
    HISTORY_BLOCK,
    FemOperator,
    L1Weights,
    Trajectory,
    _upper_band,
    convergence_study,
    l1_evolve,
    l1_responses,
    mass_inner,
    mass_norm,
    solve_fem,
)
from fracinv.grids import Grid1D, Grid2D
from fracinv.mittag_leffler import ml_neg
from fracinv.problems import ProblemSpec, TimeGrid

from oracles import (
    caputo_derivative_at_T,
    fd_eigendecomposition,
    l1_evolve_stepwise,
    l1_responses_stepwise,
    solve_spectral,
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
        traj = Trajectory(grid=grid, times=tg.times, values=np.tile(v, (17, 1)))
        out = caputo_derivative_at_T(traj, tg, 0.5)
        assert np.max(np.abs(out)) < 1e-13

    def test_linear_in_time_exact(self):
        # the L1 rule integrates piecewise-linear u exactly:
        # d^alpha(t v) = T^(1-alpha)/Gamma(2-alpha) v at t = T
        grid = Grid1D(32)
        alpha, T = 0.5, 0.8
        tg = TimeGrid(64, T)
        v = np.sin(np.pi * grid.nodes)
        vals = tg.times[:, None] * v[None, :]
        traj = Trajectory(grid=grid, times=tg.times, values=vals)
        out = caputo_derivative_at_T(traj, tg, alpha)
        ref = T ** (1 - alpha) / gamma(2 - alpha) * v
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_insufficient_history(self):
        grid = Grid1D(8)
        traj = Trajectory(grid=grid, times=np.array([0.0]), values=np.zeros((1, 9)))
        with pytest.raises(ValueError, match="two stored steps"):
            caputo_derivative_at_T(traj, TimeGrid(1, 1.0), 0.5)


def spectral_single_mode(alpha, t, grid):
    factor = float(ml_neg(alpha, 1.0, np.array([np.pi**2 * t**alpha]))[0])
    return factor * np.sin(np.pi * grid.nodes)


class TestSolveFem1D:
    def test_single_mode_vs_spectral(self):
        alpha, T = 0.5, 0.5
        grid = Grid1D(512)
        tg = TimeGrid(1024, T)
        spec = ProblemSpec(alpha=alpha, T=T, u0=lambda x: np.sin(np.pi * x), f=0.0)
        u = solve_fem(spec, grid, tg).final
        ref = spectral_single_mode(alpha, T, grid)
        assert mass_norm(grid, u - ref) <= 5e-4

    def test_steady_state_long_run(self):
        grid = Grid1D(128)
        spec = ProblemSpec(alpha=0.5, T=200.0, u0=0.0, f=lambda x: np.sin(np.pi * x))
        u = solve_fem(spec, grid, TimeGrid(256, spec.T)).final
        ref = np.sin(np.pi * grid.nodes) / np.pi**2
        # discrete steady state of the P1 operator differs from the exact one
        # by O(h^2); the remaining transient decays algebraically
        assert mass_norm(grid, u - ref) < 5e-4

    def test_determinism_bitwise(self):
        grid = Grid1D(64)
        tg = TimeGrid(32, 0.5)
        spec = ProblemSpec(alpha=0.4, T=0.5, u0=lambda x: np.sin(np.pi * x),
                           f=lambda x: np.minimum(x, 1 - x),
                           potential=lambda x: np.sin(np.pi * x) ** 4)
        u1 = solve_fem(spec, grid, tg).values
        u2 = solve_fem(spec, grid, tg).values
        assert np.array_equal(u1, u2)

    def test_symmetry_preserved(self):
        # all data symmetric about x = 1/2: solution symmetric at every step
        grid = Grid1D(128)
        tg = TimeGrid(64, 0.5)
        spec = ProblemSpec(alpha=0.5, T=0.5, u0=1.0, f=lambda x: np.abs(np.sin(2 * np.pi * x)),
                           potential=lambda x: np.sin(np.pi * x) ** 4)
        vals = solve_fem(spec, grid, tg).values
        assert np.max(np.abs(vals - vals[:, ::-1])) < 1e-12

    def test_positivity_nonneg_data(self):
        grid = Grid1D(128)
        tg = TimeGrid(128, 0.5)
        spec = ProblemSpec(alpha=0.5, T=0.5, u0=1.0, f=lambda x: np.abs(np.sin(2 * np.pi * x)),
                           potential=lambda x: np.sin(np.pi * x) ** 4)
        vals = solve_fem(spec, grid, tg).values
        assert vals.min() >= -1e-10

    def test_pde_residual_identity_at_T(self):
        # f - A_q u(T) should match the discrete fractional derivative at T
        grid = Grid1D(256)
        tg = TimeGrid(512, 0.5)
        q = lambda x: np.sin(np.pi * x) ** 4
        f = lambda x: np.abs(np.sin(2 * np.pi * x))
        spec = ProblemSpec(alpha=0.5, T=0.5, u0=1.0, f=f, potential=q)
        traj = solve_fem(spec, grid, tg)
        dalpha = caputo_derivative_at_T(traj, tg, 0.5)
        x = grid.nodes[grid.interior]
        u = traj.final
        h = grid.h
        lap = (u[:-2] - 2 * u[1:-1] + u[2:]) / h**2
        resid = f(x) - (-lap + q(x) * u[grid.interior]) - dalpha[grid.interior]
        assert mass_norm(grid, np.pad(resid, 1)) < 1e-2

    def test_lifted_dirichlet_steady(self):
        from scipy.integrate import solve_bvp

        grid = Grid1D(256)
        q = lambda x: np.sin(np.pi * x) ** 4
        f = lambda x: np.abs(np.sin(2 * np.pi * x))
        spec = ProblemSpec(alpha=0.5, T=500.0, u0=1.0, f=f,
                           potential=q, dirichlet=(0.5, 0.25))
        u = solve_fem(spec, grid, TimeGrid(256, spec.T)).final
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
    def _spec_2d(self):
        return ProblemSpec(
            alpha=0.5, T=0.5, domain="unit_square",
            u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            diffusion=lambda x, y: 1.0 + np.sin(np.pi * x) * y * (1 - y),
            f=lambda x, y: np.minimum(x, 1 - x) * np.exp(x) * np.sin(2 * np.pi * y),
        )

    def test_2d_self_convergence(self):
        spec = self._spec_2d()
        coarse = solve_fem(spec, Grid2D(32), TimeGrid(64, spec.T)).final
        fine = solve_fem(spec, Grid2D(64), TimeGrid(128, spec.T)).final
        # restrict fine to coarse nodes (every other node per direction)
        fine_grid = Grid2D(64)
        f2 = fine.reshape(65, 65)[::2, ::2].ravel()
        gap = mass_norm(Grid2D(32), coarse - f2)
        ref = mass_norm(Grid2D(32), f2)
        assert gap / ref < 1e-2

    def test_2d_laplace_single_mode(self):
        spec = ProblemSpec(
            alpha=0.5, T=0.5, domain="unit_square",
            u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            f=0.0,
        )
        grid = Grid2D(48)
        u = solve_fem(spec, grid, TimeGrid(96, spec.T)).final
        lam = 2 * np.pi**2
        factor = float(ml_neg(0.5, 1.0, np.array([lam * 0.5**0.5]))[0])
        pts = grid.nodes
        ref = factor * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        assert mass_norm(grid, u - ref) < 5e-3


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
        return (self.C * op.M + op.A).toarray()[np.ix_(I, I)], op.M.toarray()[np.ix_(I, I)]

    def test_factorized_matches_dense_solve(self, op):
        K, _ = self._dense(op)
        rng = np.random.default_rng(0)
        solve = op.factorized(self.C)
        for rhs in (rng.standard_normal(K.shape[0]), rng.standard_normal((K.shape[0], 5))):
            ref = np.linalg.solve(K, rhs)
            assert np.max(np.abs(solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_failed_solve_raises(self, op, monkeypatch):
        # dpbtrs reports a bad argument through info, not by raising
        monkeypatch.setattr(fem_mod, "dpbtrs", lambda cb, rhs: (rhs, -2))
        with pytest.raises(NumericalError, match="dpbtrs"):
            op.factorized(self.C)(np.ones(op.interior.size))

    def test_mass_apply_interior_matches_dense(self, op):
        _, M_II = self._dense(op)
        v = np.random.default_rng(1).standard_normal((M_II.shape[0], 3))
        ref = M_II @ v
        assert np.max(np.abs(op.mass_apply_interior(v) - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(op.M_II.toarray(), M_II)

    @pytest.mark.parametrize("n", [48, 128])
    def test_modes_are_the_pencil_eigenpairs(self, n):
        op = FemOperator(Grid1D(n), lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
                         lambda x: 2.0 + np.cos(3 * x))
        I = op.interior
        A_II, M_II = op.A.toarray()[np.ix_(I, I)], op.M_II.toarray()
        lam, V = op.modes
        assert np.max(np.abs(V.T @ M_II @ V - np.eye(I.size))) <= 1e-13
        assert np.max(np.abs(A_II @ V - (M_II @ V) * lam)) <= 1e-12 * np.max(lam)
        ref = scipy.linalg.eigh(A_II, M_II, eigvals_only=True)
        assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(ref)

    def test_measured_bandwidth(self, op):
        I = op.interior
        ab = _upper_band((self.C * op.M + op.A)[I][:, I])
        expected = op.grid.n if isinstance(op.grid, Grid2D) else 1
        assert ab.shape == (expected + 1, I.size)


class TestBlockedHistory:
    """The blocked history sum of `l1_evolve` against the step-by-step sum."""

    @pytest.mark.parametrize("grid", [Grid1D(64), Grid2D(8)], ids=["1d", "2d"])
    @pytest.mark.parametrize("n_steps", [1, HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                         HISTORY_BLOCK + 1, 100])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])  # 1.0: backward Euler, b_0 = 1
    @pytest.mark.parametrize("loaded", [False, True], ids=["free", "load"])
    def test_matches_stepwise(self, grid, n_steps, p, alpha, loaded):
        op = FemOperator(grid, 1.0, 0.5)
        shape = (op.interior.size,) if p == 1 else (op.interior.size, p)
        rng = np.random.default_rng(n_steps + 7 * p)
        w0 = rng.standard_normal(shape)
        load = rng.standard_normal(shape) if loaded else None
        tg = TimeGrid(n_steps, 0.5)
        ours = l1_evolve(op, alpha, tg, w0, load)
        ref = l1_evolve_stepwise(op, alpha, tg, w0, load)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBlockedResponses:
    """The modal engine `l1_responses` runs the same blocked march as
    `l1_evolve`; checked against the step-by-step recursion."""

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
            assert ours.shape == ref.shape == (n_steps + 1, lam.size)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_steps", [1, 33, 512])
    def test_backward_euler_closed_form(self, lam, n_steps):
        # alpha = 1: r^N = (1 + tau lam)^(-N)
        tg = TimeGrid(n_steps, 0.5)
        r = l1_responses(1.0, tg, lam)[0][-1]
        ref = (1.0 + tg.tau * lam) ** -n_steps
        assert np.allclose(r, ref, rtol=1e-12, atol=0.0)


class TestSpectralFemAgreement:
    def test_with_source_cross_validation(self):
        # mixed initial state + hat source: modal solve (200 modes) vs the
        # FEM engine at fine resolution
        alpha, T = 0.5, 0.5
        spec = ProblemSpec(alpha=alpha, T=T, u0=lambda x: np.sin(np.pi * x),
                           f=lambda x: np.minimum(x, 1 - x))
        ed = fd_eigendecomposition(0.0, 200, grid=Grid1D(2048))
        u_spectral = solve_spectral(spec, ed, T)
        grid = Grid1D(512)
        u_fem = solve_fem(spec, grid, TimeGrid(4096, T)).final
        u_ref = np.interp(grid.nodes, ed.grid.nodes, u_spectral)
        assert mass_norm(grid, u_fem - u_ref) <= 2e-4

    def test_joint_refinement_with_potential(self):
        # nonzero potential: the FEM/spectral gap shrinks under joint
        # space-time refinement
        q = lambda x: np.sin(np.pi * x) ** 4
        spec = ProblemSpec(alpha=0.5, T=0.5, u0=lambda x: np.sin(np.pi * x),
                           f=lambda x: np.minimum(x, 1 - x),
                           potential=q)
        ed = fd_eigendecomposition(q, 128, grid=Grid1D(2048))
        u_spectral = solve_spectral(spec, ed, 0.5)
        gaps = []
        for n, steps in [(64, 64), (128, 256), (256, 1024)]:
            grid = Grid1D(n)
            u = solve_fem(spec, grid, TimeGrid(steps, 0.5)).final
            ref = np.interp(grid.nodes, ed.grid.nodes, u_spectral)
            gaps.append(mass_norm(grid, u - ref))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


class TestConvergence:
    def test_orders_single_mode(self):
        spec = ProblemSpec(alpha=0.5, T=0.5, u0=lambda x: np.sin(np.pi * x), f=0.0)

        def reference(grid):
            return spectral_single_mode(0.5, 0.5, grid)

        report = convergence_study(
            spec, reference, space_levels=(16, 32, 64), time_levels=(32, 64, 128),
            fine_steps=2048, fine_n=512,
        )
        assert report.space_order >= 1.9
        assert report.time_order >= 0.5

    def test_identical_runs_identical_errors(self):
        spec = ProblemSpec(alpha=0.5, T=0.5, u0=lambda x: np.sin(np.pi * x), f=0.0)

        def reference(grid):
            return spectral_single_mode(0.5, 0.5, grid)

        r1 = convergence_study(spec, reference, (16, 32), (16, 32), 256, 128)
        r2 = convergence_study(spec, reference, (16, 32), (16, 32), 256, 128)
        assert r1.space_errors == r2.space_errors
        assert r1.time_diffs == r2.time_diffs


def test_mass_inner_is_exact_for_linears():
    grid = Grid1D(16)
    one = np.ones(grid.n_nodes)
    x = grid.nodes
    assert mass_inner(grid, one, one) == pytest.approx(1.0, rel=1e-14)
    assert mass_inner(grid, x, one) == pytest.approx(0.5, rel=1e-14)
    g2 = Grid2D(8)
    one2 = np.ones(g2.n_nodes)
    assert mass_inner(g2, one2, one2) == pytest.approx(1.0, rel=1e-13)
