import numpy as np
import pytest

from fracinv.errors import ParameterError
from fracinv.fem import FemOperator, TimeGrid, mass_inner, mass_norm, solve_fem
from fracinv.grids import Grid1D, Grid2D
from fracinv.inverse import (
    _trilinear_mass_1d,
    InverseSetup,
    LMConfig,
    LMState,
    add_noise,
    forward_map,
    jacobian_T,
    jacobian_v_matrix,
    lm_reconstruct,
    lm_step,
)
from fracinv.mittag_leffler import ml_neg
from fracinv.problems import ProblemSpec

from oracles import ipp_jacobian_columns, jacobian_v_adjoint_apply, jacobian_v_apply


HAT = lambda x: np.minimum(x, 1 - x)
SIN4 = lambda x: np.sin(np.pi * x) ** 4


def bp_setup(n=48, steps=64, alpha=0.5):
    return InverseSetup("bp", Grid1D(n), alpha, steps, f=HAT)


def isp_setup(n=48, steps=64, alpha=0.5):
    return InverseSetup("isp", Grid1D(n), alpha, steps,
                        u0=lambda x: np.sin(2 * np.pi * x))


def ipp_setup(n=48, steps=64, alpha=0.5):
    return InverseSetup("ipp", Grid1D(n), alpha, steps, u0=1.0,
                        f=lambda x: np.abs(np.sin(2 * np.pi * x)),
                        dirichlet=(0.0, 0.0))


class TestAddNoise:
    def test_zero_noise_exact(self):
        g = np.sin(np.linspace(0, np.pi, 33))
        obs = add_noise(g, 0.0, seed=5)
        assert np.array_equal(obs.g_delta, g)
        assert obs.noise_level == 0.0

    def test_law_of_large_numbers(self):
        n = 4001
        g = np.ones(n)
        obs = add_noise(g, 0.01, seed=7)
        z = (obs.g_delta - 1.0) / 0.01
        assert abs(z.mean()) < 3.0 / np.sqrt(n)

    def test_deterministic_per_seed(self):
        g = np.linspace(0, 1, 65)
        a = add_noise(g, 0.05, seed=99)
        b = add_noise(g, 0.05, seed=99)
        assert np.array_equal(a.g_delta, b.g_delta)
        c = add_noise(g, 0.05, seed=100)
        assert not np.array_equal(a.g_delta, c.g_delta)

    @pytest.mark.parametrize("epsilon", [-0.01, float("nan"), float("inf")])
    def test_rejects_bad_epsilon(self, epsilon):
        # epsilon = inf used to return infinite data with noise_level inf
        with pytest.raises(ParameterError, match="epsilon"):
            add_noise(np.ones(9), epsilon, seed=1)


class TestForwardMap:
    @pytest.mark.parametrize("kind", ["bp", "isp", "ipp"])
    def test_consistency_with_solver(self, kind):
        # v lands in u0, f or the potential; sin(pi x) is an admissible potential
        setup = {"bp": bp_setup, "isp": isp_setup, "ipp": ipp_setup}[kind]()
        v = np.sin(np.pi * setup.grid.nodes)
        spec = {
            "bp": ProblemSpec(alpha=0.5, T=0.5, u0=v, f=HAT),
            "isp": ProblemSpec(alpha=0.5, T=0.5, u0=lambda x: np.sin(2 * np.pi * x), f=v),
            "ipp": ProblemSpec(alpha=0.5, T=0.5, u0=1.0,
                               f=lambda x: np.abs(np.sin(2 * np.pi * x)),
                               potential=v, dirichlet=(0.0, 0.0)),
        }[kind]
        direct = solve_fem(spec, setup.grid, TimeGrid(setup.n_steps, 0.5)).final
        via_map = forward_map(setup, v, 0.5)
        if setup.modal:
            # bp/isp run the same L1 scheme mode by mode: equal up to rounding
            assert np.max(np.abs(via_map - direct)) <= 1e-10 * np.max(np.abs(direct))
        else:
            assert np.array_equal(direct, via_map)

    def test_isp_zero_source_is_pure_decay(self):
        setup = isp_setup()
        out = forward_map(setup, np.zeros(setup.grid.n_nodes), 0.5)
        # u0 = sin(2 pi x) decays by the single-mode factor
        lam = 4 * np.pi**2
        factor = float(ml_neg(0.5, 1.0, np.array([lam * 0.5**0.5]))[0])
        ref = factor * np.sin(2 * np.pi * setup.grid.nodes)
        assert mass_norm(setup.grid, out - ref) < 2e-3  # FEM discretization

    def test_ipp_admissibility(self):
        setup = ipp_setup()
        from fracinv.errors import AdmissibilityError

        bad = np.full(setup.grid.n_nodes, 3.0)  # above clamp slack
        with pytest.raises(AdmissibilityError):
            forward_map(setup, bad, 0.5)

    def test_ipp_forward_regression_snapshot(self):
        # frozen nodal values of the potential-problem forward map at the
        # true potential (bitwise-deterministic solver)
        setup = InverseSetup("ipp", Grid1D(64), 0.5, 64, u0=1.0,
                             f=lambda x: np.abs(np.sin(2 * np.pi * x)),
                             dirichlet=(0.0, 0.0))
        q = SIN4(setup.grid.nodes)
        u = forward_map(setup, q, 0.5)
        golden = {
            16: 1.2781650600168651e-01,  # x = 0.25
            32: 1.6112152953397604e-01,  # x = 0.50
            48: 1.2781650600168504e-01,  # x = 0.75
        }
        for i, val in golden.items():
            assert u[i] == pytest.approx(val, rel=1e-12)


class _Stepped(InverseSetup):
    """The same setup on the L1 time stepper: the modal engine's oracle."""

    modal = False


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


_COEFFICIENTS = {
    "unit": {},
    "variable_diffusion": {"diffusion": lambda x: 1.0 + 0.5 * np.sin(np.pi * x)},
    "dirichlet": {"dirichlet": (0.3, 0.7)},
}
_MODAL_CASES = [(n, alpha, "unit") for n in (48, 64, 96, 128) for alpha in (0.25, 0.5, 0.75)]
_MODAL_CASES += [(64, 0.5, "variable_diffusion"), (64, 0.5, "dirichlet")]
_IPP_CASES = [(n, alpha, "unit") for n in (48, 64, 96, 128) for alpha in (0.25, 0.5, 0.75)]
_IPP_CASES += [(64, 0.5, "variable_diffusion")]
_KNOWN = {
    "bp": {"f": HAT},
    "isp": {"u0": lambda x: np.sin(2 * np.pi * x)},
    # 5.3's known data: u0 = 1 and zero boundary values
    "ipp": {"u0": 1.0, "f": lambda x: np.abs(np.sin(2 * np.pi * x)), "dirichlet": (0.0, 0.0)},
}


class TestModalEngine:
    @pytest.mark.parametrize(
        "n, alpha, coefficients, kind",
        [case + (kind,) for case in _MODAL_CASES for kind in ("bp", "isp")]
        + [case + ("ipp",) for case in _IPP_CASES])
    def test_matches_time_stepper(self, n, alpha, coefficients, kind):
        known = dict(_KNOWN[kind], **_COEFFICIENTS[coefficients])
        setup = InverseSetup(kind, Grid1D(n), alpha, 256, **known)
        oracle = _Stepped(kind, Grid1D(n), alpha, 256, **known)
        assert setup.modal and not oracle.modal
        x = setup.grid.nodes
        v = np.sin(np.pi * x) + 0.5 * HAT(3 * x % 1.0)  # in [0, 2]: an admissible potential
        assert _relative_gap(jacobian_v_matrix(setup, v, 0.45),
                             jacobian_v_matrix(oracle, v, 0.45)) <= 1e-10
        assert _relative_gap(forward_map(setup, v, 0.45), forward_map(oracle, v, 0.45)) <= 1e-10

    def test_interval_is_modal_square_is_not(self):
        assert bp_setup().modal and isp_setup().modal and ipp_setup().modal
        assert not InverseSetup("bp", Grid2D(8), 0.5, 8, f=0.0).modal

    def test_ipp_on_square_rejected(self):
        # rejected before any forward solve, not first by the Jacobian
        with pytest.raises(ParameterError, match="one-dimensional"):
            InverseSetup("ipp", Grid2D(8), 0.5, 8, u0=1.0, f=0.0)

    @pytest.mark.parametrize("n, alpha, coefficients", _IPP_CASES)
    def test_ipp_matches_column_oracle(self, n, alpha, coefficients):
        # at a non-constant admissible potential iterate
        setup = InverseSetup("ipp", Grid1D(n), alpha, 256,
                             **_KNOWN["ipp"], **_COEFFICIENTS[coefficients])
        x = setup.grid.nodes
        v = 0.8 * SIN4(x) + 0.3 * HAT(3 * x % 1.0)
        assert _relative_gap(jacobian_v_matrix(setup, v, 0.45),
                             ipp_jacobian_columns(setup, v, 0.45)) <= 1e-10

    @pytest.mark.parametrize("make", [bp_setup, isp_setup, ipp_setup], ids=["bp", "isp", "ipp"])
    def test_cached_responses(self, make):
        # F at T, then T', then T again reads what a fresh operator gives at T
        setup = make()
        v = 0.8 * SIN4(setup.grid.nodes)
        first = forward_map(setup, v, 0.45)
        forward_map(setup, v, 0.5)
        again = forward_map(setup, v, 0.45)
        assert np.array_equal(again, first)
        assert np.array_equal(again, forward_map(make(), v, 0.45))
        r, s = setup._operator_for(v).responses(setup.alpha, TimeGrid(setup.n_steps, 0.45))
        assert not (r.flags.writeable or s.flags.writeable)

    def test_old_responses_freed_before_march(self, monkeypatch):
        # the march at a new T runs while the operator holds no older pair
        import weakref

        import fracinv.fem as fem_mod

        op = bp_setup()._operator_for(None)
        old = weakref.ref(op.responses(0.5, TimeGrid(64, 0.45))[0])
        alive = []

        def probing(*args, **kwargs):
            alive.append(old() is not None)
            return l1_responses(*args, **kwargs)

        l1_responses = fem_mod.l1_responses
        monkeypatch.setattr(fem_mod, "l1_responses", probing)
        op.responses(0.5, TimeGrid(64, 0.5))
        assert alive == [False]

    @pytest.mark.parametrize("make", [bp_setup, isp_setup, ipp_setup], ids=["bp", "isp", "ipp"])
    def test_one_march_per_time(self, make, monkeypatch):
        # at max_iter = 3: one march at each T_k, k = 0..3, shared by F(v_k,
        # T_k) and the v-Jacobian, and one at each T_k + dT, k = 0..2
        import fracinv.fem as fem_mod

        setup = make(n=32, steps=32)
        obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 1e-2, seed=1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return l1_responses(*args, **kwargs)

        l1_responses = fem_mod.l1_responses
        monkeypatch.setattr(fem_mod, "l1_responses", counting)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                       max_iter=3, stop="max_iter")
        lm_reconstruct(setup, obs, cfg)
        assert len(calls) == 7

    @pytest.mark.parametrize("make", [bp_setup, isp_setup])
    def test_one_eigensolve_per_setup(self, make, monkeypatch):
        assert _eigh_calls(make, 4, monkeypatch) == 1

    @pytest.mark.parametrize("make", [ipp_setup], ids=["ipp"])
    def test_one_eigensolve_per_iterate(self, make, monkeypatch):
        # the potential problem's operator moves with v: one eigh for the
        # data synthesis and one per iterate 0..3, shared by F(v_k, T_k), the
        # v-Jacobian and F(v_k, T_k + dT)
        assert _eigh_calls(make, 3, monkeypatch) == 5


def _eigh_calls(make, max_iter, monkeypatch) -> int:
    """The number of eigh calls in a max_iter-step reconstruction."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counting)
    setup = make(n=32, steps=32)
    obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 1e-2, seed=1)
    cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                   max_iter=max_iter, stop="max_iter")
    lm_reconstruct(setup, obs, cfg)
    return len(calls)


class TestJacobians:
    def test_trilinear_mass_is_potential_mass(self):
        # B(u) is the potential's part of A: A(q = u) - A(q = 0), here from
        # FemOperator's Gauss quadrature of the same P1 product. A tiny
        # diffusion keeps the stiffness (a / h) from cancelling in the
        # difference, which would cost digits at the 1e-14 level
        grid = Grid1D(64)
        rng = np.random.default_rng(3)
        us = rng.random((3, grid.n_nodes))
        diag, off = _trilinear_mass_1d(grid, us)
        A0 = FemOperator(grid, 1e-12, 0.0).A
        for u, d, o in zip(us, diag, off):
            B = (FemOperator(grid, 1e-12, u).A - A0).toarray()
            scale = np.max(np.abs(B))
            assert np.max(np.abs(np.diag(B) - d)) <= 1e-14 * scale
            assert np.max(np.abs(np.diag(B, 1) - o)) <= 1e-14 * scale
            assert np.max(np.abs(np.diag(B, -1) - o)) <= 1e-14 * scale
            single = _trilinear_mass_1d(grid, u)
            assert np.array_equal(single[0], d) and np.array_equal(single[1], o)

    def test_bp_zero_direction(self):
        setup = bp_setup()
        out = jacobian_v_apply(setup, np.zeros(setup.grid.n_nodes), 0.5,
                               np.zeros(setup.grid.n_nodes))
        assert np.all(out == 0.0)

    def test_bp_single_mode_sensitivity(self):
        setup = bp_setup(n=96, steps=256)
        h = np.sin(np.pi * setup.grid.nodes)
        out = jacobian_v_apply(setup, np.zeros(setup.grid.n_nodes), 0.5, h)
        factor = float(ml_neg(0.5, 1.0, np.array([np.pi**2 * 0.5**0.5]))[0])
        assert mass_norm(setup.grid, out - factor * h) < 1e-3

    @pytest.mark.parametrize("make", [bp_setup, isp_setup])
    def test_linear_kinds_fd_exact(self, make):
        setup = make()
        rng = np.random.default_rng(0)
        v = np.zeros(setup.grid.n_nodes)
        v[1:-1] = rng.random(setup.grid.n - 1)
        h = np.zeros(setup.grid.n_nodes)
        h[1:-1] = rng.standard_normal(setup.grid.n - 1)
        J = jacobian_v_matrix(setup, v, 0.5)
        Jh = J @ setup.nodal_to_param(h)
        worst = 0.0
        for eps in [1e-2, 1e-3, 1e-4]:
            fd = (forward_map(setup, v + eps * h, 0.5) - forward_map(setup, v, 0.5)) / eps
            worst = max(worst, mass_norm(setup.grid, fd - Jh))
        assert worst <= 1e-8 * max(mass_norm(setup.grid, Jh), 1e-12)

    def test_ipp_fd_slope(self):
        setup = ipp_setup()
        rng = np.random.default_rng(1)
        v = np.clip(0.5 + 0.2 * rng.random(setup.grid.n_nodes), 0, 2)
        v[0] = v[-1] = 0.0
        h = np.zeros(setup.grid.n_nodes)
        h[1:-1] = rng.standard_normal(setup.grid.n - 1)
        J = jacobian_v_matrix(setup, v, 0.5)
        Jh = J @ setup.nodal_to_param(h)
        errs = []
        eps_list = [1e-2, 1e-3, 1e-4]
        for eps in eps_list:
            fd = (forward_map(setup, v + eps * h, 0.5) - forward_map(setup, v, 0.5)) / eps
            errs.append(mass_norm(setup.grid, fd - Jh))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert slope >= 0.9

    @pytest.mark.parametrize("make", [bp_setup, isp_setup, ipp_setup])
    def test_adjoint_identity(self, make):
        setup = make()
        rng = np.random.default_rng(2)
        v = np.zeros(setup.grid.n_nodes)
        if setup.kind == "ipp":
            v[1:-1] = 0.5
        h = np.zeros(setup.grid.n_nodes)
        h[1:-1] = rng.standard_normal(setup.grid.n - 1)
        w = rng.standard_normal(setup.grid.n_nodes)
        lhs = mass_inner(setup.grid, jacobian_v_apply(setup, v, 0.5, h), w)
        rhs = mass_inner(setup.grid, h, jacobian_v_adjoint_apply(setup, v, 0.5, w))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    def test_jacobian_T_matches_modal_derivative(self):
        # d/dT E_{a,1}(-lam T^a) = -lam T^(a-1) E_{a,a}(-lam T^a)
        setup = bp_setup(n=96, steps=512)
        v = np.sin(np.pi * setup.grid.nodes)
        T = 0.5
        JT = jacobian_T(setup, v, T, 1e-3)
        lam = np.pi**2
        eaa = float(ml_neg(0.5, 0.5, np.array([lam * T**0.5]))[0])
        analytic = -lam * T ** (0.5 - 1.0) * eaa * v
        rel = mass_norm(setup.grid, JT - analytic) / mass_norm(setup.grid, analytic)
        assert rel < 0.05

    def test_jacobian_T_halving(self):
        # with a deliberately coarse dT the first-order truncation dominates
        # the solver bias, so halving dT roughly halves the deviation
        setup = bp_setup(n=96, steps=512)
        v = np.sin(np.pi * setup.grid.nodes)
        T = 0.5
        lam = np.pi**2
        eaa = float(ml_neg(0.5, 0.5, np.array([lam * T**0.5]))[0])
        analytic = -lam * T ** (0.5 - 1.0) * eaa * v
        d1 = mass_norm(setup.grid, jacobian_T(setup, v, T, 0.08) - analytic)
        d2 = mass_norm(setup.grid, jacobian_T(setup, v, T, 0.04) - analytic)
        assert d2 < 0.75 * d1

    def test_jacobian_T_steady_state_zero(self):
        # start at the discrete steady state; nothing moves with T
        setup = ipp_setup(n=48, steps=48)
        grid = setup.grid
        q = SIN4(grid.nodes)
        f = np.abs(np.sin(2 * np.pi * grid.nodes))
        # u0 equal to the FEM steady state (A u)_I = (M f)_I, zero on the boundary
        op = FemOperator(grid, 1.0, q)
        steady = np.zeros(grid.n_nodes)
        steady[op.interior] = op.factorized(0.0)(op.mass_apply(f)[op.interior])
        steady_setup = InverseSetup("ipp", grid, 0.5, 48, u0=steady,
                                    f=f, dirichlet=(0.0, 0.0))
        JT = jacobian_T(steady_setup, q, 0.5, 1e-3)
        assert mass_norm(setup.grid, JT) < 1e-4


class TestLMStep:
    def test_fixed_point_at_truth(self):
        setup = bp_setup()
        truth = np.sin(np.pi * setup.grid.nodes)
        g = forward_map(setup, truth, 0.5)  # inverse crime on purpose
        obs = add_noise(g, 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.5)
        state = LMState(v=truth.copy(), T=0.5, k=0)
        new = lm_step(setup, state, obs, cfg)
        assert mass_norm(setup.grid, new.v - truth) <= 1e-8
        assert abs(new.T - 0.5) <= 1e-8

    def test_penalty_dominance(self):
        setup = bp_setup()
        g = forward_map(setup, np.sin(np.pi * setup.grid.nodes), 0.5)
        obs = add_noise(g, 0.0, seed=1)
        cfg = LMConfig(gamma0=1e12, mu0=1e12, rho=0.8, T_init=0.4)
        state = LMState(v=np.zeros(setup.grid.n_nodes), T=0.4, k=0)
        new = lm_step(setup, state, obs, cfg)
        assert mass_norm(setup.grid, new.v) <= 1e-10
        assert abs(new.T - 0.4) <= 1e-10
        # handing lm_step u(T_k) = F(v_k, T_k) only saves the solve
        for make in (bp_setup, isp_setup, ipp_setup):
            setup = make(n=32, steps=32)
            x = setup.grid.nodes
            obs = add_noise(forward_map(setup, SIN4(x), 0.5), 1e-2, seed=2)
            cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45)
            state = LMState(v=0.5 * np.sin(np.pi * x), T=0.45, k=1)
            plain = lm_step(setup, state, obs, cfg)
            shared = lm_step(setup, state, obs, cfg, forward_map(setup, state.v, state.T))
            assert np.array_equal(plain.v, shared.v) and plain.T == shared.T

    def test_t_moves_toward_truth_with_v_fixed(self):
        # exact data, v pinned at truth by a huge v-penalty: the time update
        # must move toward the true terminal time from either side
        setup = bp_setup(n=64, steps=128)
        truth = np.sin(np.pi * setup.grid.nodes)
        g = forward_map(setup, truth, 0.5)
        obs = add_noise(g, 0.0, seed=1)
        for T0, sign in [(0.4, 1.0), (0.6, -1.0)]:
            cfg = LMConfig(gamma0=1e12, mu0=1e-8, rho=0.8, T_init=T0, t_step_cap=0.5)
            new = lm_step(setup, LMState(v=truth.copy(), T=T0, k=0), obs, cfg)
            assert (new.T - T0) * sign > 0


class TestLMReconstruct:
    def test_history_contract(self):
        setup = bp_setup(n=32, steps=32)
        truth = np.sin(np.pi * setup.grid.nodes)
        obs = add_noise(forward_map(setup, truth, 0.5), 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                       max_iter=5, t_step_cap=5e-4)
        res = lm_reconstruct(setup, obs, cfg, truth=truth)
        assert len(res.history) <= cfg.max_iter + 1
        assert res.k_star <= cfg.max_iter
        assert all(h[1] >= 0 and (np.isnan(h[2]) or h[2] >= 0) for h in res.history)
        k, r, e, T = (np.array(col) for col in zip(*res.history))
        assert list(k) == list(range(len(res.history))) == list(range(len(res.v_history)))
        assert list(e) == [mass_norm(setup.grid, v - truth) for v in res.v_history]
        assert e[res.k_star] == min(e)
        assert res.T_hat == T[res.k_star] and np.all(T > 0)

    def test_discrepancy_mode(self):
        setup = bp_setup(n=32, steps=32)
        truth = np.sin(np.pi * setup.grid.nodes)
        obs = add_noise(forward_map(setup, truth, 0.5), 1e-2, seed=3)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.5,
                       max_iter=12, stop="discrepancy", t_step_cap=5e-4)
        res = lm_reconstruct(setup, obs, cfg)
        r_at_stop = res.history[res.k_star][1]
        if res.converged:
            assert r_at_stop <= cfg.eta * obs.noise_level

    @pytest.mark.parametrize("make", [bp_setup, ipp_setup])
    def test_two_forward_solves_per_iteration(self, make, monkeypatch):
        # one solve at (v_k, T_k) shared by the residual, the step and the
        # Jacobians, one at T_k + deltaT, and the residual of the last iterate
        import fracinv.inverse as inverse_mod

        setup = make(n=32, steps=32)
        obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 0.0, seed=1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return forward_map(*args, **kwargs)

        monkeypatch.setattr(inverse_mod, "forward_map", counting)
        K = 3
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                       max_iter=K, stop="max_iter")
        res = lm_reconstruct(setup, obs, cfg)
        assert len(res.history) == K + 1
        assert len(calls) == 2 * K + 1

    def test_oracle_requires_truth(self):
        setup = bp_setup(n=32, steps=32)
        obs = add_noise(np.zeros(setup.grid.n_nodes), 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.4)
        with pytest.raises(ParameterError):
            lm_reconstruct(setup, obs, cfg, truth=None)

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ParameterError, match="max_iter"):
            LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.4, max_iter=-1)

    @pytest.mark.parametrize("name, value", [
        ("gamma0", np.nan), ("gamma0", np.inf), ("mu0", np.inf), ("mu0", np.nan),
        ("rho", np.nan), ("T_init", np.inf), ("T_init", np.nan), ("deltaT", np.nan),
        ("deltaT", np.inf), ("eta", np.inf), ("eta", np.nan), ("eta", 0.0), ("eta", -1.0),
        ("t_step_cap", np.nan), ("max_iter", np.nan),
    ])
    def test_non_finite_or_negative_settings_rejected(self, name, value):
        # these used to run to T_hat = inf, a diverged residual, a traceback
        # from cho_factor, or (eta <= 0) a discrepancy rule that never fires
        given = {"gamma0": 1e-2, "mu0": 1e-3, "rho": 0.8, "T_init": 0.4, name: value}
        with pytest.raises(ParameterError, match=name):
            LMConfig(**given)

    def test_exact_data_monotone_residual_start(self):
        # with exact data the residual is nonincreasing over the first
        # iterations (no noise to chase)
        setup = bp_setup(n=48, steps=64)
        truth = np.sin(np.pi * setup.grid.nodes)
        obs = add_noise(forward_map(setup, truth, 0.5), 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.5,
                       max_iter=6, t_step_cap=5e-4)
        res = lm_reconstruct(setup, obs, cfg, truth=truth)
        rs = [h[1] for h in res.history[:6]]
        assert all(a >= b - 1e-14 for a, b in zip(rs, rs[1:]))


class Test2DRestrictedRecovery:
    def test_bp_2d_smoke(self):
        # tiny 2D backward recovery through the tensor-sine parametrization
        from fracinv.cases import tensor_sine_basis

        grid = Grid2D(16)
        basis = tensor_sine_basis(grid, 3)
        setup = InverseSetup(
            "bp", grid, 0.5, 24,
            diffusion=lambda x, y: 1.0 + np.sin(np.pi * x) * y * (1 - y),
            f=lambda x, y: np.minimum(x, 1 - x) * np.exp(x) * np.sin(2 * np.pi * y),
            basis=basis,
        )
        pts = grid.nodes
        truth = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        g = forward_map(setup, truth, 0.5)
        obs = add_noise(g, 0.0, seed=9)
        cfg = LMConfig(gamma0=1e-3, mu0=2.7e-4, rho=0.8, T_init=0.5,
                       max_iter=6, t_step_cap=5e-4)
        res = lm_reconstruct(setup, obs, cfg, truth=truth)
        e = mass_norm(grid, res.v_hat - truth)
        assert e < 0.05
        assert abs(res.T_hat - 0.5) < 0.01
