import numpy as np
import pytest

import fracinv.fem as fem_mod
from fracinv.errors import (AdmissibilityError, FracinvError, NumericalError, ParameterError,
                            ShapeError)
from fracinv.fem import FemOperator, TimeGrid, mass_inner, mass_norm, solve_fem
from fracinv.grids import Grid1D, Grid2D
from fracinv.inverse import (
    _history_sums,
    _trilinear_mass_1d,
    InverseSetup,
    LMConfig,
    LMState,
    Observation,
    add_noise,
    forward_map,
    jacobian_T,
    jacobian_v_matrix,
    lm_reconstruct,
    lm_step,
)
from fracinv.mittag_leffler import ml_neg
from fracinv.problems import ProblemSpec

from oracles import (
    dense_modes,
    history_sums_by_gemm,
    ipp_jacobian_columns,
    jacobian_v_adjoint_apply,
    jacobian_v_apply,
    nodal_to_param,
    scipy_csr,
)


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

    @pytest.mark.parametrize("epsilon", [0.0, 1e-2])
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_bad_seed(self, epsilon, seed):
        # at epsilon = 0 seed -1 was accepted and recorded; above it numpy
        # raised an untyped ValueError (TypeError for 1.5), which ends a
        # table; True was recorded as the seed
        with pytest.raises(ParameterError, match="seed"):
            add_noise(np.ones(9), epsilon, seed=seed)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_snapshot_rejected(self, epsilon, bad):
        # a NaN gave noise_level NaN and no error
        g = np.ones(33)
        g[16] = bad
        with pytest.raises(ParameterError, match="snapshot"):
            add_noise(g, epsilon, seed=1)

    def test_numpy_integer_seed(self):
        g = np.linspace(0, 1, 65)
        assert np.array_equal(add_noise(g, 0.05, seed=np.int64(3)).g_delta,
                              add_noise(g, 0.05, seed=3).g_delta)


class TestForwardMap:
    @pytest.mark.parametrize("kind, two_d", [("bp", False), ("isp", False), ("ipp", False),
                                             ("bp", True), ("isp", True)],
                             ids=["bp", "isp", "ipp", "bp-2d", "isp-2d"])
    def test_consistency_with_solver(self, kind, two_d):
        # v lands in u0, f or the operator's potential; sin(pi x) is an admissible potential
        if two_d:
            known = {"f": lambda x, y: x * y} if kind == "bp" else {"u0": lambda x, y: x * (1 - y)}
            setup = InverseSetup(kind, Grid2D(8), 0.5, 16, **known)
            v = np.sin(np.pi * setup.grid.nodes[:, 0]) * setup.grid.nodes[:, 1]
            spec = ProblemSpec(alpha=0.5, **known, **{"u0" if kind == "bp" else "f": v})
        else:
            setup = {"bp": bp_setup, "isp": isp_setup, "ipp": ipp_setup}[kind]()
            v = np.sin(np.pi * setup.grid.nodes)
            spec = {
                "bp": ProblemSpec(alpha=0.5, u0=v, f=HAT),
                "isp": ProblemSpec(alpha=0.5, u0=lambda x: np.sin(2 * np.pi * x), f=v),
                "ipp": ProblemSpec(alpha=0.5, u0=1.0, f=lambda x: np.abs(np.sin(2 * np.pi * x)),
                                   dirichlet=(0.0, 0.0)),
            }[kind]
        op = FemOperator(setup.grid, 1.0, v if kind == "ipp" else 0.0)
        direct = solve_fem(spec, op, TimeGrid(setup.n_steps, 0.5))
        via_map = forward_map(setup, v, 0.5)
        if setup.modal:
            # the same L1 scheme mode by mode: equal up to rounding
            assert np.max(np.abs(via_map - direct)) <= 1e-10 * np.max(np.abs(direct))
        else:
            # the square's forward map and solve_fem run one time stepper
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
        bad = np.full(setup.grid.n_nodes, 3.0)  # above clamp slack
        with pytest.raises(AdmissibilityError):
            forward_map(setup, bad, 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_ipp_non_finite_iterate(self, value):
        # a NaN passes every bound of the clamp, so it is rejected by name
        setup = ipp_setup()
        bad = np.full(setup.grid.n_nodes, 0.5)
        bad[5] = value
        with pytest.raises(AdmissibilityError, match="not finite"):
            forward_map(setup, bad, 0.5)

    @pytest.mark.parametrize("grid", [Grid1D(16), Grid2D(4)], ids=["modal", "stepped"])
    def test_nan_diffusion_is_a_typed_error(self, grid):
        setup = InverseSetup("bp", grid, 0.5, 8, f=0.0, diffusion=np.nan)
        with pytest.raises(FracinvError):
            forward_map(setup, np.zeros(grid.n_nodes), 0.5)

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
        fem_mod._fixed_operator.cache_clear()  # a fresh fixed operator for bp/isp
        assert np.array_equal(again, forward_map(make(), v, 0.45))

    @pytest.mark.parametrize("make", [bp_setup, isp_setup, ipp_setup], ids=["bp", "isp", "ipp"])
    def test_one_march_per_time(self, make, monkeypatch):
        # at max_iter = 3 a run evaluates the step polynomial at every T_k and
        # T_k + dT: one march builds it for a fresh (alpha, N), none after
        setup = make(n=32, steps=32)
        obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 1e-2, seed=1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        march = fem_mod._l1_march
        monkeypatch.setattr(fem_mod, "_l1_march", counting)
        fem_mod._l1_polynomial.cache_clear()
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                       max_iter=3, stop="max_iter")
        first = lm_reconstruct(setup, obs, cfg)
        assert len(calls) == 1
        again = lm_reconstruct(setup, obs, cfg)
        assert len(calls) == 1
        assert np.array_equal(again.v_hat, first.v_hat) and again.T_hat == first.T_hat

    @pytest.mark.parametrize("n, alpha, coefficients", _IPP_CASES)
    def test_history_sums_match_k_gemms(self, n, alpha, coefficients):
        # ipp's history sums as divided differences of r^N, diagonal included,
        # against the two K-GEMMs over the stepwise responses
        setup = InverseSetup("ipp", Grid1D(n), alpha, 256,
                             **_KNOWN["ipp"], **_COEFFICIENTS[coefficients])
        x = setup.grid.nodes
        _, op, tg = setup._forward_problem(0.8 * SIN4(x) + 0.3 * HAT(3 * x % 1.0), 0.45)
        lam = op.modes[0]
        ours = _history_sums(*fem_mod.l1_responses(alpha, tg, lam), lam)
        for mine, ref in zip(ours, history_sums_by_gemm(alpha, tg, lam)):
            assert _relative_gap(mine, ref) <= 1e-10

    @pytest.mark.parametrize("make", [bp_setup, isp_setup])
    def test_one_eigensolve_per_process(self, make, monkeypatch):
        # the fixed operator and its modes are built once per (grid,
        # diffusion) in a process: two setups of two orders on one grid make
        # one dsbgvd call
        calls = _count_eigensolves(monkeypatch)
        for alpha in (0.5, 0.75):
            _reconstruct(make(n=32, steps=32, alpha=alpha), 4)
        assert calls == [1]

    @pytest.mark.parametrize("make", [ipp_setup], ids=["ipp"])
    def test_one_eigensolve_per_iterate(self, make, monkeypatch):
        # the potential problem's operator moves with v: one dsbgvd call for
        # the data synthesis and one per distinct iterate, shared by
        # F(v_k, T_k), the v-Jacobian and F(v_k, T_k + dT). Iterate 0, v = 0,
        # takes the fixed operator, whose modes the process then holds: a
        # second run on the grid skips that call
        calls = _count_eigensolves(monkeypatch)
        _reconstruct(make(n=32, steps=32), 3)
        assert calls == [5]
        _reconstruct(make(n=32, steps=32), 3)
        assert calls == [9]

    def test_zero_potential_takes_the_fixed_operator(self, monkeypatch):
        # every ipp run starts at v = 0: iterates 1..3 of a run at
        # max_iter = 3 build their operators, iterate 0 builds none
        setup = ipp_setup(n=32, steps=32)
        obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 1e-2, seed=1)
        assert setup._forward_problem(np.zeros(33), 0.5)[1] is setup.fixed_operator
        builds = []
        init = FemOperator.__init__
        monkeypatch.setattr(FemOperator, "__init__",
                            lambda op, *args: builds.append(1) or init(op, *args))
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45, max_iter=3,
                       stop="max_iter")
        result = lm_reconstruct(setup, obs, cfg)
        assert len(builds) == 3 and len(result.history) == 4

    @pytest.mark.parametrize("n", [48, 128])
    @pytest.mark.parametrize("kind", ["bp", "isp", "ipp"])
    def test_matches_dense_modes(self, n, kind, monkeypatch):
        # F and the v-Jacobian on dsbgvd's modes against the same maps on the
        # dense Cholesky reduction's, at variable diffusion and, for ipp, a
        # variable potential
        setup = InverseSetup(kind, Grid1D(n), 0.5, 256, **_KNOWN[kind],
                             **_COEFFICIENTS["variable_diffusion"])
        x = setup.grid.nodes
        v = 0.8 * SIN4(x) + 0.3 * HAT(3 * x % 1.0)
        ours = forward_map(setup, v, 0.45), jacobian_v_matrix(setup, v, 0.45)
        monkeypatch.setattr(FemOperator, "modes", property(dense_modes))
        refs = forward_map(setup, v, 0.45), jacobian_v_matrix(setup, v, 0.45)
        for mine, ref in zip(ours, refs):
            assert _relative_gap(mine, ref) <= 1e-10

    def test_array_diffusion_gets_its_own_operator(self):
        # a nodal array cannot key the process's operators; its setup builds
        # its own operator, which gives the bits of the scalar it equals
        grid = Grid1D(32)
        setup = InverseSetup("bp", grid, 0.5, 32, f=HAT, diffusion=np.ones(grid.n_nodes))
        assert setup.fixed_operator is not fem_mod._fixed_operator(grid, 1.0)
        v = SIN4(grid.nodes)
        assert np.array_equal(forward_map(setup, v, 0.45),
                              forward_map(bp_setup(n=32, steps=32), v, 0.45))
        assert np.array_equal(jacobian_v_matrix(setup, v, 0.45),
                              jacobian_v_matrix(bp_setup(n=32, steps=32), v, 0.45))


class TestSquareEngine:
    def test_one_factor_per_time(self, monkeypatch):
        # 5.1ii at max_iter = 3: one banded factorization at each T_k, k =
        # 0..3, shared by F(v_k, T_k) and the stepped v-Jacobian, and one at
        # each T_k + dT, k = 0..2; the operator then holds the last one only
        from fracinv.cases import get_case, make_setup, tensor_sine_basis

        case = get_case("5.1ii")
        setup = make_setup(case, 0.5, n=16, n_steps=32, basis=tensor_sine_basis(Grid2D(16), 3))
        obs = add_noise(forward_map(setup, case.truth_nodal(setup.grid), 0.5), 1e-2, seed=1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return dpbtrf(*args, **kwargs)

        dpbtrf = fem_mod._DPBTRF
        monkeypatch.setattr(fem_mod, "_DPBTRF", counting)
        cfg = LMConfig(gamma0=1e-3, mu0=2.7e-4, rho=0.8, T_init=0.45,
                       max_iter=3, stop="max_iter")
        result = lm_reconstruct(setup, obs, cfg)
        assert len(calls) == 7
        tg = TimeGrid(setup.n_steps, result.history[-1][3])
        c_last = fem_mod.L1Weights(setup.known.alpha, tg.n_steps).scale(tg.tau)
        c_held, factor, _ = setup.fixed_operator._factor
        assert c_held == c_last and factor.shape == (17, 15 * 15)

    # (e, k*, T_hat) of `fracinv table` cells at alpha 0.5, seed 7, t_init 0.45,
    # max_iter 24, when every column of the stepped v-Jacobian ran through dpbtrs
    DPBTRS_CELLS = {
        "5.1ii": [(0.0, 0.026189577441285448, 20, 0.44891217265397193),
                  (1e-2, 0.026952325755782845, 10, 0.44919881686153124)],
        "5.2ii": [(0.0, 0.008671647566417194, 12, 0.47775501533902476),
                  (1e-2, 0.017186293514515272, 4, 0.45906772528125)],
    }

    @pytest.mark.parametrize("case_id", sorted(DPBTRS_CELLS))
    def test_table_cells_as_with_dpbtrs(self, case_id, tmp_path):
        # the row sweep moves e and T_hat by rounding only, and no k*
        from fracinv.config import parse_config
        from fracinv.experiments import run_table

        cfg = tmp_path / "sq.cfg"
        cfg.write_text(f"[experiment]\ncase = {case_id}\nalphas = 0.5\nepsilons = 0 1e-2\n"
                       f"seed = 7\nt_init = 0.45\nmax_iter = 24\n[output]\ndir = {tmp_path}\n")
        rows = run_table(parse_config(cfg))
        assert len(rows) == 2
        for (_, _, eps, e, k_star, t_hat, note), ref in zip(rows, self.DPBTRS_CELLS[case_id]):
            assert (eps, k_star, note) == (ref[0], ref[2], "")
            assert e == pytest.approx(ref[1], rel=1e-9)
            assert t_hat == pytest.approx(ref[3], rel=1e-9)


def _count_eigensolves(monkeypatch) -> list:
    """Empty the process's operator cache and count, in the one entry of the
    list returned, the dsbgvd calls made from here on."""
    fem_mod._fixed_operator.cache_clear()
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return dsbgvd(*args)

    dsbgvd = fem_mod._DSBGVD
    monkeypatch.setattr(fem_mod, "_DSBGVD", counting)
    return calls


def _reconstruct(setup, max_iter: int):
    """A max_iter-step reconstruction from a noisy SIN4 snapshot at T = 0.5."""
    obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 1e-2, seed=1)
    cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                   max_iter=max_iter, stop="max_iter")
    return lm_reconstruct(setup, obs, cfg)


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
        A0 = scipy_csr(FemOperator(grid, 1e-12, 0.0).A)
        for u, d, o in zip(us, diag, off):
            B = (scipy_csr(FemOperator(grid, 1e-12, u).A) - A0).toarray()
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
        Jh = J @ nodal_to_param(setup, h)
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
        Jh = J @ nodal_to_param(setup, h)
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
        JT = jacobian_T(setup, v, T, 1e-3, forward_map(setup, v, T))
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
        f0 = forward_map(setup, v, T)
        d1 = mass_norm(setup.grid, jacobian_T(setup, v, T, 0.08, f0) - analytic)
        d2 = mass_norm(setup.grid, jacobian_T(setup, v, T, 0.04, f0) - analytic)
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
        steady[op.interior] = op.factorized(0.0)((op.M @ f)[op.interior])
        steady_setup = InverseSetup("ipp", grid, 0.5, 48, u0=steady,
                                    f=f, dirichlet=(0.0, 0.0))
        JT = jacobian_T(steady_setup, q, 0.5, 1e-3, forward_map(steady_setup, q, 0.5))
        assert mass_norm(setup.grid, JT) < 1e-4


class TestLMStep:
    def test_fixed_point_at_truth(self):
        setup = bp_setup()
        truth = np.sin(np.pi * setup.grid.nodes)
        g = forward_map(setup, truth, 0.5)  # inverse crime on purpose
        obs = add_noise(g, 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.5)
        state = LMState(v=truth.copy(), T=0.5, k=0)
        new = lm_step(setup, state, obs, cfg, g)
        assert mass_norm(setup.grid, new.v - truth) <= 1e-8
        assert abs(new.T - 0.5) <= 1e-8

    def test_penalty_dominance(self):
        setup = bp_setup()
        g = forward_map(setup, np.sin(np.pi * setup.grid.nodes), 0.5)
        obs = add_noise(g, 0.0, seed=1)
        cfg = LMConfig(gamma0=1e12, mu0=1e12, rho=0.8, T_init=0.4)
        state = LMState(v=np.zeros(setup.grid.n_nodes), T=0.4, k=0)
        new = lm_step(setup, state, obs, cfg, forward_map(setup, state.v, state.T))
        assert mass_norm(setup.grid, new.v) <= 1e-10
        assert abs(new.T - 0.4) <= 1e-10

    def test_t_moves_toward_truth_with_v_fixed(self):
        # exact data, v pinned at truth by a huge v-penalty: the time update
        # must move toward the true terminal time from either side
        setup = bp_setup(n=64, steps=128)
        truth = np.sin(np.pi * setup.grid.nodes)
        g = forward_map(setup, truth, 0.5)
        obs = add_noise(g, 0.0, seed=1)
        for T0, sign in [(0.4, 1.0), (0.6, -1.0)]:
            cfg = LMConfig(gamma0=1e12, mu0=1e-8, rho=0.8, T_init=T0, t_step_cap=0.5)
            new = lm_step(setup, LMState(v=truth.copy(), T=T0, k=0), obs, cfg,
                          forward_map(setup, truth, T0))
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
        # the run stops at the first iterate under eta * noise_level
        res, bound = _discrepancy_run(eta=1.1)
        hits = [k for k, r, _, _ in res.history if r <= bound]
        assert res.converged and res.k_star == len(res.history) - 1 == hits[0]

    def test_discrepancy_missed_returns_last_iterate(self):
        res, bound = _discrepancy_run(eta=1e-6)
        assert all(r > bound for _, r, _, _ in res.history)
        assert not res.converged and res.k_star == len(res.history) - 1 == 12

    @pytest.mark.parametrize("make", [bp_setup, ipp_setup])
    def test_two_forward_solves_per_iteration(self, make, monkeypatch):
        # one solve at (v_k, T_k) shared by the residual, the step and the
        # Jacobians, one at T_k + DELTA_T, and the residual of the last iterate
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

    @pytest.mark.parametrize("what", ["observation", "truth"])
    def test_data_on_another_grid_is_shape_error(self, what):
        # numpy's untyped broadcast ValueError, which is no FracinvError, used
        # to end a whole table instead of one cell
        setup = bp_setup(n=32, steps=32)
        right, wrong = np.ones(33), np.ones(17)
        obs = add_noise(wrong if what == "observation" else right, 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45, max_iter=1)
        with pytest.raises(ShapeError, match=what):
            lm_reconstruct(setup, obs, cfg, truth=wrong if what == "truth" else right)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_truth_rejected(self, bad):
        # one NaN ended in numpy's "All-NaN slice encountered" from the oracle's nanargmin
        setup = bp_setup(n=32, steps=32)
        obs = add_noise(np.ones(33), 0.0, seed=1)
        truth = np.ones(33)
        truth[16] = bad
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45, max_iter=1)
        with pytest.raises(ParameterError, match="truth"):
            lm_reconstruct(setup, obs, cfg, truth=truth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_rejected(self, bad):
        # one NaN ended in "residual diverged at iteration 0", a divergence
        # named for bad data
        setup = bp_setup(n=32, steps=32)
        g_delta = np.ones(33)
        g_delta[16] = bad
        obs = Observation(g_delta=g_delta, epsilon=0.0, seed=1, noise_level=0.0)
        cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45, max_iter=1,
                       stop="max_iter")
        with pytest.raises(ParameterError, match="observation"):
            lm_reconstruct(setup, obs, cfg)

    def test_oracle_requires_truth(self):
        setup = bp_setup(n=32, steps=32)
        obs = add_noise(np.zeros(setup.grid.n_nodes), 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.4)
        with pytest.raises(ParameterError):
            lm_reconstruct(setup, obs, cfg, truth=None)

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ParameterError, match="max_iter"):
            LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.4, max_iter=-1)

    def test_fractional_max_iter_rejected(self):
        # max_iter = 2.5 used to pass, and lm_reconstruct then raised a TypeError
        with pytest.raises(ParameterError, match="max_iter"):
            LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.4, max_iter=2.5)

    def test_bool_max_iter_rejected(self):
        # max_iter = True used to run one iteration
        with pytest.raises(ParameterError, match="max_iter"):
            LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.4, max_iter=True)

    def test_fractional_step_count_rejected(self):
        # 2.7 steps used to be truncated to 2 without a word
        with pytest.raises(ParameterError, match="time steps"):
            InverseSetup("bp", Grid1D(8), 0.5, 2.7, f=HAT)

    @pytest.mark.parametrize("dT", [np.nan, np.inf])
    def test_diverged_time_step_is_numerical_error(self, dT, monkeypatch):
        # a step whose time is not finite is a diverged iterate, not a time
        # grid's ParameterError at the next F; at dT = inf and no cap the
        # iteration used to run on to T_hat = inf
        import fracinv.inverse as inverse_mod

        solve = inverse_mod._lm_solve_block
        monkeypatch.setattr(inverse_mod, "_lm_solve_block",
                            lambda *args: (solve(*args)[0], dT))
        setup = bp_setup(n=16, steps=16)
        obs = add_noise(forward_map(setup, SIN4(setup.grid.nodes), 0.5), 0.0, seed=1)
        cfg = LMConfig(gamma0=1e-2, mu0=1e-3, rho=0.8, T_init=0.45, max_iter=2,
                       stop="max_iter", t_step_cap=np.inf)
        with pytest.raises(NumericalError, match="diverged"):
            lm_reconstruct(setup, obs, cfg)

    @pytest.mark.parametrize("name, value", [
        ("gamma0", np.nan), ("gamma0", np.inf), ("mu0", np.inf), ("mu0", np.nan),
        ("rho", np.nan), ("T_init", np.inf), ("T_init", np.nan), ("T_init", 1e-3),
        ("eta", np.inf), ("eta", np.nan), ("eta", 0.0), ("eta", -1.0),
        ("t_step_cap", np.nan), ("max_iter", np.nan),
    ])
    def test_non_finite_or_negative_settings_rejected(self, name, value):
        # these used to run to T_hat = inf, a diverged residual, a traceback
        # from cho_factor, or (eta <= 0) a discrepancy rule that never fires;
        # T_init must exceed the time difference step, the time iterate's floor
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


    @pytest.mark.parametrize("grid", [Grid1D(32), Grid2D(8)], ids=["modal", "stepped"])
    def test_cells_in_either_order_give_the_same_bytes(self, grid):
        # cells on one grid share the process's fixed operator; what it holds
        # from one cell (responses, factor) never changes another's bytes
        from fracinv.cases import tensor_sine_basis

        basis = None if isinstance(grid, Grid1D) else tensor_sine_basis(grid, 2)
        truth = np.sin(np.pi * grid.nodes) if basis is None else basis[0]

        def cell(alpha, epsilon):
            setup = InverseSetup("bp", grid, alpha, 32, f=0.5, basis=basis)
            obs = add_noise(forward_map(setup, truth, 0.5), epsilon, seed=1)
            cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.45,
                           max_iter=3, stop="max_iter")
            res = lm_reconstruct(setup, obs, cfg)
            return res.v_hat.tobytes() + repr(res.history).encode()

        cells = [(0.5, 1e-2), (0.75, 1e-2), (0.5, 1e-3)]
        runs = []
        for order in (cells, cells[::-1]):
            fem_mod._fixed_operator.cache_clear()
            runs.append({key: cell(*key) for key in order})
        assert runs[0] == runs[1]


def _discrepancy_run(eta: float):
    """A bp run under the discrepancy rule at eta, and its bound eta * noise_level."""
    setup = bp_setup(n=32, steps=32)
    obs = add_noise(forward_map(setup, np.sin(np.pi * setup.grid.nodes), 0.5), 1e-2, seed=3)
    cfg = LMConfig(gamma0=1e-2, mu0=6.3e-3, rho=0.8, T_init=0.5, eta=eta,
                   max_iter=12, stop="discrepancy", t_step_cap=5e-4)
    return lm_reconstruct(setup, obs, cfg), eta * obs.noise_level


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
