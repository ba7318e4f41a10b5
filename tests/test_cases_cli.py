import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from fracinv.cases import (
    CASE_IDS,
    PRIOR_N_OBS,
    BenchmarkCase,
    estimate_prior_T,
    exact_observation,
    get_case,
    lm_config_for,
    make_setup,
    tensor_sine_basis,
)
from fracinv.cli import main as cli_main
from fracinv.config import parse_config
from fracinv.errors import ConfigError, DomainError, ParameterError, ShapeError
from fracinv.experiments import _write_table, emit_plot_data
from fracinv.grids import Grid1D, Grid2D
from fracinv.inverse import ReconstructionResult
from fracinv.spectral import build_eigendecomposition


class TestCases:
    def test_known_ids(self):
        assert set(CASE_IDS) == {"5.1i", "5.1ii", "5.2i", "5.2ii", "5.3"}
        with pytest.raises(ConfigError):
            get_case("nope")

    def test_spot_values(self):
        # printed formulas at specific points
        c = get_case("5.1i")
        assert c.truth(np.array([0.5]))[0] == pytest.approx(1.0)
        assert c.f(np.array([0.25]))[0] == pytest.approx(0.25)
        c = get_case("5.2i")
        assert c.truth(np.array([1.0 / 6.0]))[0] == pytest.approx(1.0)
        c = get_case("5.3")
        assert c.truth(np.array([0.5]))[0] == pytest.approx(1.0)
        assert c.u0(np.array([0.3]))[0] == 1.0

    def test_ref_coeff_matches_projection(self):
        # every interval case carries closed-form sine coefficients of the
        # estimator's reference field (f for bp, u0 less its boundary lift
        # otherwise), and they agree with numerical projection
        grid = Grid1D(2048)
        _, phi = build_eigendecomposition(16, grid)
        ns = np.arange(1, 17, dtype=float)
        x = grid.nodes
        interval = [get_case(cid) for cid in CASE_IDS if get_case(cid).domain == "interval"]
        assert [c.case_id for c in interval] == ["5.1i", "5.2i", "5.3"]
        for case in interval:
            assert case.ref_sine_coeff is not None, case.case_id
            a0, a1 = case.dirichlet or (0.0, 0.0)
            field = (case.f if case.kind == "bp" else case.u0)(x) - (a0 * (1 - x) + a1 * x)
            proj = phi @ (grid.trapezoid_weights() * field)
            assert np.max(np.abs(case.ref_sine_coeff(ns) - proj)) < 1e-5, case.case_id

    @pytest.mark.parametrize("case_id, grid", [("5.1i", Grid1D(128)), ("5.1ii", Grid2D(32))])
    def test_case_grid_is_the_setups(self, case_id, grid):
        # one rule for a case's mesh: its domain, n cells a side, default_n by default
        case = get_case(case_id)
        assert case.grid() == grid and case.grid(8) == type(grid)(8)
        assert make_setup(case, 0.5).grid == grid and make_setup(case, 0.5, n=8).grid == case.grid(8)

    @pytest.mark.parametrize("case_id", ["5.1i", "5.1ii"])
    def test_zero_is_not_the_default(self, case_id):
        # None means the case's default; 0 used to mean it too, 128 cells and 512 steps
        case = get_case(case_id)
        with pytest.raises(ShapeError):
            case.grid(0)
        with pytest.raises(ShapeError):
            make_setup(case, 0.5, n=0)
        with pytest.raises(ParameterError):
            make_setup(case, 0.5, n_steps=0)

    @pytest.mark.parametrize("case_id", ["5.1i", "5.2i", "5.3"])
    @pytest.mark.parametrize("T", [-0.1, np.nan])
    def test_snapshot_time_follows_the_time_grid_rule(self, case_id, T):
        # the sine synthesis of 5.1i and 5.2i took T = -0.1 (a ComplexWarning,
        # sin(pi x)-like values and a prior of 4.3e-10), where 5.3 raised
        case = get_case(case_id)
        with pytest.raises(ParameterError, match="T must be"):
            exact_observation(case, 0.5, case.grid(16), T=T)
        with pytest.raises(ParameterError, match="T must be"):
            estimate_prior_T(case, 0.5, T=T)

    @pytest.mark.parametrize("case_id, grid", [("5.1i", Grid2D(8)), ("5.3", Grid2D(8)),
                                               ("5.1ii", Grid1D(8))])
    def test_exact_observation_on_other_dimension_rejected(self, case_id, grid):
        # 5.1i on Grid2D(8) returned 162 values for its 81 nodes, 5.1ii on
        # Grid1D(8) a 9 x 9 square snapshot for its 9 nodes
        with pytest.raises(ShapeError, match=case_id):
            exact_observation(get_case(case_id), 0.5, grid)

    def test_exact_observation_deterministic(self):
        case = get_case("5.1i")
        g1 = exact_observation(case, 0.5, Grid1D(64))
        g2 = exact_observation(case, 0.5, Grid1D(64))
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("case_id", ["5.1i", "5.2i", "5.3"])
    def test_repeat_calls_bit_identical(self, case_id):
        # the first call builds the sine tables, the second reads them back
        # from the memo of `build_eigendecomposition`
        case = get_case(case_id)
        build_eigendecomposition.cache_clear()
        g1, t1 = exact_observation(case, 0.5, Grid1D(PRIOR_N_OBS)), estimate_prior_T(case, 0.5)
        g2, t2 = exact_observation(case, 0.5, Grid1D(PRIOR_N_OBS)), estimate_prior_T(case, 0.5)
        assert np.array_equal(g1, g2) and t1 == t2

    def test_lm_defaults_lookup(self):
        case = get_case("5.2i")
        cfg = lm_config_for(case, 0.5, T_init=0.4, max_iter=30, stop="oracle")
        assert cfg.gamma0 == 1e-4 and cfg.mu0 == 5e-8 and cfg.rho == 0.8
        assert cfg.T_init == 0.4 and cfg.t_step_cap == 5e-3
        with pytest.raises(ConfigError):
            lm_config_for(case, 0.33, T_init=0.4, max_iter=30, stop="oracle")

    def test_tensor_sine_basis_orthonormal(self):
        from fracinv.fem import mass_inner

        # orthonormal up to the P1 mass quadrature error O((k pi h)^2)
        grid = Grid2D(48)
        B = tensor_sine_basis(grid, 2)
        for i in range(4):
            for j in range(4):
                val = mass_inner(grid, B[i], B[j])
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=2e-2)


class TestConfig:
    def _write(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        return p

    def test_roundtrip(self, tmp_path):
        p = self._write(tmp_path, """
[experiment]
case = 5.1i
alphas = 0.5
epsilons = 0 1e-2
seed = 7
t_init = auto
max_iter = 9
stop = oracle

[mesh]
n = 32
steps = 16

[lm]
gamma0 = 1e-2
t_step_cap = 1e-3

[output]
dir = results
""")
        cfg = parse_config(p)
        assert cfg.case_id == "5.1i"
        assert cfg.epsilons == [0.0, 0.01]
        assert cfg.n == 32 and cfg.steps == 16
        assert cfg.lm_overrides == {"gamma0": 1e-2, "t_step_cap": 1e-3}
        assert cfg.out_dir == "results"

    def test_unknown_key_rejected(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_bad_number_rejected(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nalphas = x y\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("section, key, value", [
        ("mesh", "n", 0), ("mesh", "n", 1), ("mesh", "steps", 0),
        ("experiment", "max_iter", -1),
        ("experiment", "epsilons", "nan"), ("experiment", "epsilons", "0 inf"),
        ("experiment", "epsilons", -0.01), ("experiment", "alphas", 1.5),
        ("experiment", "alphas", 0), ("experiment", "alphas", "nan"),
        ("experiment", "seed", -1), ("lm", "rho", 2), ("experiment", "t_init", -1),
        ("experiment", "t_init", "inf"), ("experiment", "t_init", "nan"),
        ("lm", "gamma0", "nan"), ("lm", "mu0", "inf"),
        ("lm", "eta", -1), ("lm", "eta", 0), ("lm", "t_step_cap", "nan"),
    ])
    def test_out_of_range_rejected(self, tmp_path, section, key, value):
        # zero mesh sizes used to fall back to the case defaults silently; a NaN
        # epsilon used to write all-NaN data, and out-of-range alphas and
        # epsilons used to surface as numerical failures; a negative seed
        # ended in a traceback from the noise generator, and out-of-range LM
        # settings were reported as numerical failures; t_init = inf ran to
        # T_hat = inf, and a NaN or infinite weight ended in a
        # traceback from cho_factor
        p = self._write(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(p)

    def test_infinite_time_step_cap_is_no_cap(self, tmp_path):
        p = self._write(tmp_path, "[lm]\nt_step_cap = inf\n")
        assert parse_config(p).lm_overrides == {"t_step_cap": float("inf")}

    def test_seed_override_checked(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nseed = 3\n")
        assert parse_config(p, seed=5).seed == 5
        with pytest.raises(ConfigError, match="seed.*--seed"):
            parse_config(p, seed=-1)

    def test_parsed_config_frozen(self, tmp_path):
        cfg = parse_config(self._write(tmp_path, "[experiment]\nseed = 3\n"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 4


class TestCli:
    def test_ml_eval_prints_15_digits(self, capsys):
        rc = cli_main(["ml-eval", "1.0", "1.0", "-2.0"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out == "0.135335283236613"

    def test_ml_eval_gap_digits(self, capsys):
        # a gap point, served by the integral representation
        assert cli_main(["ml-eval", "0.5", "1", "-5"]) == 0
        assert capsys.readouterr().out.strip() == "0.110704637733069"

    @pytest.mark.parametrize("args, name", [(["1.5", "1", "-1"], "alpha"),
                                            (["0.5", "nan", "-1"], "beta"),
                                            (["0.5", "1", "nan"], "z"),
                                            (["0.5", "1", "5"], "z"),
                                            (["0.5", "1", "-inf"], "z")])
    def test_ml_eval_bad_arguments_exit_2(self, args, name, capsys):
        # these used to print "numerical failure" and exit 3
        assert cli_main(["ml-eval", *args]) == 2
        assert f"config error: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("z, expected", [("-5e1", "0.0112815362653238"),
                                             ("-1E+2", "0.00564161378298943")])
    def test_ml_eval_negative_z_with_exponent(self, z, expected, capsys):
        # argparse reads only plain decimals as negative numbers, so -5e1
        # used to be taken for an option and z reported missing
        assert cli_main(["ml-eval", "0.5", "1", z]) == 0
        assert cli_main(["ml-eval", "0.5", "1", "--", z]) == 0
        assert capsys.readouterr().out.split() == [expected, expected]

    @pytest.mark.parametrize("args, expected", [(["0.5", "0", "0"], "0"),
                                                (["0.7", "0", "-5"], "-0.0610056208357806")])
    def test_ml_eval_at_a_gamma_pole_of_beta(self, args, expected, capsys):
        # 1/Gamma(0) = 0: these exited 3 ("series did not converge") and 1
        # (a ValueError traceback from mpmath's gamma)
        assert cli_main(["ml-eval", *args]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_ml_eval_failure_exit_3(self, monkeypatch, capsys):
        import fracinv.cli as cli_mod

        def failing(params, z):
            raise DomainError("series did not converge")

        monkeypatch.setattr(cli_mod, "ml_eval", failing)
        assert cli_main(["ml-eval", "0.5", "1", "0.5"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[experiment]\ncase = not-a-case\n")
        rc = cli_main(["estimate-t", "--config", str(p)])
        assert rc == 2

    def test_negative_max_iter_exit_2(self, tmp_path, capsys):
        p = tmp_path / "neg.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nt_init = 0.45\nmax_iter = -1\n"
                     "stop = max_iter\n[mesh]\nn = 8\nsteps = 8\n")
        rc = cli_main(["recover-bp", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "max_iter" in capsys.readouterr().err

    def test_wrong_kind_exit_2(self, tmp_path, capsys):
        p = tmp_path / "ipp.cfg"
        p.write_text("[experiment]\ncase = 5.3\n[mesh]\nn = 8\nsteps = 8\n")
        assert cli_main(["recover-bp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "case 5.3 is an ipp benchmark, not bp" in capsys.readouterr().err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nepsilons = 0.01\n[mesh]\nn = 8\nsteps = 8\n")
        rc = cli_main(["forward", "--config", str(p), "--out", str(tmp_path / "o"),
                       "--seed", "-5"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_auto_prior_on_square_is_config_error(self, tmp_path, capsys):
        # no 2D estimator exists, and the true time must not stand in for one
        p = tmp_path / "sq.cfg"
        p.write_text("[experiment]\ncase = 5.1ii\nalphas = 0.5\nt_init = auto\n"
                     "max_iter = 1\n[mesh]\nn = 8\nsteps = 8\n")
        rc = cli_main(["table", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "5.1ii" in err and "t_init" in err
        assert cli_main(["estimate-t", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "5.1ii" in err and "t_init" in err

    @pytest.mark.parametrize("case_id", ["5.1i", "5.1ii"])
    def test_table_order_without_lm_defaults_exit_2(self, tmp_path, capsys, case_id):
        # the cell used to record the ConfigError as its note, and the table exited 0
        p = tmp_path / "a03.cfg"
        p.write_text(f"[experiment]\ncase = {case_id}\nalphas = 0.5 0.3\nt_init = 0.45\n"
                     "max_iter = 1\n[mesh]\nn = 8\nsteps = 8\n")
        assert cli_main(["table", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"case {case_id} has no defaults for alpha=0.3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        # configparser.read catches OSError only: this ended in a UnicodeDecodeError
        p = tmp_path / "latin1.cfg"
        p.write_bytes(b"[experiment]\ncase = 5.1i # caf\xe9\n")
        assert cli_main(["estimate-t", "--config", str(p)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_deltaT_is_an_unknown_key_exit_2(self, tmp_path, capsys):
        # the time difference step is the LM iteration's constant, not a setting
        p = tmp_path / "dt.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nalphas = 0.5\nt_init = 0.45\n"
                     "max_iter = 1\n[mesh]\nn = 16\nsteps = 16\n[lm]\ndeltaT = 1e-3\n")
        rc = cli_main(["recover-bp", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown key 'deltat' in [lm]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_auto_prior_at_the_time_step_exit_3(self, tmp_path, capsys, monkeypatch):
        # a prior the time iterate cannot start from fails as the estimator's
        # other failures do
        import fracinv.experiments as experiments_mod

        monkeypatch.setattr(experiments_mod, "estimate_prior_T", lambda case, alpha: 1e-3)
        p = tmp_path / "dt.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nalphas = 0.5\nt_init = auto\n"
                     "max_iter = 1\n[mesh]\nn = 16\nsteps = 16\n")
        rc = cli_main(["recover-bp", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "T_init" in err

    def test_threads_only_on_table(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.1i\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["forward", "--config", str(p), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_zero_threads_exit_2(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nt_init = 0.45\n")
        rc = cli_main(["table", "--config", str(p), "--out", str(tmp_path / "o"),
                       "--threads", "0"])
        assert rc == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["forward", "table"])
    @pytest.mark.parametrize("where", ["--out file", "empty dir"])
    def test_output_directory_not_made_exit_2(self, tmp_path, monkeypatch, capsys,
                                               command, where):
        # an empty [output] dir and an --out naming a file ended in a
        # FileNotFoundError or FileExistsError traceback, the table's after its cells
        import fracinv.experiments as experiments

        cells = []
        monkeypatch.setattr(experiments, "_table_cell", lambda job: cells.append(job))
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nalphas = 0.5\nepsilons = 0 1e-2\n"
                     "t_init = 0.45\nmax_iter = 1\n[mesh]\nn = 8\nsteps = 8\n"
                     + ("[output]\ndir =\n" if where == "empty dir" else ""))
        out = ["--out", str(p)] if where == "--out file" else []
        assert cli_main([command, "--config", str(p), *out]) == 2
        assert "output directory" in capsys.readouterr().err
        assert cells == []

    def test_percent_in_config_value_is_literal(self, tmp_path):
        # configparser's default interpolation ended this in a traceback, exit 1
        out = tmp_path / "out100%"
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nalphas = 0.5\nepsilons = 0\n"
                     f"[mesh]\nn = 8\nsteps = 8\n[output]\ndir = {out}\n")
        assert cli_main(["forward", "--config", str(p)]) == 0
        assert os.listdir(out)

    def test_forward_byte_deterministic(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "[experiment]\ncase = 5.1i\nalphas = 0.5\nepsilons = 0 1e-2\nseed = 3\n"
            "[mesh]\nn = 32\nsteps = 16\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["forward", "--config", str(p), "--out", str(out1)]) == 0
        assert cli_main(["forward", "--config", str(p), "--out", str(out2)]) == 0
        for name in sorted(os.listdir(out1)):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, name

    def test_forward_zero_noise_observation_equals_snapshot(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "[experiment]\ncase = 5.1i\nalphas = 0.5\nepsilons = 0\nseed = 3\n"
            "[mesh]\nn = 32\nsteps = 16\n"
        )
        out = tmp_path / "o"
        assert cli_main(["forward", "--config", str(p), "--out", str(out)]) == 0
        snap = (out / "snapshot_5.1i_a0.5.csv").read_text().splitlines()[1:]
        obs = (out / "observation_5.1i_a0.5_e0.csv").read_text().splitlines()[1:]
        assert snap == obs

    def test_snapshot_bounded_by_initial_scale(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "[experiment]\ncase = 5.1i\nalphas = 0.5\nepsilons = 0\nseed = 3\n"
            "[mesh]\nn = 64\nsteps = 32\n"
        )
        out = tmp_path / "o"
        cli_main(["forward", "--config", str(p), "--out", str(out)])
        rows = (out / "snapshot_5.1i_a0.5.csv").read_text().splitlines()[1:]
        vals = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(vals)) <= 1.0

    def test_estimate_t_cli(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.2i\nalphas = 0.5\n")
        rc = cli_main(["estimate-t", "--config", str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        t_hat = float(out.strip().split("T_hat=")[1])
        assert abs(t_hat - 0.5) < 0.02

    def test_convergence_cli(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\ncase = 5.1i\nalphas = 0.5\n")
        runs = []
        for name in ("a", "b"):
            rc = cli_main(["convergence", "--config", str(p), "--out", str(tmp_path / name)])
            assert rc == 0
            runs.append((tmp_path / name / "convergence_a0.5.csv").read_bytes())
        rows = runs[0].decode().splitlines()
        assert rows[0] == "quantity,value"
        assert len(rows[1:]) == 8  # two orders, three space diffs, three time diffs
        assert runs[0] == runs[1]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracinv.cli", "ml-eval", "0.5", "1.0", "0.0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"


class TestTable:
    CFG = (
        "[experiment]\ncase = 5.2i\nalphas = 0.5\nepsilons = 0\nseed = 11\n"
        "t_init = 0.48\nmax_iter = 2\n"
        "[mesh]\nn = 32\nsteps = 24\n"
    )

    def test_single_cell_report(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text(self.CFG)
        out = tmp_path / "o"
        rc = cli_main(["table", "--config", str(p), "--out", str(out)])
        assert rc == 0
        lines = (out / "table_5.2i.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row

    def test_table_bytes_deterministic(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text(self.CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli_main(["table", "--config", str(p), "--out", str(out1)])
        cli_main(["table", "--config", str(p), "--out", str(out2)])
        assert (out1 / "table_5.2i.csv").read_bytes() == (out2 / "table_5.2i.csv").read_bytes()

    def test_threads_match_sequential(self, tmp_path):
        p = tmp_path / "two.cfg"
        p.write_text(self.CFG.replace("epsilons = 0", "epsilons = 0 1e-2"))
        out1, out2 = tmp_path / "s", tmp_path / "t"
        cli_main(["table", "--config", str(p), "--out", str(out1)])
        cli_main(["table", "--config", str(p), "--out", str(out2), "--threads", "2"])
        assert (out1 / "table_5.2i.csv").read_bytes() == (out2 / "table_5.2i.csv").read_bytes()

    def test_pool_no_larger_than_the_cells(self, tmp_path, monkeypatch):
        # a fork pool starts all its max_workers processes at the first submit:
        # --threads 8 on two cells started 8
        import fracinv.experiments as experiments

        sizes = []

        class SerialPool:  # records its size and runs the cells here, starting no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        p = tmp_path / "two.cfg"
        p.write_text(self.CFG.replace("epsilons = 0", "epsilons = 0 1e-2"))
        out1, out8 = tmp_path / "s", tmp_path / "t"
        assert cli_main(["table", "--config", str(p), "--out", str(out1)]) == 0
        assert cli_main(["table", "--config", str(p), "--out", str(out8), "--threads", "8"]) == 0
        assert sizes == [2]
        assert (out1 / "table_5.2i.csv").read_bytes() == (out8 / "table_5.2i.csv").read_bytes()

    @pytest.mark.parametrize("command", ["table", "recover-bp"])
    def test_square_cell_grids_follow_the_case_rule(self, tmp_path, monkeypatch, command):
        # the snapshot, the setup and the 2D basis of a cell all take their mesh
        # from BenchmarkCase.grid; the basis grid used to repeat its default
        import fracinv.experiments as experiments

        rule, grids = BenchmarkCase.grid, []
        monkeypatch.setattr(BenchmarkCase, "grid", lambda case, n=None: rule(case, n or 8))

        def recording(grid, k):
            grids.append(grid)
            return tensor_sine_basis(grid, k)

        monkeypatch.setattr(experiments, "tensor_sine_basis", recording)
        p = tmp_path / "sq.cfg"
        p.write_text("[experiment]\ncase = 5.1ii\nalphas = 0.5\nepsilons = 1e-2\n"
                     "t_init = 0.45\nmax_iter = 1\n")
        out = tmp_path / "o"
        assert cli_main([command, "--config", str(p), "--out", str(out)]) == 0
        assert grids == [Grid2D(8)]
        if command == "table":  # the cell ran: its note is empty
            assert (out / "table_5.1ii.csv").read_text().splitlines()[1].endswith(",")
        else:
            assert len((out / "5.1ii_a0.5_e0.01_profile.csv").read_text().splitlines()) == 82

    def test_one_snapshot_per_alpha(self, tmp_path, monkeypatch):
        # the snapshot depends on (case, alpha, mesh), not on epsilon
        import fracinv.experiments as experiments

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return exact_observation(*args, **kwargs)

        monkeypatch.setattr(experiments, "exact_observation", counting)
        p = tmp_path / "four.cfg"
        p.write_text(self.CFG.replace("alphas = 0.5", "alphas = 0.25 0.5")
                     .replace("epsilons = 0", "epsilons = 0 1e-2")
                     .replace("max_iter = 2", "max_iter = 1"))
        assert cli_main(["table", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert calls == [0.25, 0.5]


class TestPlotData:
    def _result(self, n_hist):
        hist = [(k, 0.1 / (k + 1), 0.2 / (k + 1), 0.4 + 0.01 * k) for k in range(n_hist)]
        v = np.linspace(0, 1, 17)
        return ReconstructionResult(v_hat=v, T_hat=0.5, k_star=max(n_hist - 1, 0),
                                    history=hist, converged=True,
                                    v_history=[v] * n_hist)

    def test_series_row_counts_match(self, tmp_path):
        grid = Grid1D(16)
        res = self._result(6)
        paths = emit_plot_data(res, np.zeros(17), grid, tmp_path, "demo")
        counts = {os.path.basename(p): len(open(p).read().splitlines()) for p in paths}
        assert counts["demo_residual.csv"] == counts["demo_error.csv"] == counts["demo_time.csv"] == 7

    def test_empty_history_header_only(self, tmp_path):
        grid = Grid1D(16)
        res = self._result(0)
        paths = emit_plot_data(res, np.zeros(17), grid, tmp_path, "empty")
        for p in paths[:3]:
            lines = open(p).read().splitlines()
            assert lines == ["k,value"]

    def test_table_report_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, [("5.1i", 0.5, 0.0, 1.9e-3, 20, 0.4976, "")])
        assert path.read_bytes() == (b"case,alpha,epsilon,e,k_star,T_hat,note\n"
                                     b"5.1i,0.5,0,1.900000000000e-03,20,4.976000000000e-01,\n")
