"""End-to-end tests for the command line interface and its CSV outputs.

Every test drives ``kryrank.cli.main`` in process with a config written to a
temporary directory, so exit codes, stdout/stderr, and the files on disk are
all exercised exactly as a shell user would see them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kryrank
from kryrank import experiments
from kryrank.cli import _failure_details, main
from kryrank.config import load_config
from kryrank.errors import MaxIterationsExceeded, NewtonDivergence
from kryrank.experiments import run_complexity, run_heat_convergence, run_lbfp_relax

FLOAT_12E = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")
FOOTER = re.compile(r"^# schema_version=1,build=kryrank-\S+$")


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def heat_cfg(tmp_path, out="out_h", **over):
    body = (
        "kind: heat-convergence\n"
        "integrator: %s\n" % over.get("integrator", "dirk2")
        + "grid:\n  n: 32\n"
        + "time:\n  t_final: 0.1\n  lambda: [50, 100]\n"
        + over.get("extra", "")
        + "output: %s\n" % (tmp_path / out)
    )
    return write_cfg(tmp_path, body)


def lbfp_cfg(tmp_path, out="out_l", n=32):
    body = (
        "kind: lbfp-relax\n"
        "integrator: be\n"
        "grid:\n  n: %d\n" % n
        + "time:\n  t_final: 0.3\n  dt: 0.1\n"
        "output: %s\n" % (tmp_path / out)
    )
    return write_cfg(tmp_path, body)


def sweep_cfg(tmp_path, out="out_s"):
    body = (
        "kind: complexity-sweep\n"
        "integrator: be\n"
        "grid:\n  n: [16, 24]\n"
        "time:\n  t_final: 0.1\n  dt: 0.1\n"
        "timing_reps: 1\n"
        "output: %s\n" % (tmp_path / out)
    )
    return write_cfg(tmp_path, body)


def run_child(*args):
    """Run a fresh interpreter on ``args``; it imports the same kryrank as this one."""
    src = str(Path(kryrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


def fail_second_step(monkeypatch, name):
    """Make ``experiments.<name>`` raise on its second call, naming a species."""
    real = getattr(experiments, name)
    calls = []

    def step(*args, **kwargs):
        calls.append(name)
        if len(calls) == 2:
            exc = NewtonDivergence("second step fails", [1.0])
            exc.where = {"species": "ion"}
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, step)


def read_csv(path):
    """Split a CSV file into (header, data rows, footer line)."""
    lines = path.read_text().splitlines()
    assert len(lines) >= 2
    return lines[0], lines[1:-1], lines[-1]


class TestValidate:
    def test_prints_canonical_settings_and_exits_zero(self, tmp_path, capsys):
        rc = main(["validate", heat_cfg(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind = heat-convergence" in out
        assert "integrator = dirk2" in out
        assert "grid.n = 32" in out
        assert "time.lambda = 50, 100" in out
        assert "seed = 0" in out

    def test_runs_all_seven_self_checks(self, tmp_path, capsys):
        rc = main(["validate", heat_cfg(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        for name in (
            "sylvester-residual",
            "residual-identity",
            "flux-weight-identity",
            "constant-null-mode",
            "circulant-solve",
            "basis-orthogonality",
            "lomac-pin",
        ):
            line = [l for l in out.splitlines() if l.startswith("self-check " + name)]
            assert len(line) == 1
            assert ": ok" in line[0]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        rc = main(["validate", heat_cfg(tmp_path), "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed = 7" in out

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind: heat-convergence\nbogus: 1\n")
        rc = main(["validate", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "absent.yaml")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unparseable_yaml_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind: [unclosed\n")
        rc = main(["validate", cfg])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_infinite_seed_exits_two(self, tmp_path, capsys):
        cfg = heat_cfg(tmp_path, extra="seed: .inf\n")
        rc = main(["validate", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "seed" in err


    def test_too_small_velocity_grid_exits_two(self, tmp_path, capsys):
        cfg = lbfp_cfg(tmp_path, n=7)
        for command in ("validate", "run"):
            rc = main([command, cfg])
            err = capsys.readouterr().err
            assert rc == 2
            assert "config error" in err and "grid.n" in err
        assert not (tmp_path / "out_l").exists()

    def test_duplicate_species_names_exit_two(self, tmp_path, capsys):
        sp = "  - {name: a, mass: 1.0, charge: 1.0, drift: [1.0, 0.0]}\n"
        cfg = write_cfg(
            tmp_path,
            "kind: lbfp-relax\nintegrator: be\ngrid:\n  n: 16\n"
            "time:\n  t_final: 0.2\n  dt: 0.1\nspecies:\n" + sp + sp
            + "output: %s\n" % (tmp_path / "out_l"),
        )
        for command in ("validate", "run"):
            assert main([command, cfg]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "species[1].name" in err
        assert not (tmp_path / "out_l").exists()

    def test_species_name_with_comma_exits_two(self, tmp_path, capsys):
        sp = "  - {name: 'a,b', mass: 1.0, charge: 1.0}\n"
        cfg = write_cfg(
            tmp_path,
            "kind: lbfp-relax\nintegrator: be\ngrid:\n  n: 16\n"
            "time:\n  t_final: 0.2\n  dt: 0.1\nspecies:\n" + sp
            + "output: %s\n" % (tmp_path / "out_l"),
        )
        for command in ("validate", "run"):
            assert main([command, cfg]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "species[0].name" in err
        assert not (tmp_path / "out_l").exists()

    def test_key_of_another_kind_exits_two(self, tmp_path, capsys):
        heat = heat_cfg(tmp_path, extra="pipeline: dense\n")
        for command in ("validate", "run", "compare"):
            assert main([command, heat]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "pipeline" in err
        assert not (tmp_path / "out_h").exists()
        lbfp = lbfp_cfg(tmp_path)
        Path(lbfp).write_text(Path(lbfp).read_text() + "lomac: false\n")
        for command in ("validate", "run"):
            assert main([command, lbfp]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "lomac" in err
        assert not (tmp_path / "out_l").exists()

    def test_zero_diffusion_exits_two(self, tmp_path, capsys):
        cfg = heat_cfg(tmp_path, extra="diffusion: [0.5, 0.0]\n")
        for command in ("validate", "run", "compare"):
            assert main([command, cfg]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "diffusion[1]" in err
        assert not (tmp_path / "out_h").exists()


class TestRunHeat:
    def test_writes_both_files_and_reports(self, tmp_path, capsys):
        rc = main(["run", heat_cfg(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote heat-convergence outputs to" in out
        assert (tmp_path / "out_h" / "convergence.csv").is_file()
        assert (tmp_path / "out_h" / "rank_history.csv").is_file()

    def test_convergence_schema(self, tmp_path):
        main(["run", heat_cfg(tmp_path)])
        header, rows, footer = read_csv(tmp_path / "out_h" / "convergence.csv")
        assert header == "lambda,dt,error,observed_order"
        assert FOOTER.match(footer)
        assert len(rows) == 2
        first = rows[0].split(",")
        assert first[3] == ""
        for cell in first[:3]:
            assert FLOAT_12E.match(cell)
        second = rows[1].split(",")
        for cell in second:
            assert FLOAT_12E.match(cell)
        assert float(second[3]) > 0.5

    def test_rank_history_schema(self, tmp_path):
        main(["run", heat_cfg(tmp_path)])
        header, rows, footer = read_csv(tmp_path / "out_h" / "rank_history.csv")
        assert header == "series,step,t,rank,krylov_iters,restarts,stage_residuals"
        assert FOOTER.match(footer)
        series = {row.split(",")[0] for row in rows}
        assert series == {"lambda=50", "lambda=100"}
        for row in rows:
            cells = row.split(",")
            assert cells[1].isdigit()
            assert FLOAT_12E.match(cells[2])
            assert cells[3].isdigit() and int(cells[3]) >= 1
            assert cells[4].isdigit()
            assert cells[5].isdigit()
            for res in cells[6].split(";"):
                float(res)

    def test_out_flag_beats_config_output(self, tmp_path):
        rc = main(["run", heat_cfg(tmp_path), "--out", str(tmp_path / "elsewhere")])
        assert rc == 0
        assert (tmp_path / "elsewhere" / "convergence.csv").is_file()
        assert not (tmp_path / "out_h").exists()

    def test_env_dir_used_and_out_flag_beats_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KRYRANK_OUT", str(tmp_path / "env_dir"))
        rc = main(["run", heat_cfg(tmp_path)])
        assert rc == 0
        assert (tmp_path / "env_dir" / "convergence.csv").is_file()
        rc = main(["run", heat_cfg(tmp_path), "--out", str(tmp_path / "flag_dir")])
        assert rc == 0
        assert (tmp_path / "flag_dir" / "convergence.csv").is_file()

    def test_single_thread_reruns_are_byte_identical(self, tmp_path):
        cfg = heat_cfg(tmp_path)
        main(["run", cfg, "--threads", "1", "--out", str(tmp_path / "a")])
        main(["run", cfg, "--threads", "1", "--out", str(tmp_path / "b")])
        for name in ("convergence.csv", "rank_history.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_threads_accepts_only_one(self, tmp_path):
        # sweep points run serially; --threads 1 is still accepted
        cfg = heat_cfg(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["run", cfg, "--threads", "2"])
        assert info.value.code == 2
        assert not (tmp_path / "out_h").exists()
        assert main(["run", cfg, "--threads", "1"]) == 0
        assert (tmp_path / "out_h" / "convergence.csv").is_file()

    def test_unreachable_tolerance_exits_one(self, tmp_path, capsys):
        cfg = heat_cfg(
            tmp_path, integrator="be", extra="tolerances: 1e-25\n"
        )
        rc = main(["run", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert "[kind=heat-convergence integrator=be]" in err
        # the failure details the exception carries reach the user
        assert re.search(r"residual history: \d\.\d{3}e[+-]\d+ ", err)
        assert re.search(r"best basis ranks: u=\d+ v=\d+", err)
        assert "\n  basis saturated: yes\n" in err
        # and say where it failed: the first step of the first lambda
        assert re.search(r"\n  at step=0, t=\S+, lambda=50(\.0)?, stage=0\n", err)

    def test_failed_step_location_on_exception(self, tmp_path):
        cfg = load_config(heat_cfg(tmp_path, integrator="be", extra="tolerances: 1e-25\n"))
        with pytest.raises(MaxIterationsExceeded) as info:
            run_heat_convergence(cfg, tmp_path / "out")
        exc = info.value
        assert list(exc.where) == ["step", "t", "lambda", "stage"]
        assert exc.where["step"] == 0 and exc.where["lambda"] == 50
        assert exc.where["stage"] == 0
        assert exc.where["t"] == pytest.approx(50 / 32**2)
        assert exc.best is not None and len(exc.history) >= 2
        assert exc.saturated is True

    def test_second_step_failure_location(self, tmp_path, monkeypatch):
        fail_second_step(monkeypatch, "dirk_step")
        cfg = load_config(heat_cfg(tmp_path))
        with pytest.raises(NewtonDivergence) as info:
            run_heat_convergence(cfg, tmp_path / "out")
        where = info.value.where
        assert list(where) == ["step", "t", "lambda", "species"]
        dt = 50 / 32**2
        assert where == {"step": 1, "t": 2 * dt, "lambda": 50, "species": "ion"}

    def test_newton_failure_prints_history(self):
        exc = NewtonDivergence("stage Newton missed tolerance", [2.0, 0.25])
        assert _failure_details(exc) == ["residual history: 2.000e+00 2.500e-01"]


class TestRunLbfp:
    def test_writes_three_files(self, tmp_path, capsys):
        rc = main(["run", lbfp_cfg(tmp_path)])
        assert rc == 0
        assert "wrote lbfp-relax outputs to" in capsys.readouterr().out
        for name in ("conservation.csv", "moments.csv", "rank_history.csv"):
            assert (tmp_path / "out_l" / name).is_file()

    def test_unreachable_tolerance_names_species(self, tmp_path, capsys):
        text = Path(lbfp_cfg(tmp_path)).read_text()
        cfg = write_cfg(tmp_path, text.replace("output:", "tolerances: 1e-25\noutput:"))
        rc = main(["run", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert "MaxIterationsExceeded" in err
        assert re.search(r"\n  at step=0, t=0\.1, stage=0, species=ion\n", err)
        assert re.search(r"best basis ranks: u=\d+ v=\d+", err)

    @pytest.mark.parametrize("n", [8, 32])
    def test_huge_dt_newton_divergence_names_step(self, tmp_path, n):
        # no monkeypatch: at dt = 1e9 the moment-stage Newton solve itself fails
        text = Path(lbfp_cfg(tmp_path, n=n)).read_text()
        text = text.replace("t_final: 0.3\n  dt: 0.1", "t_final: 1.0e+9\n  dt: 1.0e+9")
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(NewtonDivergence) as info:
            run_lbfp_relax(cfg, tmp_path / "out")
        assert info.value.where == {"step": 0, "t": 1e9, "stage": 0}
        assert info.value.history

    def test_second_step_failure_location(self, tmp_path, monkeypatch):
        fail_second_step(monkeypatch, "lbfp_step")
        cfg = load_config(lbfp_cfg(tmp_path))
        with pytest.raises(NewtonDivergence) as info:
            run_lbfp_relax(cfg, tmp_path / "out")
        where = info.value.where
        assert list(where) == ["step", "t", "species"]
        assert where == {"step": 1, "t": 2 * 0.1, "species": "ion"}

    def test_conservation_schema_and_invariants(self, tmp_path):
        main(["run", lbfp_cfg(tmp_path)])
        header, rows, footer = read_csv(tmp_path / "out_l" / "conservation.csv")
        assert header == "t,mass_err,momentum_err,energy_err"
        assert FOOTER.match(footer)
        # one row per step plus the t = 0 reference row
        assert len(rows) == 4
        assert [float(c) for c in rows[0].split(",")] == [0.0, 0.0, 0.0, 0.0]
        for row in rows:
            t, mass, mom, en = (float(c) for c in row.split(","))
            assert mass <= 1e-12
            assert mom <= 1e-11
            assert en <= 1e-10

    def test_moments_schema(self, tmp_path):
        main(["run", lbfp_cfg(tmp_path)])
        header, rows, footer = read_csv(tmp_path / "out_l" / "moments.csv")
        assert header == "t,species,n,gam1,gam2,energy,temperature,rank,krylov_iters"
        assert FOOTER.match(footer)
        names = [row.split(",")[1] for row in rows]
        assert set(names) == {"ion", "electron"}
        for row in rows:
            cells = row.split(",")
            assert abs(float(cells[2]) - 1.0) <= 1e-11
            assert float(cells[6]) > 0.0
            assert cells[7].isdigit()

    def test_rank_history_series_are_species(self, tmp_path):
        main(["run", lbfp_cfg(tmp_path)])
        _, rows, _ = read_csv(tmp_path / "out_l" / "rank_history.csv")
        assert {row.split(",")[0] for row in rows} == {"ion", "electron"}


class TestComplexitySweep:
    def test_timing_schema_with_slope_row(self, tmp_path):
        rc = main(["run", sweep_cfg(tmp_path)])
        assert rc == 0
        header, rows, footer = read_csv(tmp_path / "out_s" / "timing.csv")
        assert header == "n,wall_seconds"
        assert FOOTER.match(footer)
        assert len(rows) == 3
        for row, n_expect in zip(rows[:2], ("16", "24")):
            n_cell, wall = row.split(",")
            assert n_cell == n_expect
            assert float(wall) > 0.0
        label, slope = rows[2].split(",")
        assert label == "slope"
        float(slope)

    def test_unreachable_tolerance_names_step_and_grid(self, tmp_path, capsys):
        text = Path(sweep_cfg(tmp_path)).read_text()
        text = text.replace("n: [16, 24]", "n: [16]")
        cfg = write_cfg(tmp_path, text.replace("output:", "tolerances: 1e-25\noutput:"))
        rc = main(["run", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert "MaxIterationsExceeded" in err
        assert re.search(r"\n  at step=0, t=0\.1, n=16, stage=0, species=ion\n", err)

    def test_dense_failure_names_step_and_grid(self, tmp_path, capsys, monkeypatch):
        def diverge(*args):
            raise NewtonDivergence("stage Newton missed tolerance", [2.0, 0.25])

        monkeypatch.setattr(experiments, "dense_lbfp_step", diverge)
        text = Path(sweep_cfg(tmp_path)).read_text()
        cfg = write_cfg(tmp_path, text.replace("output:", "pipeline: dense\noutput:"))
        rc = main(["run", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert "NewtonDivergence" in err
        assert re.search(r"\n  at step=0, t=0\.1, n=16\n", err)

    @pytest.mark.parametrize(
        "pipeline, step", [("adaptive", "lbfp_step"), ("dense", "dense_lbfp_step")]
    )
    def test_second_step_failure_location(self, tmp_path, monkeypatch, pipeline, step):
        fail_second_step(monkeypatch, step)
        text = Path(sweep_cfg(tmp_path)).read_text().replace("t_final: 0.1", "t_final: 0.2")
        text = text.replace("output:", "pipeline: %s\noutput:" % pipeline)
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(NewtonDivergence) as info:
            run_complexity(cfg, tmp_path / "out")
        where = info.value.where
        assert list(where) == ["step", "t", "n", "species"]
        assert where == {"step": 1, "t": 2 * 0.1, "n": 16, "species": "ion"}

    def test_scipy_is_imported_before_the_first_clock(self, tmp_path):
        # kryrank imports scipy at the first non-symmetric Schur form; a sweep
        # must not time that import inside its first step
        text = Path(sweep_cfg(tmp_path)).read_text()
        cfg = write_cfg(tmp_path, text.replace("n: [16, 24]", "n: [16, 32]"))
        proc = run_child(
            "-c",
            "import sys, types\n"
            "from kryrank import cli, experiments\n"
            "clock, seen = experiments.time.perf_counter, []\n"
            "def timed():\n"
            "    seen.append('scipy.linalg' in sys.modules)\n"
            "    return clock()\n"
            "experiments.time = types.SimpleNamespace(perf_counter=timed)\n"
            "assert cli.main(['run', %r]) == 0\n"
            "print(seen)\n" % cfg
        )
        assert proc.returncode == 0, proc.stderr
        # a start and a stop per grid size
        assert proc.stdout.splitlines()[-1] == str([True] * 4)


class TestCompare:
    def test_writes_paired_errors(self, tmp_path, capsys):
        rc = main(["compare", heat_cfg(tmp_path)])
        assert rc == 0
        header, rows, footer = read_csv(tmp_path / "out_h" / "paired_errors.csv")
        assert header == "lambda,dt,err_lowrank,err_dense,ratio"
        assert FOOTER.match(footer)
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            for cell in cells:
                assert FLOAT_12E.match(cell)
            # identical time discretization: the pair differs only by the
            # low-rank truncation, so the ratio stays at or below one
            assert 0.0 < float(cells[4]) <= 1.0 + 1e-9

    def test_dense_run_lands_on_the_steady_state(self, tmp_path):
        # criterion 04's config: by t = 5 only the mean is left, which the
        # Hartley basis carries in one real mode with a zero eigenvalue
        body = (
            "kind: heat-convergence\nintegrator: be\ngrid:\n  n: 64\n"
            "truncation:\n  eps_rel: 1e-6\n"
            "time:\n  t_final: 5.0\n  lambda: [400]\nlomac: true\n"
            "output: %s\n" % (tmp_path / "out")
        )
        assert main(["compare", write_cfg(tmp_path, body)]) == 0
        _, rows, _ = read_csv(tmp_path / "out" / "paired_errors.csv")
        assert float(rows[0].split(",")[3]) <= 1e-15

    def test_rejects_non_heat_config(self, tmp_path, capsys):
        rc = main(["compare", lbfp_cfg(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point_validates(self, tmp_path):
        proc = run_child("-m", "kryrank.cli", "validate", heat_cfg(tmp_path))
        assert proc.returncode == 0
        assert "self-check sylvester-residual: ok" in proc.stdout


class TestImportWeight:
    """scipy loads at the first non-symmetric factorization, not with kryrank."""

    RUN = "from kryrank.cli import main; assert main(['run', {config!r}]) == 0"
    COMPARE = "from kryrank.cli import main; assert main(['compare', {config!r}]) == 0"

    @pytest.mark.parametrize(
        "command, make_config, loads_scipy",
        [
            ("import kryrank", None, False),
            ("import kryrank.cli", None, False),
            (RUN, heat_cfg, False),
            # the dense reference diagonalizes the symmetric heat stages too
            (COMPARE, heat_cfg, False),
            # Chang-Cooper stages are non-symmetric, so this one must load it
            (RUN, lbfp_cfg, True),
        ],
        ids=["import", "import-cli", "heat-run", "heat-compare", "lbfp-run"],
    )
    def test_scipy_in_sys_modules(self, tmp_path, command, make_config, loads_scipy):
        code = command.format(config=make_config and make_config(tmp_path))
        proc = run_child("-c", "import sys\n%s\nprint('scipy' in sys.modules)\n" % code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loads_scipy)

    def test_cli_import_skips_package_metadata(self):
        # the CSV footer's version tag is looked up at the first CSV write
        code = "import sys\nimport kryrank.cli\nprint('importlib.metadata' in sys.modules)\n"
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
