import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinsde import cli as cli_module
from kinsde.cli import KNOWN_KEYS, Manifest, _parse_config, _sim_config, main
from kinsde.integrators import _HELPER_MIN_BLOCK, load_snapshot

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

BASE = """
T = 0.5
h = 0.01
N = 200
seed = 9
d1 = 1
d2 = 1
m = 1
scheme = euler
hist.min = -6.0
hist.max = 6.0
hist.bins = 8
"""


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_cfg(tmp_path, extra: str, name="run.cfg"):
    """BASE with ``extra`` appended; a key that ``extra`` sets is dropped from
    BASE, since a config may not repeat a key."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines() if "=" in line}
    base = "".join(line for line in BASE.splitlines(keepends=True)
                   if line.split("=")[0].strip() not in keys)
    p = tmp_path / name
    p.write_text(base + extra)
    return p


class TestConfigHandling:
    def test_unknown_key_exit_2_with_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bogus.key = 1\n")
        rc = main(["simulate", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and "bogus.key = 1" in err

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("T = 1.0\nh 0.1\nN = 5\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [("T = 0.5\nh = 0.01\nN = 5\nseed = 1\nseed = 2\n",
          "line 5: key seed repeats line 4: seed = 2"),
         ("drift = zero\nT = 0.5\nh = 0.01\n# a comment\nN = 5\n  drift = zero  # same value\n",
          "line 6: key drift repeats line 1")],
    )
    def test_repeated_key_exit_2_naming_both_lines(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_invalid_dynamics_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("T = 1.0\nh = 0.0\nN = 5\ndrift = zero\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert "nonpositive step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["N = 2.5", "seed = 1.9", "d1 = 1.7", "d2 = 1.5", "m = 1.5",
                 "hist.bins = 8.5", "hist.bins = [8, 8.5]", "d1 = [1, 1]",
                 "N = True", "seed = False"],
    )
    def test_non_integral_count_exit_2(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, f"drift = zero\n{line}\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert "whole number" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_integral_float_count_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "drift = zero\nN = 2e2\nseed = 9.0\nhist.bins = 8.0\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        law, meta = load_snapshot(tmp_path / "snapshot")
        assert law.n == 200 and meta["seed"] == 9

    @pytest.mark.parametrize(
        "command, extra, key",
        [("lyapunov-check", "lyap.radii = 6.9\nlyap.dirs = 4\n", "lyap.radii"),
         ("lyapunov-check", "lyap.radii = 6\nlyap.dirs = 4.5\n", "lyap.dirs"),
         ("zvonkin", "zvonkin.n = 400.5\n", "zvonkin.n"),
         ("mkv-picard", "picard.maxiter = 2.5\n", "picard.maxiter"),
         ("lyapunov-check", "lyap.radii = True\nlyap.dirs = 4\n", "lyap.radii"),
         ("mkv-picard", "picard.maxiter = True\n", "picard.maxiter")],
    )
    def test_non_integral_module_count_exit_2(self, tmp_path, capsys, command, extra, key):
        cfg = write_cfg(tmp_path, extra)
        assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
        assert f"{key} must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, line",
        [("simulate", "T = [1.0]"), ("simulate", "h = 'abc'"), ("simulate", "T = True"),
         ("lyapunov-check", "eps.shell = {1: 2}"), ("h-bound", "hbound.v0 = [4.0]"),
         ("mkv-sweep", "sweep.kappas = [0.1, 'x']")],
    )
    def test_wrong_typed_value_exit_2_naming_key(self, tmp_path, capsys, command, line):
        cfg = write_cfg(tmp_path, f"{line}\n")
        assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
        key = line.split(" =")[0]
        assert f"{key} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("extra, argv", [("", ["--workers", "-3"]), ("", ["--workers", "0"])])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, extra, argv):
        cfg = write_cfg(tmp_path, "drift = zero\n" + extra)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")] + argv) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [("simulate", "drift = zero\nout.dir = 5\n", "out.dir must be a string"),
         ("mkv-sweep", "sweep.kappas = 5\n", "sweep.kappas must be a non-empty list"),
         ("mkv-sweep", "sweep.kappas = []\n", "sweep.kappas must be a non-empty list"),
         ("mkv-sweep", "sweep.kappas = [0.0]\nrecord.start = 5.0\n", "record.start = 5"),
         ("ergodicity", "record.start = 5.0\n", "record.start = 5"),
         ("ergodicity", "record.stop = -1.0\n", "no record time in [0, T = 0.5]"),
         ("ergodicity", "record.step = 0\n", "record.step must be greater than 0"),
         ("mkv-sweep", "record.step = -0.5\n", "record.step must be greater than 0"),
         ("h-bound", "hbound.dt = 0\n", "hbound.dt must be greater than 0"),
         ("h-bound", "hbound.tmax = 8.2\n",
          "hbound.tmax = 8.2 must be 0 or a whole multiple of hbound.dt = 0.25"),
         ("h-bound", "hbound.tmax = -0.5\n", "hbound.tmax = -0.5 must be 0"),
         ("h-bound", "hbound.tmax = 'inf'\n", "hbound.tmax = inf must be 0"),
         ("h-bound", "hbound.tmax = 'nan'\n", "hbound.tmax = nan must be 0"),
         # an infinite c0 once wrote the envelope of c0 = 1e-300
         ("h-bound", "phi.kind = superlinear\nphi.beta = 1.0\nphi.c0 = inf\n",
          "phi.kind, phi.c0, phi.beta: c0 must be positive and finite, got inf"),
         ("mkv-sweep", "h = 0.02\nrecord.step = 0.25\n",
          "record.step = 0.25: record time 0.25 is off the step grid h = 0.02"),
         ("ergodicity", "h = 0.02\nrecord.step = 0.25\n", "record.step = 0.25"),
         ("ergodicity", "record.start = 0.005\n", "record.start = 0.005"),
         ("ergodicity", "record.stop = 1.0\n", "record.stop = 1: record time"),
         ("mkv-sweep", "record.stop = 3.0\nrecord.step = 0.1\n",
          "record.stop = 3: record time 0.6 lies outside [0, T = 0.5]"),
         # each of these once exited 2 with a numpy, scipy or float() message naming no key
         ("simulate", "sigma = [[1.0, 0.0]]\n", "sigma must be a number or a 1 x 1 matrix"),
         ("simulate", "sigma = 'abc'\n", "sigma must be a number, got 'abc'"),
         ("simulate", "hist.min = 'abc'\n", "hist.min must be a number, got 'abc'"),
         ("simulate", "kernel = constant\nkernel.w = 'x'\n", "kernel.w must be a number"),
         ("ergodicity", "init.a = ('a', 1)\n", "init.a must be a number, got 'a'"),
         ("zvonkin", "zvonkin.L = 0.0\n", "zvonkin.L must be greater than 0"),
         ("zvonkin", "zvonkin.eps = 1.0\n", "zvonkin.eps must lie in (0, 1), got 1.0"),
         ("zvonkin", "zvonkin.eps = -0.1\n", "zvonkin.eps must lie in (0, 1), got -0.1"),
         ("khasminskii", "drift = scalar_ou\nkhasminskii.f = riesz\n",
          "khasminskii.f = riesz needs riesz.atoms"),
         ("simulate", "drift = confining\nkernel = nope\nkappa = 0.5\n", "unknown kernel 'nope'"),
         ("lyapunov-check", "lyap.rmin = 0\n", "lyap.rmin must be greater than 0"),
         # a negative coupling once ran silently as no coupling
         ("mkv-sweep", "sweep.kappas = [0.0, -0.1]\n", "sweep.kappas must be nonnegative"),
         # T = inf once exited 3 as a float-to-int overflow, T = nan 2 naming no key
         ("simulate", "T = inf\n", "T must be finite, got inf"),
         ("simulate", "T = nan\n", "T must be finite, got nan"),
         ("simulate", "h = inf\n", "h must be finite, got inf"),
         ("simulate", "h = nan\n", "h must be finite, got nan"),
         # a nonzero sigma is refused unless it is nondegenerate
         ("simulate", "drift = zero\nd2 = 2\nsigma = [[1.0], [2.0]]\n",
          "sigma sigma* is singular for sigma = [[1.0], [2.0]]"),
         ("simulate", "drift = zero\nsigma = 1e300\n", "sigma is degenerate"),
         # picard.lam = inf once ran 20 iterates of NaN rho, -1 was refused only after
         # the first iterate without naming the key, and maxiter 0 or -3 ran one iterate
         ("mkv-picard", "picard.lam = inf\n", "picard.lam must be nonnegative and finite, got inf"),
         ("mkv-picard", "picard.lam = nan\n", "picard.lam must be nonnegative and finite, got nan"),
         ("mkv-picard", "picard.lam = -1\n", "picard.lam must be nonnegative and finite, got -1.0"),
         # each of these once ran: a nan or an infinity means nothing to these keys
         ("ergodicity", "fit.from = nan\n", "fit.from must be finite, got nan"),
         ("mkv-sweep", "fit.from = nan\n", "fit.from must be finite, got nan"),
         ("khasminskii", "drift = scalar_ou\nrate = inf\n", "rate must be finite, got inf"),
         ("khasminskii", "drift = scalar_ou\nnorm.extent = -inf\n",
          "norm.extent must be finite, got -inf"),
         ("simulate", "drift = confining\nz.scale = nan\n", "z.scale must be finite, got nan"),
         ("simulate", "drift = confining\nkernel = constant\nkernel.w = nan\n",
          "kernel.w must be finite, got nan"),
         ("h-bound", "hbound.v0 = inf\n", "hbound.v0 must be finite, got inf"),
         # a grid [-L, L] wider than the float range once crashed the resolvent solve
         ("zvonkin", "zvonkin.L = 1e308\n", "zvonkin.L must be below 2^1023, got 1e+308"),
         # a grid step whose square underflows, or a Riesz floor whose power does, once
         # crashed the resolvent solve (and made the Riesz drift NaN at its atom)
         ("zvonkin", "zvonkin.L = 1e-160\n", "zvonkin.L, zvonkin.n: the grid step"),
         ("zvonkin", "zvonkin.L = 1e-300\n", "zvonkin.L, zvonkin.n: the grid step"),
         ("zvonkin", "drift = confining\nriesz.atoms = [(0.0, 1.0)]\nriesz.eta = 1e-300\n",
          "riesz.atoms, riesz.alpha, riesz.eta: eta_sing^(alpha + 1) underflows"),
         ("simulate", "drift = confining\nriesz.atoms = [(0.0, 1.0)]\nriesz.eta = 1e-300\n",
          "riesz.atoms, riesz.alpha, riesz.eta: eta_sing^(alpha + 1) underflows"),
         ("khasminskii", "drift = scalar_ou\nkhasminskii.f = riesz\nriesz.atoms = [(0.0, 0.5)]\n"
          "riesz.eta = 1e-300\n", "riesz.eta: eta_sing^(alpha + 1) underflows"),
         ("lyapunov-check", "lyap.kcap = nan\n",
          "lyap.kcap: k_cap must be a number or inf, got nan"),
         ("lyapunov-check", "phi.c0 = 1.0\nlyap.kcap = nan\n", "lyap.kcap must be finite, got nan"),
         ("lyapunov-check", "phi.c0 = 1.0\nlyap.kcap = inf\n", "lyap.kcap must be finite, got inf"),
         ("mkv-picard", "picard.maxiter = 0\n", "picard.maxiter must be at least 1, got 0"),
         ("mkv-picard", "picard.maxiter = -3\n", "picard.maxiter must be at least 1, got -3"),
         # two couplings with one output name once wrote the second series over the first
         ("mkv-sweep", "sweep.kappas = [0.1234567, 0.1234568]\n",
          "sweep.kappas [0.1234567, 0.1234568] name an output twice")],
    )
    def test_bad_run_value_exit_2_naming_key(self, tmp_path, monkeypatch, capsys,
                                             command, extra, message):
        monkeypatch.chdir(tmp_path)
        # every refusal here comes before any run: calling any of these would raise
        monkeypatch.setattr("kinsde.cli.picard_fixed_point", None)
        monkeypatch.setattr("kinsde.cli.uniform_ergodicity_sweep", None)
        monkeypatch.setattr("kinsde.integrators._step_noise", None)
        cfg = write_cfg(tmp_path, extra)
        argv = [command, str(cfg)] + ([] if "out.dir" in extra else ["--out", str(tmp_path)])
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, line",
        [("simulate", "workers = 2"), ("simulate", "store_increments = True"),
         ("mkv-picard", "picard.crn = False")],
    )
    def test_deleted_switch_is_an_unknown_key(self, tmp_path, capsys, command, line):
        cfg = write_cfg(tmp_path, f"drift = scalar_ou\n{line}\n")
        assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
        assert f"unknown key in config: {line}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_every_known_key_is_read(self):
        """A registry key that no code outside the registry names is parsed and never read."""
        tree = ast.parse((SRC / "kinsde" / "cli.py").read_text(encoding="utf-8"))
        registry = {"_CORE_KEYS", "_FIELD_KEYS", "_RUN_KEYS", "_MODULE_KEYS", "KNOWN_KEYS"}
        named = set()
        for node in tree.body:
            targets = {getattr(t, "id", None) for t in getattr(node, "targets", [])}
            if isinstance(node, ast.Assign) and targets & registry:
                continue
            named |= {c.value for c in ast.walk(node)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
        assert sorted(KNOWN_KEYS - named) == []

    @pytest.mark.parametrize(
        "command, atoms",
        [("simulate", "5"), ("simulate", "[]"), ("simulate", "[5]"),
         ("simulate", "[(0.0, 1.0, 2.0)]"), ("simulate", "[(0.0, 'w')]"),
         ("simulate", "[('a', 1.0)]"), ("simulate", "[([0.0, None], 1.0)]"),
         ("khasminskii", "0.5")],
    )
    def test_malformed_riesz_atoms_exit_2(self, tmp_path, capsys, command, atoms):
        extra = "drift = confining\n" if command == "simulate" else "drift = scalar_ou\n"
        cfg = write_cfg(tmp_path, f"{extra}khasminskii.f = riesz\nriesz.atoms = {atoms}\n")
        assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
        assert "riesz.atoms must" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "khasminskii"])
    def test_riesz_atoms_of_wrong_dimension_exit_2(self, tmp_path, capsys, command):
        extra = "drift = confining\n" if command == "simulate" else "drift = scalar_ou\n"
        cfg = write_cfg(tmp_path, f"{extra}khasminskii.f = riesz\n"
                                  "riesz.atoms = [((0.0, 5.0), 0.5)]\n")
        assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
        assert "atoms have 2 coordinates, the points have 1" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_importing_cli_skips_scipy(self):
        code = "import sys, kinsde.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("n, pool", [(None, False), (_HELPER_MIN_BLOCK - 1, False),
                                         (_HELPER_MIN_BLOCK, True)])
    def test_thread_pool_imported_only_for_the_noise_helper(self, tmp_path, n, pool):
        """``import kinsde.cli`` and a run below the helper threshold leave
        ``concurrent.futures`` unimported; a run at the threshold imports it."""
        code = "import sys, kinsde.cli\n"
        if n is not None:
            cfg = write_cfg(tmp_path, f"N = {n}\ndrift = linear_langevin\n")
            code += f"assert kinsde.cli.main(['simulate', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        code += "print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == str(pool)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_parses(self, path):
        cfg = _sim_config(_parse_config(path.read_text(encoding="utf-8")))
        assert cfg.n_steps >= 1
        assert cfg.hist.dim == cfg.d1 + cfg.d2


class TestSimulate:
    def test_zero_field_constant_snapshot(self, tmp_path):
        cfg = write_cfg(tmp_path, "drift = zero\n")
        rc = main(["simulate", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        law, meta = load_snapshot(tmp_path / "snapshot")
        assert np.all(law.x == 0.0) and np.all(law.y == 0.0)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert meta["config_hash"] == man["config_hash"]
        assert "snapshot.bin" in man["outputs"]

    def test_rerun_is_bit_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, "drift = linear_langevin\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2), "--workers", "4"]) == 0
        assert (out1 / "snapshot.bin").read_bytes() == (out2 / "snapshot.bin").read_bytes()

    def test_unstable_run_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "drift = confining\ndelta = 2.0\nc1 = -1.0\n")
        # negative c1 is rejected as validation, so use a blowup instead:
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "T = 2.0\nh = 0.05\nN = 64\nseed = 1\ndrift = confining\n"
            "c1 = 1.0\nc2 = 8.0\nc3 = 1e-6\ninit.a = (4.0, 4.0)\nsigma = 4.0\n"
        )
        rc = main(["simulate", str(cfg), "--out", str(tmp_path)])
        assert rc in (0, 3)  # depends on how many particles cross the threshold

    def test_run_with_deaths_exit_3(self, tmp_path, capsys):
        # c3 h = 3: each Euler step multiplies y by -2, so every particle passes 1e12
        cfg = write_cfg(tmp_path, "drift = confining\nc3 = 300.0\ninit.a = (1.0, 1.0)\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numeric failure: run unstable: "
                                           "200 of 200 particles blew up\n")
        assert not (tmp_path / "manifest.json").exists()

    def test_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys):
        # as numpy raises it for an N the machine cannot hold; nothing is allocated
        def too_big(kv, cfg, man):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000, 1) and data type float64")

        monkeypatch.setitem(cli_module._SUBCOMMANDS, "simulate", too_big)
        cfg = write_cfg(tmp_path, "drift = zero\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == ("numeric failure: out of memory: Unable to allocate 7.28 TiB for an "
                       "array with shape (1000000000000, 1) and data type float64\n")
        assert not (tmp_path / "manifest.json").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "drift = zero\n")
        monkeypatch.setenv("KINSDE_OUT", str(tmp_path / "envout"))
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("name", ["file", "file/sub"])
    def test_out_dir_that_cannot_be_made_exit_2(self, tmp_path, monkeypatch, capsys, via, name):
        # an existing file, or a directory below one
        cfg = write_cfg(tmp_path, "drift = zero\n")
        (tmp_path / "file").write_text("")
        out = tmp_path / name
        if via == "flag":
            argv = ["simulate", str(cfg), "--out", str(out)]
        else:
            monkeypatch.setenv("KINSDE_OUT", str(out))
            argv = ["simulate", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make output directory {out}: ")
        assert err.count("\n") == 1


class TestErgodicity:
    def test_replay_exact_exponential(self, tmp_path):
        series = tmp_path / "series.csv"
        t = np.linspace(0.0, 5.0, 11)
        lines = ["t,distance"] + [f"{ti},{2.0 * np.exp(-ti)}" for ti in t]
        series.write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path, "drift = scalar_ou\n")
        rc = main(["ergodicity", str(cfg), "--out", str(tmp_path),
                   "--replay", str(series)])
        assert rc == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["lambda_hat"] == pytest.approx(1.0, rel=1e-9)
        assert fit["verdict"] == "decay confirmed"

    def test_live_run_outputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "drift = scalar_ou\ninit.a = (0.0, 2.0)\ninit.b = (0.0, -2.0)\n"
            "record.step = 0.1\n",
        )
        rc = main(["ergodicity", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "distances.csv").read_text()
        assert text.startswith("# config_hash = ")
        assert text.splitlines()[1] == "t,distance,noise_floor"
        assert "\r" not in text and "," in text.splitlines()[2]
        # captured while off-grid record times were still rounded to a step, and
        # again, with only noise_floor moved (0.2000 -> 0.1705), when the floor
        # became a multinomial draw on the last slice's histogram
        assert file_sha256(tmp_path / "distances.csv") == (
            "898c77367dfc1897d149f43f2f5ea1751a80d993bfc0a5e2781702c14ede66e0")
        # captured before the fit window moved onto TVDecaySeries.fit, and again
        # when the floor did as above
        assert file_sha256(tmp_path / "fit.json") == (
            "1e6949890bd2cdacbaa2319418a93182a555cebbda2fe883713b082908bb687b")

    def test_replay_single_row(self, tmp_path):
        # one data row is read as one row, not as a flat array of its cells
        series = tmp_path / "series.csv"
        series.write_text("t,distance,noise_floor\n0.5,0.25,0.125\n")
        cfg = write_cfg(tmp_path, "drift = scalar_ou\n")
        assert main(["ergodicity", str(cfg), "--out", str(tmp_path / "o"),
                     "--replay", str(series)]) == 0
        fit = json.loads((tmp_path / "o" / "fit.json").read_text())
        assert fit["verdict"] == "insufficient signal" and fit["noise_floor"] == 0.125

    def test_replay_rewrites_live_outputs(self, tmp_path):
        # the replay reads the series back from distances.csv, fits it over the
        # same fit.from window and writes both files again byte for byte
        cfg = write_cfg(tmp_path, "T = 2.0\nN = 2000\ndrift = scalar_ou\n"
                                  "init.a = (0.0, 2.0)\ninit.b = (0.0, -2.0)\n"
                                  "record.step = 0.1\nfit.from = 0.3\n")
        live, replay = tmp_path / "live", tmp_path / "replay"
        assert main(["ergodicity", str(cfg), "--out", str(live)]) == 0
        assert json.loads((live / "fit.json").read_text())["verdict"] == "decay confirmed"
        assert main(["ergodicity", str(cfg), "--out", str(replay),
                     "--replay", str(live / "distances.csv")]) == 0
        for name in ("distances.csv", "fit.json"):
            assert (replay / name).read_bytes() == (live / name).read_bytes(), name

    @pytest.mark.parametrize(
        "text, message",
        [("t,distance,noise_floor\n", "holds no t,distance rows"),
         (None, "cannot read --replay"),
         ("t,distance\n0.0,abc\n", "--replay")],
        ids=["header only", "missing file", "non-numeric cell"],
    )
    def test_bad_replay_exit_2_naming_replay(self, tmp_path, capsys, text, message):
        series = tmp_path / "series.csv"
        if text is not None:
            series.write_text(text)
        cfg = write_cfg(tmp_path, "drift = scalar_ou\n")
        assert main(["ergodicity", str(cfg), "--out", str(tmp_path / "o"),
                     "--replay", str(series)]) == 2
        err = capsys.readouterr().err
        assert message in err and "--replay" in err and err.count("\n") == 1
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_replay_keeps_a_first_time_in_exponent_form(self, tmp_path):
        # 1e-05 holds a letter but is a number: it starts the rows, it is not a header
        series = tmp_path / "series.csv"
        series.write_text("# a comment\nt,distance\n1e-05,0.5\n0.5,0.25\n")
        cfg = write_cfg(tmp_path, "drift = scalar_ou\n")
        assert main(["ergodicity", str(cfg), "--out", str(tmp_path / "o"),
                     "--replay", str(series)]) == 0
        t = np.loadtxt(tmp_path / "o" / "distances.csv", delimiter=",", skiprows=2)[:, 0]
        assert t.tolist() == [1e-05, 0.5]

    def test_default_record_step_is_whole_steps(self, tmp_path):
        # (stop - start) / 16 = 0.125 is 6.25 steps of h = 0.02: the default
        # step is 6 steps, so every record time is a grid time
        cfg = write_cfg(tmp_path, "T = 2.0\nh = 0.02\ndrift = scalar_ou\n"
                                  "init.a = (0.0, 2.0)\ninit.b = (0.0, -2.0)\n")
        assert main(["ergodicity", str(cfg), "--out", str(tmp_path)]) == 0
        t = np.loadtxt(tmp_path / "distances.csv", delimiter=",", skiprows=2)[:, 0]
        assert t.tobytes() == (np.arange(0, 101, 6) * 0.02).tobytes()


class TestLyapunovCheck:
    def test_negative_control_verdict_is_data_not_error(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "drift = confining\nc1 = 1.0\nc2 = 0.05\nc3 = 1e-9\n"
            "lyapunov.theta = 1.0\nphi.kind = linear\nphi.c0 = 0.5\n"
            "eps.shell = 0.1\nlyap.rmax = 50.0\nlyap.radii = 10\nlyap.dirs = 8\n",
        )
        rc = main(["lyapunov-check", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "lyapunov.json").read_text())
        assert rep["verdict"] == "fails"
        assert (tmp_path / "margins.csv").exists()

    def test_search_mode_certifies_good_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "drift = confining\nc1 = 1.0\nc2 = 0.05\nc3 = 1.0\n"
            "lyapunov.theta = 1.0\nphi.kind = linear\neps.shell = 0.1\n"
            "lyap.rmax = 50.0\nlyap.radii = 12\nlyap.dirs = 8\nlyap.kcap = 50.0\n",
        )
        rc = main(["lyapunov-check", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "lyapunov.json").read_text())
        assert rep["mode"] == "search"
        assert rep["verdict"] == "holds"
        assert rep["c0"] > 0.0

    def test_searched_certificate_holds_at_a_large_cap(self, tmp_path):
        # K_min and the margins are one sum: at this cap the search once found
        # c0 = 5.78... with K = 1e4 and then wrote "fails" with min_margin -9.1e-13
        text = (ROOT / "configs" / "lyapunov_confining.cfg").read_text(encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("seed = 7", "seed = 6").replace("lyap.kcap = 50.0",
                                                                    "lyap.kcap = 10000"))
        assert main(["lyapunov-check", str(cfg), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "lyapunov.json").read_text())
        assert (rep["mode"], rep["K"], rep["n_flagged"]) == ("search", 10000.0, 0)
        assert rep["verdict"] == "holds" and rep["min_margin"] == 0.0

    @pytest.mark.parametrize("mode, extra", [("search", ""), ("check", "phi.c0 = 1.0\n")],
                             ids=["search", "check"])
    def test_overflowing_v_fails_alike_in_both_modes(self, tmp_path, capsys, mode, extra):
        # V = (1 + |z|^2)^200 leaves the float range on the outer shells of the domain
        text = (ROOT / "configs" / "lyapunov_confining.cfg").read_text(encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("lyapunov.theta = 1.0", "lyapunov.theta = 200") + extra)
        assert main(["lyapunov-check", str(cfg), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "lyapunov.json").read_text())
        assert (rep["mode"], rep["verdict"]) == (mode, "fails")
        assert capsys.readouterr().err == ""


class TestOtherSubcommands:
    def test_h_bound_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "phi.kind = superlinear\nphi.c0 = 1.0\nphi.beta = 1.0\n"
            "hbound.v0 = 4.0\nhbound.k = 2.0\nhbound.lam = 0.5\n"
            "hbound.tmax = 4.0\nhbound.dt = 0.5\n",
        )
        rc = main(["h-bound", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "envelope.csv").read_text().splitlines()
        assert rows[1] == "t,envelope"
        first = float(rows[2].split(",")[1])
        assert first == pytest.approx(2.0 * 5.0)

    @pytest.mark.parametrize("tmax, dt, n", [(0.3, 0.1, 3), (0.0, 0.25, 0), (1.0, 0.1, 10)])
    def test_h_bound_times_are_whole_steps(self, tmp_path, tmax, dt, n):
        # tmax / dt within rounding of a whole number n gives the times k dt, k = 0..n
        cfg = write_cfg(tmp_path, f"hbound.tmax = {tmax}\nhbound.dt = {dt}\n")
        assert main(["h-bound", str(cfg), "--out", str(tmp_path)]) == 0
        t = np.loadtxt(tmp_path / "envelope.csv", delimiter=",", skiprows=2, ndmin=2)[:, 0]
        assert t.tobytes() == (np.arange(n + 1) * dt).tobytes()

    def test_h_bound_large_v0_starts_at_k_one_plus_v0(self, tmp_path):
        # quad over [0, 1e6] once returned H(1e6) ~ 0 here and the envelope started at 4
        cfg = write_cfg(
            tmp_path,
            "phi.kind = superlinear\nphi.c0 = 1.0\nphi.beta = 1.0\n"
            "hbound.v0 = 1e6\nhbound.k = 4.0\nhbound.lam = 0.8\n"
            "hbound.tmax = 2.0\nhbound.dt = 0.25\n",
        )
        assert main(["h-bound", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "envelope.csv").read_text().splitlines()[2:]
        env = np.array([float(r.split(",")[1]) for r in rows])
        assert env[0] == pytest.approx(4.0 * (1.0 + 1e6), rel=1e-9)
        assert np.all(np.diff(env) <= 0.0)

    def test_h_bound_out_of_reach_exit_3(self, tmp_path, capsys):
        # H(1e20) lies above the largest value H reaches in double precision
        cfg = write_cfg(
            tmp_path,
            "phi.kind = superlinear\nphi.c0 = 1.0\nphi.beta = 1.0\n"
            "hbound.v0 = 1e20\nhbound.k = 4.0\nhbound.lam = 0.8\n",
        )
        assert main(["h-bound", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: H^-1(1.57") and "out of reach" in err
        assert err.count("\n") == 1 and "[" not in err  # the largest target, not the array
        assert not (tmp_path / "manifest.json").exists()

    def test_khasminskii_json(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "drift = scalar_ou\nkhasminskii.f = const\nkhasminskii.a = 0.5\n",
        )
        rc = main(["khasminskii", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "khasminskii.json").read_text())
        assert rep["estimate"] == pytest.approx(np.exp(0.25 * 0.5), rel=1e-6)
        assert rep["lpq_norm"] > 0.0

    def test_mkv_picard_outputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "drift = confining\nc2 = 1.0\nkernel = tanh_y\nkappa = 0.2\n"
            "init.a = (1.0, 1.0)\n",
        )
        rc = main(["mkv-picard", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "picard.json").read_text())
        assert rep["converged"] is True
        assert (tmp_path / "rho.csv").exists()

    def test_overflowing_default_lam_refused_before_any_run(self, tmp_path, monkeypatch, capsys):
        # 4 kappa T overflows to inf; this once ran the first iterate before refusing
        monkeypatch.setattr("kinsde.mckean.simulate_ensemble", None)  # calling it would raise
        cfg = write_cfg(tmp_path, "drift = confining\nkernel = tanh_y\nkappa = 1e308\n")
        assert main(["mkv-picard", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: picard.lam, kappa: lam must be nonnegative "
                                           "and finite, got inf\n")
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("kernel", ["mean_attraction", "tanh_y", "tanh_x"])
    def test_coordinatewise_kernel_needs_one_coordinate(self, tmp_path, capsys, kernel):
        cfg = write_cfg(tmp_path, "d1 = 2\nd2 = 2\nm = 2\nhist.bins = 4\ndrift = confining\n"
                                  f"kernel = {kernel}\nkappa = 0.5\n")
        assert main(["mkv-picard", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"kernel = {kernel}" in err and "sqrt(2) > 1" in err and "needs d1 = 1" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_tanh_x_kernel_runs_at_one_coordinate(self, tmp_path):
        cfg = write_cfg(tmp_path, "N = 50\ndrift = confining\nkernel = tanh_x\nkappa = 0.5\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.json").exists()

    # configs/mkv_picard.cfg with the clipped-difference kernel at N = 300, and
    # the sha256 of its outputs, captured when the kernel was still evaluated
    # by broadcasting over every (particle, cloud point) pair; picard.json again,
    # with only noise_floor moved (0.18733 -> 0.18667), when the floor became a
    # multinomial draw on the last cloud's histogram
    MEAN_ATTRACTION = (
        "# Fixed-point iteration of the law-flow map with a bounded tanh coupling.\n"
        "T = 1.0\nh = 0.01\nN = 300\nseed = 5\nhist.min = -6.0\nhist.max = 6.0\n"
        "hist.bins = 10\ndrift = confining\nc1 = 1.0\nc2 = 1.0\nc3 = 1.0\n"
        "kernel = mean_attraction\nkappa = 0.5\ninit.a = (1.0, 1.0)\n"
    )
    MEAN_ATTRACTION_SHA256 = {
        "picard.json": "a738e42025b874d99a2d346f6fe2c1ff6e049980352daa3776e8ecd8225fb989",
        "rho.csv": "6502b1c12898a827a37d62479a2614ef20bfc1a819c5c82aecc8e8241887a6e0",
    }

    def test_mean_attraction_picard_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.MEAN_ATTRACTION)
        assert main(["mkv-picard", str(cfg), "--out", str(tmp_path)]) == 0
        for name, digest in self.MEAN_ATTRACTION_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    # configs/zvonkin_riesz.cfg at N = 2000 and T = 0.2, and the sha256 of its
    # outputs and of the transformed ensemble's x, y and alive bytes,
    # captured when every table lookup was an np.interp call; zvonkin.json again,
    # with only noise_floor moved (0.08605 -> 0.0741), when the floor became a
    # multinomial draw on the last cloud's histogram
    ZVONKIN_SHA256 = {
        "zvonkin.json": "53822ea6edb4dd1b3d2f230426dedeb036901acc99670e72de65f6f11ff76ef1",
        "solution.csv": "3f284e837663119586da62630dcd57f81ad72a68460f737fdb658efd73725c9e",
        "transformed": "5e109b0c75ba80bb8ee0a824f006835bfd8372800e7472d45ee1738dcf639e86",
    }

    def test_zvonkin_bytes(self, tmp_path, monkeypatch):
        import kinsde.zvonkin as zvonkin

        ensembles = []

        def recording(*args, **kwargs):
            ensembles.append(simulate(*args, **kwargs))
            return ensembles[-1]

        simulate = zvonkin.simulate_ensemble
        monkeypatch.setattr(zvonkin, "simulate_ensemble", recording)
        cfg = tmp_path / "run.cfg"
        cfg.write_text((ROOT / "configs" / "zvonkin_riesz.cfg").read_text()
                       .replace("N = 10000", "N = 2000").replace("T = 1.0", "T = 0.2"))
        assert main(["zvonkin", str(cfg), "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("zvonkin.json", "solution.csv")}
        transformed = ensembles[1]
        digests["transformed"] = hashlib.sha256(b"".join(
            a.tobytes() for a in (transformed.x, transformed.y, transformed.alive))).hexdigest()
        assert digests == self.ZVONKIN_SHA256

    def test_zvonkin_bytes_without_scipy(self, tmp_path):
        """The same run in a process that cannot import scipy."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text((ROOT / "configs" / "zvonkin_riesz.cfg").read_text()
                       .replace("N = 10000", "N = 2000").replace("T = 1.0", "T = 0.2"))
        code = f"""
import hashlib, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} refused")

sys.meta_path.insert(0, RefuseScipy())
import kinsde.zvonkin as zvonkin
from kinsde.cli import main

ensembles = []
simulate = zvonkin.simulate_ensemble
zvonkin.simulate_ensemble = lambda *a, **k: ensembles.append(simulate(*a, **k)) or ensembles[-1]
assert main(["zvonkin", {str(cfg)!r}, "--out", {str(tmp_path)!r}]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
t = ensembles[1]
print(hashlib.sha256(b"".join(a.tobytes() for a in (t.x, t.y, t.alive))).hexdigest())
"""
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 0, out.stderr
        digests = {name: file_sha256(tmp_path / name) for name in ("zvonkin.json", "solution.csv")}
        digests["transformed"] = out.stdout.strip()
        assert digests == self.ZVONKIN_SHA256

    def test_no_subcommand_imports_numpy_ma(self, tmp_path):
        """Every subcommand, on its shrunk shipped config, and ``verify`` run in
        one process that never imports numpy.ma (1.2 MB of every run's memory)."""
        from test_failures import COMMAND, SHRUNK

        runs = []
        for name, lines in sorted(SHRUNK.items()):
            (tmp_path / f"{name}.cfg").write_text("\n".join(lines) + "\n")
            runs.append([COMMAND[name], str(tmp_path / f"{name}.cfg"), "--out",
                         str(tmp_path / name)])
        runs.append(["verify", str(tmp_path / "langevin" / "manifest.json")])
        code = f"""
import sys
from kinsde.cli import main

for argv in {runs!r}:
    assert main(argv) == 0, argv
    if "numpy.ma" in sys.modules:
        sys.exit(f"{{argv[0]}} imported numpy.ma")
"""
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 0, out.stderr

    # configs/ergodicity_riesz.cfg (confining pair plus the floored Riesz drift)
    # at N = 2000 and T = 1.0, and the sha256 of its outputs and of both final
    # ensembles' x, y and alive bytes, captured before the particle fields
    # shared one row-norm helper; distances.csv and fit.json again, with only
    # noise_floor moved (0.06605 -> 0.0622), when the floor became a multinomial
    # draw on the last slice's histogram
    ERGODICITY_RIESZ_SHA256 = {
        "distances.csv": "52b9166c7a6ed62404e9757f9245cc6b73f3a87ef1199ee95a398775c823f9b7",
        "fit.json": "7006fcd125566f8a0ea05dc040679df31f79a51c298f69667bcb75c2bdb52a30",
        "ensembles": "6e0a5bc23088281e078390dbea5ff1a9c7b3a931cc692163a2aff87966bf9263",
    }

    def test_ergodicity_riesz_bytes(self, tmp_path, monkeypatch):
        import kinsde.ergodicity as ergodicity

        ensembles = []

        def recording(*args, **kwargs):
            ensembles.append(simulate(*args, **kwargs))
            return ensembles[-1]

        simulate = ergodicity.simulate_ensemble
        monkeypatch.setattr(ergodicity, "simulate_ensemble", recording)
        cfg = tmp_path / "run.cfg"
        cfg.write_text((ROOT / "configs" / "ergodicity_riesz.cfg").read_text()
                       .replace("N = 10000", "N = 2000").replace("T = 8.0", "T = 1.0"))
        assert main(["ergodicity", str(cfg), "--out", str(tmp_path)]) == 0
        digests = {name: file_sha256(tmp_path / name) for name in ("distances.csv", "fit.json")}
        digests["ensembles"] = hashlib.sha256(b"".join(
            a.tobytes() for e in ensembles for a in (e.x, e.y, e.alive))).hexdigest()
        assert len(ensembles) == 2
        assert digests == self.ERGODICITY_RIESZ_SHA256

    # all three captured again, with only noise_floor moved (kappa 0: 0.1202 ->
    # 0.0826, kappa 0.2: 0.0901 -> 0.102), when the floor became a multinomial
    # draw on the last slice's histogram
    SWEEP_SHA256 = {
        "sweep_tv_0.csv": "9dde6f249945483533ac5778a114accfb94b7baa7ee8c85ca53d220b245a5d3b",
        "sweep_tv_0.2.csv": "ebbf39d67b5878eca5982c1ff070085149be3222daf101b30647417b4465225f",
        # captured before SweepEntry stopped copying its series' fields
        "sweep.json": "d3c11bbe822831c3289a70c1a1f640597ddf518afc92190130b92c9b23479096",
    }

    def test_mkv_sweep_outputs(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "T = 2.0\nh = 0.02\nN = 1000\nseed = 11\nhist.min = -8.0\nhist.max = 8.0\n"
            "hist.bins = 8\ndrift = confining\nc2 = 1.0\nkernel = tanh_y\n"
            "sweep.kappas = [0.0, 0.2]\ninit.a = (2.0, 2.0)\ninit.b = (-2.0, -2.0)\n"
            "record.step = 0.2\nfit.from = 0.5\n"
        )
        rc = main(["mkv-sweep", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "sweep.json").read_text())
        assert {e["kappa"] for e in rep["entries"]} == {0.0, 0.2}
        # captured while off-grid record times were still rounded to a step
        assert {name: file_sha256(tmp_path / name) for name in self.SWEEP_SHA256} == \
            self.SWEEP_SHA256

    def test_zvonkin_smallness_failure_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(
            "T = 0.1\nh = 0.01\nN = 16\nseed = 1\ndrift = confining\n"
            "riesz.atoms = [(0.0, 1e9)]\nriesz.alpha = 0.5\n"
            "zvonkin.L = 4.0\nzvonkin.n = 101\nzvonkin.eps = 0.001\n"
        )
        rc = main(["zvonkin", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "smallness not achieved" in capsys.readouterr().err

    def test_zvonkin_out_of_domain_aborts_exit_3(self, tmp_path, capsys):
        # [-L, L] = [-0.5, 0.5] holds a small share of the transformed cloud
        cfg = write_cfg(tmp_path, "drift = confining\nriesz.atoms = [(0.0, 1.0)]\n"
                                  "riesz.eta = 1e-4\nzvonkin.L = 0.5\nzvonkin.n = 101\n")
        assert main(["zvonkin", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: experiment aborted: ") and "enlarge L" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_zvonkin_subcommand(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "drift = confining\nc2 = 0.5\nriesz.atoms = [(0.0, 1.0)]\n"
            "riesz.alpha = 0.5\nriesz.eta = 1e-4\nzvonkin.L = 10.0\n"
            "zvonkin.n = 1501\nzvonkin.eps = 0.2\n",
        )
        rc = main(["zvonkin", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "zvonkin.json").read_text())
        assert rep["verdict"] == "equivalent"
        assert rep["sup_bound"] < 0.2


class TestVerify:
    def _run_simulate(self, tmp_path):
        cfg = write_cfg(tmp_path, "drift = zero\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        return tmp_path / "manifest.json"

    def test_verify_ok(self, tmp_path, capsys):
        man = self._run_simulate(tmp_path)
        assert main(["verify", str(man)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_detects_tampered_output(self, tmp_path, capsys):
        man = self._run_simulate(tmp_path)
        side = tmp_path / "snapshot.json"
        data = json.loads(side.read_text())
        data["config_hash"] = "deadbeef"
        side.write_text(json.dumps(data))
        assert main(["verify", str(man)]) == 2
        assert "snapshot.json sha256 mismatch" in capsys.readouterr().err

    def test_verify_detects_missing_output(self, tmp_path):
        man = self._run_simulate(tmp_path)
        (tmp_path / "snapshot.bin").unlink()
        assert main(["verify", str(man)]) == 2

    def test_verify_detects_flipped_byte(self, tmp_path, capsys):
        man = self._run_simulate(tmp_path)
        blob = bytearray((tmp_path / "snapshot.bin").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        (tmp_path / "snapshot.bin").write_bytes(bytes(blob))
        assert main(["verify", str(man)]) == 2
        assert "snapshot.bin sha256 mismatch" in capsys.readouterr().err

    def test_verify_detects_truncated_output(self, tmp_path, capsys):
        man = self._run_simulate(tmp_path)
        blob = (tmp_path / "snapshot.bin").read_bytes()
        (tmp_path / "snapshot.bin").write_bytes(blob[:-8])
        assert main(["verify", str(man)]) == 2
        assert "snapshot.bin sha256 mismatch" in capsys.readouterr().err

    def test_verify_refuses_manifest_without_hashes(self, tmp_path, capsys):
        man = self._run_simulate(tmp_path)
        data = json.loads(man.read_text())
        del data["sha256"]
        for text in (json.dumps(data), json.dumps([data])):  # a list once raised AttributeError
            man.write_text(text)
            assert main(["verify", str(man)]) == 2
            assert "records no sha256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, fault",
        # each of the first six once escaped with a traceback (exit 1)
        [("outputs", [5], "output 5 is not a plain file name"),
         ("outputs", [["a"]], "output ['a'] is not a plain file name"),
         ("outputs", "envelope.csv", "outputs is not a list: 'envelope.csv'"),
         ("outputs", None, "outputs is not a list: None"),
         ("config_text", 5, "config_text is not a string: 5"),
         ("outputs", ["", ".", ".."], "output '' is not a plain file name; "
          "output '.' is not a plain file name; output '..' is not a plain file name"),
         # once hashed outside the run directory, and passed
         ("outputs", ["../run.cfg"], "output '../run.cfg' is not a plain file name"),
         # a path separator on Windows
         ("outputs", ["..\\run.cfg"], "output '..\\\\run.cfg' is not a plain file name"),
         # a name listed twice once passed, though the second write had replaced the first
         ("outputs", ["envelope.csv", "envelope.csv"], "output envelope.csv is listed twice"),
         # the config a run records is part of the artifact
         ("config_text", "T = 0.5\nh = 0.02\n", "manifest hash mismatch: ")],
        ids=["int", "list", "string", "null", "config_text", "dots", "parent", "backslash",
             "twice", "edited_config"],
    )
    def test_verify_refuses_malformed_manifest(self, tmp_path, capsys, key, value, fault):
        cfg = write_cfg(tmp_path, "")
        run = tmp_path / "run"
        assert main(["h-bound", str(cfg), "--out", str(run)]) == 0
        man = run / "manifest.json"
        data = json.loads(man.read_text())
        data[key] = value
        data["sha256"]["../run.cfg"] = file_sha256(cfg)
        man.write_text(json.dumps(data))
        assert main(["verify", str(man)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: verify: ") and fault in err

    def test_verify_refuses_a_manifest_that_is_not_json(self, tmp_path, capsys):
        man = self._run_simulate(tmp_path)
        man.write_text(man.read_text()[:-3])
        assert main(["verify", str(man)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: verify: cannot read manifest: ")

    def test_manifest_refuses_a_name_listed_twice(self, tmp_path):
        man = Manifest(tmp_path, "h-bound", "", 0, 0)
        man.csv("envelope.csv", ["t"], [(0.0,)])
        with pytest.raises(ValueError, match="output envelope.csv is already listed"):
            man.csv("envelope.csv", ["t"], [(1.0,)])
        assert man.data["outputs"] == ["envelope.csv"]

    def test_json_output_spells_out_every_inf_and_nan(self, tmp_path):
        # a numpy inf was once written as a bare Infinity, which is not JSON, and a
        # 0-d array or a numpy bool raised TypeError
        def refuse(token):
            raise ValueError(f"bare {token} in a JSON output")

        cli_module.write_json(tmp_path / "a.json", {
            "inf": np.float64("inf"), "ninf": np.float32("-inf"), "nan": np.float64("nan"),
            "list": [np.float64(1.5), float("inf")], "int": np.int64(3),
            "zero_d": np.array(-np.inf), "array": np.array([[np.nan, 2.0]]),
            "flag": np.bool_(True)}, "h")
        assert json.loads((tmp_path / "a.json").read_text(), parse_constant=refuse) == {
            "inf": "inf", "ninf": "-inf", "nan": "nan", "list": [1.5, "inf"], "int": 3,
            "zero_d": "-inf", "array": [["nan", 2.0]], "flag": True, "config_hash": "h"}
