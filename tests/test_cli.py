import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinsde.cli import _parse_config, _sim_config, main
from kinsde.integrators import load_snapshot

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
    p = tmp_path / name
    p.write_text(BASE + extra)
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

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_invalid_dynamics_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("T = 1.0\nh = 0.0\nN = 5\ndrift = zero\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert "nonpositive step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["N = 2.5", "seed = 1.9", "d1 = 1.7", "d2 = 1.5", "m = 1.5",
                 "hist.bins = 8.5", "hist.bins = [8, 8.5]", "d1 = [1, 1]"],
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
        [("simulate", "drift = zero\nworkers = 1.5\n", "workers"),
         ("lyapunov-check", "lyap.radii = 6.9\nlyap.dirs = 4\n", "lyap.radii"),
         ("lyapunov-check", "lyap.radii = 6\nlyap.dirs = 4.5\n", "lyap.dirs"),
         ("zvonkin", "zvonkin.n = 400.5\n", "zvonkin.n"),
         ("mkv-picard", "picard.maxiter = 2.5\n", "picard.maxiter")],
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

    @pytest.mark.parametrize(
        "extra, argv",
        [("", ["--workers", "-3"]), ("", ["--workers", "0"]),
         ("workers = 0\n", []), ("workers = -3\n", []), ("workers = 4\n", ["--workers", "-1"])],
    )
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
         ("mkv-sweep", "h = 0.02\nrecord.step = 0.25\n",
          "record.step = 0.25: record time 0.25 is off the step grid h = 0.02"),
         ("ergodicity", "h = 0.02\nrecord.step = 0.25\n", "record.step = 0.25"),
         ("ergodicity", "record.start = 0.005\n", "record.start = 0.005"),
         ("ergodicity", "record.stop = 1.0\n", "record.stop = 1: record time"),
         ("mkv-sweep", "record.stop = 3.0\nrecord.step = 0.1\n",
          "record.stop = 3: record time 0.6 lies outside [0, T = 0.5]")],
    )
    def test_bad_run_value_exit_2_naming_key(self, tmp_path, monkeypatch, capsys,
                                             command, extra, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, extra)
        argv = [command, str(cfg)] + ([] if "out.dir" in extra else ["--out", str(tmp_path)])
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, line",
        [("simulate", "store_increments = no"), ("simulate", "store_increments = 1"),
         ("simulate", "store_increments = 'True'"), ("mkv-picard", "picard.crn = yes"),
         ("mkv-picard", "picard.crn = 0")],
    )
    def test_non_boolean_flag_exit_2(self, tmp_path, capsys, command, line):
        cfg = write_cfg(tmp_path, f"drift = scalar_ou\n{line}\n")
        assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
        key = line.split(" =")[0]
        assert f"{key} must be True or False" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_store_increments_false_writes_none(self, tmp_path):
        cfg = write_cfg(tmp_path, "drift = scalar_ou\nstore_increments = False\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        assert not load_snapshot(tmp_path / "snapshot")[1]["has_increments"]

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

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "drift = zero\n")
        monkeypatch.setenv("KINSDE_OUT", str(tmp_path / "envout"))
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()


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
        # captured while off-grid record times were still rounded to a step
        assert file_sha256(tmp_path / "distances.csv") == (
            "2a94a6539c0e1e0e70f0a0dbef364d206b6ab05d0b69948bb34012b0894aee6a")

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

    @pytest.mark.parametrize("kernel", ["mean_attraction", "tanh_y", "tanh_x"])
    def test_coordinatewise_kernel_needs_one_coordinate(self, tmp_path, capsys, kernel):
        cfg = write_cfg(tmp_path, "d1 = 2\nd2 = 2\nm = 2\nhist.bins = 4\ndrift = confining\n"
                                  f"kernel = {kernel}\nkappa = 0.5\n")
        assert main(["mkv-picard", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"kernel = {kernel}" in err and "sqrt(2) > 1" in err and "needs d1 = 1" in err
        assert not (tmp_path / "manifest.json").exists()

    # configs/mkv_picard.cfg with the clipped-difference kernel at N = 300, and
    # the sha256 of its outputs, captured when the kernel was still evaluated
    # by broadcasting over every (particle, cloud point) pair
    MEAN_ATTRACTION = (
        "# Fixed-point iteration of the law-flow map with a bounded tanh coupling.\n"
        "T = 1.0\nh = 0.01\nN = 300\nseed = 5\nhist.min = -6.0\nhist.max = 6.0\n"
        "hist.bins = 10\ndrift = confining\nc1 = 1.0\nc2 = 1.0\nc3 = 1.0\n"
        "kernel = mean_attraction\nkappa = 0.5\ninit.a = (1.0, 1.0)\n"
    )
    MEAN_ATTRACTION_SHA256 = {
        "picard.json": "ffeb6889acf8aa387d1305e68ecfb54ee3afbf6c855a922935ae2d3a781b8ecc",
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
    # captured when every table lookup was an np.interp call
    ZVONKIN_SHA256 = {
        "zvonkin.json": "0a03eb20597ae095411e7b55acd024d26fd84e75de79b9c69ee8d6cecf788e19",
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

    SWEEP_SHA256 = {
        "sweep_tv_0.csv": "847c3a7955a8fb0615aaa9a11328444a778862e1e31dbdbcfa2c0de03b36c52d",
        "sweep_tv_0.2.csv": "a60197f688325864a6febcc27659b6bbcb049509766b71da9605953033ea9fbd",
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

    def test_store_increments_in_snapshot(self, tmp_path):
        cfg = write_cfg(tmp_path, "drift = scalar_ou\nstore_increments = True\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        law, meta = load_snapshot(tmp_path / "snapshot")
        assert meta["has_increments"]
        assert meta["increments"].shape == (50, 200, 1)

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
        man.write_text(json.dumps(data))
        assert main(["verify", str(man)]) == 2
        assert "records no sha256" in capsys.readouterr().err
