"""The two failure classes: every refusal is an InputError (exit 2), every numeric
failure a NumericError (exit 3), and any other exception escapes ``main`` as a bug."""

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kinsde.cli as cli
from kinsde.core import InputError, NumericError

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["kinsde", "kinsde.cli", "kinsde.core", "kinsde.ergodicity", "kinsde.fields",
           "kinsde.integrators", "kinsde.lyapunov", "kinsde.mckean", "kinsde.zvonkin"]
COMMAND = {"ergodicity_riesz": "ergodicity", "h_bound": "h-bound", "khasminskii": "khasminskii",
           "langevin": "simulate", "lyapunov_confining": "lyapunov-check",
           "mkv_picard": "mkv-picard", "mkv_sweep": "mkv-sweep", "zvonkin_riesz": "zvonkin"}


def exception_classes():
    for name in MODULES:
        mod = importlib.import_module(name)
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == name:
                yield cls


class TestTaxonomy:
    def test_every_class_derives_from_exactly_one_base(self):
        classes = set(exception_classes())
        assert len(classes) <= 5, sorted(c.__name__ for c in classes)
        for cls in classes:
            assert issubclass(cls, InputError) != issubclass(cls, NumericError), cls

    @pytest.mark.parametrize("fault", [IndexError, ZeroDivisionError])
    def test_other_faults_escape_main(self, tmp_path, monkeypatch, fault):
        def broken(*args, **kwargs):
            raise fault("a bug")

        monkeypatch.setitem(cli._SUBCOMMANDS, "simulate", broken)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 0.1\nh = 0.01\nN = 5\ndrift = zero\n")
        with pytest.raises(fault, match="a bug"):
            cli.main(["simulate", str(cfg), "--out", str(tmp_path)])
        assert not (tmp_path / "manifest.json").exists()


# --- one-key mutations of the shipped configs ---------------------------------------

def shrunk(path: Path) -> list[str]:
    """The config's key lines at N <= 32, T <= 2 and h = 0.05: every shipped config
    keeps its record times on that grid and runs in well under a second."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if "=" not in line or line.startswith("#"):
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "N":
            val = min(int(float(val)), 32)
        elif key == "T":
            val = min(float(val), 2.0)
        elif key == "h":
            val = 0.05
        out.append(f"{key} = {val}")
    return out


SHRUNK = {p.stem: shrunk(p) for p in sorted((ROOT / "configs").glob("*.cfg"))}
MUTATIONS = ["wrong type", "0", "-1", "nan", "inf", "1e300", "1e-300", "deleted", "repeated"]


def mutated(lines: list[str], key: str, how: str) -> str:
    out = []
    for line in lines:
        if line.split(" =")[0] != key:
            out.append(line)
        elif how == "repeated":
            out += [line, line]
        elif how == "wrong type":
            # a number where the config holds a name, a name where it holds anything else
            text = line.split("= ", 1)[1]
            out.append(f"{key} = {5 if text.isidentifier() else repr('x')}")
        elif how != "deleted":
            out.append(f"{key} = {how}")
    return "\n".join(out) + "\n"


def print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main`` under the warning filters and printer a plain ``kinsde`` process starts
    with (a RuntimeWarning goes to stderr, where pytest would raise or record it), with
    stderr captured."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                         ResourceWarning):
            warnings.simplefilter("ignore", category)
        warnings.showwarning = print_warning
        rc = cli.main(argv)
    return rc, err.getvalue()


class TestMutatedConfigs:
    @pytest.mark.parametrize("name", sorted(SHRUNK))
    def test_shrunk_config_runs(self, tmp_path, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(SHRUNK[name]) + "\n")
        assert run_main([COMMAND[name], str(cfg), "--out", str(tmp_path / "o")]) == (0, "")

    # the sha256 of every output, captured while ConfiningDrift and RieszDrift
    # were still called through adapters that dropped t and the law
    SHRUNK_SHA256 = {
        "h_bound": {
            "envelope.csv": "8d5cf4ddd1994e3f6a4e262269151993bc3873712be448e87bad2a1e310a1da0"},
        "khasminskii": {
            "khasminskii.json": "1f59331d4083e9b6c430dfe859ccd670735fdfa966e513eb6f4a9c4f741fa487"},
        "langevin": {
            "snapshot.bin": "8f32d17e6b3498db02a659497354009c89024e370e33967c80afd5468e3832a1",
            "snapshot.json": "f40965ac5bfb8ea5cb9e50629d2998c2b4b7fcbbb43fe93d61bb49ba66e3844d"},
        # margins.csv since its margins became K - (LHS + Phi(V)), the sum K_min maximises
        "lyapunov_confining": {
            "lyapunov.json": "8d06e5302b2e75821649d21d2474dc23f4e6c9b1faa1a173e32a0e715376fddd",
            "margins.csv": "5826b2e643f5cbb39166dcda1e85b220ebfa52878416149f38e07612a1c4947d"},
    }

    @pytest.mark.parametrize("name", sorted(SHRUNK_SHA256))
    def test_shrunk_config_bytes(self, tmp_path, name):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_text("\n".join(SHRUNK[name]) + "\n")
        assert run_main([COMMAND[name], str(cfg), "--out", str(out)]) == (0, "")
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in outputs} == \
            self.SHRUNK_SHA256[name]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_key_mutation_is_classified(self, data):
        name = data.draw(st.sampled_from(sorted(SHRUNK)), label="config")
        key = data.draw(st.sampled_from([ln.split(" =")[0] for ln in SHRUNK[name]]), label="key")
        how = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
            cfg.write_text(mutated(SHRUNK[name], key, how))
            rc, err = run_main([COMMAND[name], str(cfg), "--out", str(out)])
            assert rc in (0, 2, 3)
            assert "Traceback" not in err
            if rc:
                assert err.count("\n") == 1 and err.endswith("\n"), err
                assert not (out / "manifest.json").exists()
            else:
                assert err == ""  # a warning on a run that succeeds hides a fault
            if how == "nan":
                assert rc == 2, err  # a nan means nothing to any key
            if rc == 2:
                assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err), err

    # keys no shipped config sets, each once read unchecked into a run
    @pytest.mark.parametrize("name, lines", [
        ("ergodicity_riesz", ["z.scale = nan"]),
        ("mkv_picard", ["z.scale = nan"]),
        ("lyapunov_confining", ["z.scale = nan"]),
        ("khasminskii", ["norm.extent = nan"]),
        ("khasminskii", ["khasminskii.f = 'const'", "khasminskii.a = nan"]),
        ("mkv_picard", ["kernel = constant", "kernel.w = nan"]),
    ], ids=["ergodicity-z.scale", "mkv-picard-z.scale", "lyapunov-check-z.scale",
            "khasminskii-norm.extent", "khasminskii-khasminskii.a", "mkv-picard-kernel.w"])
    def test_nan_in_an_optional_key_is_refused(self, tmp_path, monkeypatch, name, lines):
        monkeypatch.setattr("kinsde.integrators._step_noise", None)  # a run would raise
        keys = [ln.split(" =")[0] for ln in lines]
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("\n".join([ln for ln in SHRUNK[name] if ln.split(" =")[0] not in keys]
                                 + lines) + "\n")
        rc, err = run_main([COMMAND[name], str(cfg), "--out", str(out)])
        assert rc == 2 and err.count("\n") == 1, err
        assert re.search(rf"(?<![\w.]){re.escape(keys[-1])}(?!\w)", err), err
        assert not (out / "manifest.json").exists()


class TestConfigFaults:
    """``SimConfig`` refuses a T, h, scheme or histogram that do not fit together, so every
    subcommand exits 2 naming the key before it creates ``--out`` or starts any work."""

    @pytest.mark.parametrize("key, value", [("h", 0.3), ("T", 0.02), ("scheme", "'x'"),
                                            ("hist.bins", 1)])
    @pytest.mark.parametrize("name", sorted(SHRUNK))
    def test_refused_before_any_work(self, tmp_path, monkeypatch, name, key, value):
        monkeypatch.setitem(cli._SUBCOMMANDS, COMMAND[name], None)  # calling it would raise
        lines = [ln for ln in SHRUNK[name] if ln.split(" =")[0] != key] + [f"{key} = {value}"]
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("\n".join(lines) + "\n")
        rc, err = run_main([COMMAND[name], str(cfg), "--out", str(out)])
        assert rc == 2 and err.count("\n") == 1, err
        assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err), err
        assert not out.exists()

    def test_zvonkin_off_grid_step_refused_before_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "equivalence_experiment", None)  # calling it would raise
        text = (ROOT / "configs" / "zvonkin_riesz.cfg").read_text(encoding="utf-8")
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(text.replace("h = 0.001", "h = 0.0003"))
        rc, err = run_main(["zvonkin", str(cfg), "--out", str(out)])
        assert (rc, err) == (2, "error: T/h = 3333.3333333333335 is not integral "
                                "within rounding tolerance\n")
        assert not out.exists()
