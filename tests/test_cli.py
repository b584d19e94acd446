import argparse
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import traced_peak

from orbitdensity import bergman, cli, commands, finite_gabor, frames, fuchsian, hyperbolic
from orbitdensity.errors import (
    NotRieszError,
    NumericalFailure,
    OracleInconsistencyError,
    ResourceLimitError,
    UsageError,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_env(threads: str) -> dict:
    """The environment of a fresh interpreter on this source tree whose BLAS
    uses this many threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )


def run_python(threads: str, *args, check: bool = True):
    """A fresh interpreter on this source tree whose BLAS uses this many threads."""
    return subprocess.run(
        [sys.executable, *args],
        env=python_env(threads),
        capture_output=True,
        check=check,
        timeout=120,
    )


def run_cli_with_blas_threads(threads: str, *argv):
    """The CLI in a fresh interpreter whose BLAS uses this many threads."""
    return run_python(threads, "-m", "orbitdensity.cli", *argv)


# third-party and costly stdlib modules that loaded_modules also reports:
# numpy.random alone pulls in hashlib, secrets and OpenSSL; json and csv
# load only for a record written in their format
WATCHED_MODULES = ("numpy", "numpy.random", "hashlib", "secrets", "json", "csv")

# runs cli.main on each argv given as a Python literal, then prints the exit
# codes and the package and watched modules imported; the modules are taken
# before the probe imports json to print them
_LOADED_MODULES = """
import ast, contextlib, io, sys
from orbitdensity import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in ast.literal_eval(sys.argv[1])]
loaded = set(sys.modules)
import json
watched = set(json.loads(sys.argv[2]))
print(json.dumps([codes, sorted(m for m in loaded if m.startswith("orbitdensity.") or m in watched)]))
"""


def loaded_modules(*argvs) -> tuple[list, set]:
    """Exit codes of the commands, run in turn in one fresh interpreter, and
    the package modules and :data:`WATCHED_MODULES` that interpreter imported."""
    child = run_python("1", "-c", _LOADED_MODULES, repr(argvs), json.dumps(WATCHED_MODULES))
    codes, modules = json.loads(child.stdout)
    return codes, set(modules)


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestParsing:
    def test_parse_point_formats(self):
        assert commands.parse_point("i").as_complex == 1j
        assert commands.parse_point("2i").as_complex == 2j
        assert commands.parse_point("0.5+0.866i").as_complex == 0.5 + 0.866j
        with pytest.raises(UsageError):
            commands.parse_point("1.0")
        with pytest.raises(UsageError):
            commands.parse_point("nonsense")


class TestExitCodes:
    def test_usage_error_on_bad_n_max(self, capsys):
        code, _, err = run_cli(capsys, "finite-scan", "--n-max", "0")
        assert code == 2
        assert "n_max" in err

    def test_usage_error_on_alpha_one(self, capsys):
        code, _, _ = run_cli(
            capsys, "bergman-density", "--alpha", "1.0", "--z", "i", "--ball", "3"
        )
        assert code == 2

    def test_oversized_windows_exit_three_before_drawing(self, capsys):
        # a billion windows per case; the cap is checked before any window is drawn
        argv = ("finite-scan", "--n-max", "16", "--windows", "1000000000", "--format", "csv")
        (code, out, err), peak = traced_peak(run_cli, capsys, *argv)
        assert code == 3 and out == ""
        assert f"over the cap of {finite_gabor.ORBIT_STACK_BYTE_CAP} bytes" in err
        assert "Traceback" not in err
        assert peak < 1 << 20

    def test_unknown_command_exits_two(self, capsys):
        assert cli.main(["no-such-command"]) == 2

    def test_scan_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "finite-scan", "--n-max", "2", "--windows", "3", "--seed", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("n,subgroup_order")

    def test_malformed_lattice_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text("lattice.name = foo\nlattice.generators = 1,x,0,1\n")
        code, _, err = run_cli(
            capsys, "ball", "--lattice", "foo", "--norm", "2", "--config", str(cfg)
        )
        assert code == 2
        assert "lattice.generators" in err

    def test_malformed_config_value_is_usage_error(self, capsys, tmp_path):
        # argparse parses a config value with its flag's type
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = two\n")
        code, _, err = run_cli(capsys, "ball", "--config", str(cfg))
        assert code == 2
        assert "argument --norm: invalid float value: 'two'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("finite-scan", "--windows", "3"), "finite-scan requires --n-max"),
            (("bergman-density", "--probes", "8"), "bergman-density requires --alpha and --z and --ball"),
            (("bergman-density", "--z", "i"), "bergman-density requires --alpha and --ball"),
            (("formal-degree",), "formal-degree requires --alpha"),
            (("ball", "--lattice", "psl2z"), "ball requires --norm"),
            (("stabilizer",), "stabilizer requires --z and --ball"),
            (("stabilizer", "--z", "i"), "stabilizer requires --ball"),
        ],
        ids=["finite-scan", "bergman-density", "bergman-density-z", "formal-degree", "ball", "stabilizer", "stabilizer-z"],
    )
    def test_missing_required_flags_are_all_named(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ball", "--norm", "nan"), "norm_bound must be finite and at least sqrt(2), got nan"),
            (("ball", "--norm", "inf"), "norm_bound must be finite and at least sqrt(2), got inf"),
            (("stabilizer", "--z", "i", "--ball", "nan"), "norm_bound must be finite and at least sqrt(2), got nan"),
            (
                ("bergman-density", "--alpha", "3", "--z", "i", "--ball", "nan"),
                "norm_bound must be finite and at least sqrt(2), got nan",
            ),
            (("formal-degree", "--alpha", "3", "--haar-scale", "inf"), "haar_scale must be positive and finite, got inf"),
            (
                ("bergman-density", "--alpha", "3", "--z", "i", "--ball", "4", "--haar-scale", "inf"),
                "haar_scale must be positive and finite, got inf",
            ),
            (
                ("bergman-density", "--alpha", "3", "--z", "i", "--ball", "4", "--refine-delta", "inf"),
                "refine_delta must be positive and finite, got inf",
            ),
            (
                ("bergman-density", "--lattice", "g", "--alpha", "3", "--z", "i", "--ball", "4"),
                "covolume must be positive and finite, got inf",
            ),
        ],
        ids=[
            "ball-nan", "ball-inf", "stabilizer-nan", "bergman-density-nan", "formal-degree-inf",
            "bergman-density-inf", "refine-delta-inf", "covolume-inf",
        ],
    )
    def test_non_finite_bounds_and_scales_exit_2(self, capsys, tmp_path, argv, message):
        # NaN passes every lower-bound comparison, and an infinite ball,
        # Haar scale, refinement step or covolume has no finite result; the
        # lattice block is read only where --lattice names it
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text("lattice.name = g\nlattice.generators = 1,2,0,1; 0,-1,1,0\nlattice.covolume = inf\n")
        assert run_cli(capsys, *argv, "--config", str(cfg)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "failure",
        [NumericalFailure, ResourceLimitError, OracleInconsistencyError, NotRieszError, BrokenPipeError],
    )
    def test_numerical_and_resource_failures_exit_three(self, capsys, monkeypatch, failure):
        def fail(*args, **kwargs):
            raise failure("injected")

        monkeypatch.setattr(fuchsian, "ball_enumerate", fail)
        code, _, err = run_cli(capsys, "ball", "--norm", "2")
        assert code == 3
        assert "failure: injected" in err

    def test_non_hermitian_frame_operator_exits_three(self, capsys, monkeypatch):
        # a matrix the program built is a numerical failure, not a usage error
        frame_operator = frames.frame_operator

        def skewed(V):
            S = frame_operator(V)
            S[..., 0, -1] += 1e-6 * np.abs(S).max()
            return S

        monkeypatch.setattr(frames, "frame_operator", skewed)
        code, _, err = run_cli(capsys, "finite-scan", "--n-max", "3", "--windows", "1")
        assert code == 3
        assert "failure: frame operator is not Hermitian" in err and "Traceback" not in err

    def test_float_overflow_from_a_huge_weight_exits_three(self, capsys):
        # ||k_z||^2 = (alpha - 1) / (4 pi) (Im z)^-alpha is 4^1000 / (4 pi) and more
        code, _, err = run_cli(
            capsys, "bergman-density", "--alpha", "2000", "--z=0.5i", "--ball", "4", "--probes", "8"
        )
        assert code == 3
        assert "failure:" in err and "Traceback" not in err
        assert "||k_z||^2" in err and "alpha = 2000.0" in err and "Im z = 0.5" in err

    @pytest.mark.parametrize(
        "covolume, alpha, expected",
        [
            ("1e-323", "3", (2, "", "error: density product 1e-323 * 0.15915494309189535 underflows to 0.0\n")),
            ("1e308", "30", (3, "", "failure: density product 1e+308 * 2.3077466748324826 overflows to inf\n")),
        ],
        ids=["underflow", "overflow"],
    )
    def test_the_density_product_is_checked_before_the_ball(self, capsys, tmp_path, monkeypatch, covolume, alpha, expected):
        # every factor is positive, yet the product is 0 or inf; an infinite
        # product would widen the verdicts' tolerance to infinity and pass both
        def unreachable(*args, **kwargs):
            raise AssertionError("the ball was enumerated")

        monkeypatch.setattr(fuchsian, "ball_enumerate", unreachable)
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text(f"lattice.name = g\nlattice.generators = 1,2,0,1; 0,-1,1,0\nlattice.covolume = {covolume}\n")
        argv = ("--config", str(cfg), "--lattice", "g", "--alpha", alpha, "--z=0.3+1.5i", "--ball", "5", "--probes", "8")
        assert run_cli(capsys, "bergman-density", *argv) == expected

    @pytest.mark.parametrize(
        "argv",
        [("ball", "--norm", "3"), ("stabilizer", "--z", "i", "--ball", "4"), ("bergman-density", "--alpha", "3", "--z", "i", "--ball", "5")],
        ids=["ball", "stabilizer", "bergman-density"],
    )
    def test_a_lattice_block_named_psl2z_is_refused(self, capsys, tmp_path, argv):
        # the built-in would shadow the block: ball printed PSL(2, Z)'s 26 elements, certified
        cfg = tmp_path / "p.cfg"
        cfg.write_text("lattice.name = psl2z\nlattice.generators = 1,2,0,1; 0,-1,1,0\nlattice.covolume = 3.141592653589793\n")
        message = "error: lattice.name 'psl2z' is reserved for the built-in modular group\n"
        assert run_cli(capsys, *argv, "--config", str(cfg)) == (2, "", message)
        assert run_cli(capsys, *argv, "--config", str(cfg), "--lattice", "psl2z") == (2, "", message)

    def test_a_huge_weight_leaves_the_stabiliser_in_range(self, capsys):
        # every overlap of unit kernels lies in [0, 1]
        code, out, _ = run_cli(capsys, "stabilizer", "--z", "i", "--alpha", "2000", "--ball", "4", "--format", "json")
        assert code == 0
        assert json_lines(out)[0]["order"] == 2

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("finite-scan", "--n-max", "2", "--windows", "1"), "haar_scale"),
            (("ball", "--norm", "2"), "haar_scale"),
            (("stabilizer", "--z", "i", "--ball", "3"), "haar_scale"),
            # the probe radius and the decision floors are constants
            *((("bergman-density", "--alpha", "2", "--z", "i", "--ball", "3"), key)
              for key in ("probe_radius", "frame_floor", "riesz_floor")),
        ],
        ids=["finite-scan", "ball", "stabilizer", "probe-radius", "frame-floor", "riesz-floor"],
    )
    def test_haar_scale_is_refused_where_nothing_reads_it(self, capsys, tmp_path, argv, key):
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(capsys, *argv, flag, "5")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 5" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"unknown config keys: ['{key}']" in err

    def test_a_large_weight_on_a_large_ball_exits_zero(self, capsys):
        # |cz + d|^-300 would underflow to 0 for the large elements of the
        # ball, and plain probe kernels at alpha 700 span e^+-700 in norm; the
        # unit kernels and the weighted unit probes need no such number
        for alpha, z in (("300", "0.3+1.5i"), ("700", "i")):
            code, out, err = run_cli(
                capsys, "bergman-density", "--alpha", alpha, f"--z={z}", "--ball", "10", "--probes", "8",
                "--format", "json",
            )
            assert code == 0 and err == ""
            reports = json_lines(out)[:-1]
            for field in ("riesz_min", "riesz_max", "diag_riesz_trace_min", "diag_riesz_trace_max"):
                values = [float(v) for r in reports for v in str(r[field]).split(";")]
                assert np.all(np.isfinite(values)), field

    def test_programming_bug_exits_four_with_traceback(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            return {}["missing"]

        monkeypatch.setattr(fuchsian, "ball_enumerate", broken)
        code, _, err = run_cli(capsys, "ball", "--norm", "2")
        assert code == 4
        assert "Traceback" in err and "KeyError" in err


class TestNegativePoint:
    # "--z -0.5+..." would be read as an option without the rewrite to --z=VALUE
    def test_stabilizer(self, capsys):
        code, out, _ = run_cli(
            capsys, "stabilizer", "--z", "-0.5+0.866i", "--ball", "4", "--format", "json"
        )
        assert code == 0
        record = json_lines(out)[0]
        assert record["z"] == "-0.5+0.866i"
        assert record["order"] == 3

    def test_bergman_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "bergman-density", "--alpha", "2", "--z", "-0.5+0.8660254037844386i",
            "--ball", "4", "--probes", "8", "--format", "json",
        )
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["z"] == "-0.5+0.8660254037844386i"
        assert summary["stab_order"] == 3

    def test_formal_degree(self, capsys):
        # formal-degree takes no point: the rewritten flag is refused whole
        code, out, err = run_cli(capsys, "formal-degree", "--alpha", "2", "--z", "-0.5+1i")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --z=-0.5+1i" in err

    def test_equals_form_and_config_key(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "stabilizer", "--z=-0.5+0.866i", "--ball", "4", "--format", "json"
        )
        assert code == 0 and json_lines(out)[0]["order"] == 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z = -0.5+0.866i\nball = 4\nformat = json\n")
        code, out, _ = run_cli(capsys, "stabilizer", "--config", str(cfg))
        assert code == 0 and json_lines(out)[0]["order"] == 3


class TestDeterminism:
    def test_scan_byte_identical(self, capsys):
        args = ("finite-scan", "--n-max", "3", "--windows", "4", "--seed", "7", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_density_byte_identical(self, capsys):
        args = (
            "bergman-density", "--alpha", "2", "--z", "i", "--ball", "4",
            "--probes", "12", "--format", "json",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


    def test_formal_degree_independent_of_blas_threads(self):
        outputs = [run_cli_with_blas_threads(t, "formal-degree", "--alpha", "2") for t in "12"]
        assert outputs[0].stdout == outputs[1].stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("ball", "--norm", "6", "--format", "csv"),
            ("stabilizer", "--z=0.5+0.8660254037844386i", "--ball", "6"),
            ("formal-degree", "--alpha", "3"),
        ],
        ids=["ball", "stabilizer", "formal-degree"],
    )
    def test_array_paths_independent_of_blas_threads(self, argv):
        outputs = [run_cli_with_blas_threads(t, *argv) for t in "12"]
        assert outputs[0].stdout == outputs[1].stdout

    def test_finite_scan_independent_of_blas_threads(self):
        argv = ("finite-scan", "--n-max", "5", "--windows", "3", "--seed", "2", "--format", "csv")
        outputs = [run_cli_with_blas_threads(t, *argv) for t in "12"]
        assert outputs[0].stdout == outputs[1].stdout
        assert outputs[0].stderr == outputs[1].stderr


def test_scan_at_n_max_ten(capsys):
    code, out, err = run_cli(
        capsys, "finite-scan", "--n-max", "10", "--windows", "1", "--format", "csv"
    )
    assert code == 0
    # per subgroup: the random window, n basis vectors, the constant and one
    # indicator per divisor 2 <= d < n; Z_n x Z_n has sum gcd(a, b) over
    # divisors a, b of n subgroups
    expected = 0
    for n in range(2, 11):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        subgroups = sum(math.gcd(a, b) for a in divisors for b in divisors)
        expected += subgroups * (1 + n + 1 + sum(1 for d in divisors if 2 <= d < n))
    summary = err.splitlines()
    assert f"# total_cases = {expected}" in summary
    assert "# violations = 0" in summary
    assert len(out.splitlines()) == expected + 1


# the package modules that --help and a usage error caught by the parser or
# the required check load
ENTRY_MODULES = {"orbitdensity.cli", "orbitdensity.errors"}


class TestProcessEntry:
    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (("finite-scan", "--n-max", "5", "--windows", "3", "--format", "csv"), 0),
            (("finite-scan", "--n-max", "5", "--windows", "3", "--format", "json"), 0),
            (("finite-scan", "--n-max", "5", "--windows", "3", "--format", "csv", "--out", "{out}"), 0),
            (("finite-scan", "--windows", "3"), 2),
            (("finite-scan", "--n-max", "5", "--no-such-flag"), 2),
            (("finite-scan", "--n-max", "16", "--windows", "1000000000"), 3),
            (("bergman-density", "--help"), 0),
            (("formal-degree", "--help"), 0),
            (("ball", "--norm", "3", "--config", "{config}"), 2),
            (("ball", "--norm", "3", "--config", "{missing}"), 2),
        ],
        ids=[
            "csv", "json", "out-file", "usage-error", "unknown-flag", "oversized-windows",
            "bergman-density-help", "formal-degree-help", "unknown-config-key", "missing-config",
        ],
    )
    def test_spawned_cli_matches_main_in_process(self, capsys, tmp_path, argv, expected_code):
        spawned_out, in_process_out = tmp_path / "spawned.csv", tmp_path / "in_process.csv"
        config, missing = tmp_path / "unknown_key.cfg", tmp_path / "missing.cfg"
        config.write_text("no_such_key = 1\n")
        spawn_argv = [arg.format(out=spawned_out, config=config, missing=missing) for arg in argv]
        child = run_python("1", "-m", "orbitdensity.cli", *spawn_argv, check=False)
        code, out, err = run_cli(
            capsys, *(arg.format(out=in_process_out, config=config, missing=missing) for arg in argv)
        )
        assert (child.returncode, child.stdout.decode(), child.stderr.decode()) == (code, out, err)
        assert code == expected_code
        if "--out" in argv:
            assert spawned_out.read_bytes() == in_process_out.read_bytes()
            assert in_process_out.read_text().startswith("n,subgroup_order,")

    def test_main_in_process_freezes_nothing(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert run_cli(capsys, "finite-scan", "--n-max", "3", "--windows", "1")[0] == 0
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled() == enabled

    def test_run_calls_main_with_the_collector_off(self, monkeypatch):
        # the process entry turns the cyclic collector off for the rest of the process
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append(gc.isenabled()) or 0)
        monkeypatch.setattr(os, "_exit", calls.append)
        enabled = gc.isenabled()
        gc.enable()
        try:
            cli.run()
        finally:
            (gc.enable if enabled else gc.disable)()
        assert calls == [False, 0]

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, read",
        [
            (("finite-scan", "--n-max", "7", "--windows", "6", "--format", "csv"), 10),
            (("finite-scan", "--n-max", "7", "--windows", "20", "--format", "csv"), 10),
            (("ball", "--norm", "3"), 0),
        ],
        ids=["scan-closed-after-10-bytes", "scan-148kB-closed-after-10-bytes", "ball-closed-before-output"],
    )
    def test_reader_closing_early_exits_three(self, argv, read, buffered):
        # a buffered small output fails only at run()'s final flush, which
        # reports it like main does. A CSV table is flushed before its
        # summary goes to stderr, so a closed reader fails the command first,
        # however fast the writer; the 72 kB scan nearly fits the pipe (64 kB)
        # and the reader's first buffered read (8 kB), the 148 kB one does not.
        env = python_env("1")
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen(
            [sys.executable, "-m", "orbitdensity.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(child.stdout.read(read)) == read
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 3
        assert err == b"failure: [Errno 32] Broken pipe\n"

    def test_script_entry_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"orbit-density": "orbitdensity.cli:run"}


class TestImports:
    def test_finite_scan_imports_no_bergman_module(self):
        codes, modules = loaded_modules(["finite-scan", "--n-max", "3", "--windows", "1"])
        assert codes == [0]
        assert "orbitdensity.finite_gabor" in modules
        bergman_side = {"orbitdensity.bergman", "orbitdensity.fuchsian", "orbitdensity.hyperbolic"}
        assert not modules & bergman_side
        # the random windows come from the stdlib generator
        assert "numpy" in modules
        assert not modules & {"numpy.random", "hashlib", "secrets"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["bergman-density", "--alpha", "2", "--z", "i", "--ball", "4", "--probes", "8"],
            ["formal-degree", "--alpha", "3"],
            ["ball", "--norm", "4"],
            ["stabilizer", "--z", "i", "--ball", "4"],
        ],
        ids=["bergman-density", "formal-degree", "ball", "stabilizer"],
    )
    def test_bergman_commands_import_no_exact_oracle(self, argv):
        codes, modules = loaded_modules(argv)
        assert codes == [0]
        assert "orbitdensity.fuchsian" in modules
        assert "orbitdensity.finite_gabor" not in modules

    def test_help_imports_no_command_module(self):
        commands = ["finite-scan", "bergman-density", "formal-degree", "ball", "stabilizer"]
        codes, modules = loaded_modules(["--help"], *([command, "--help"] for command in commands))
        assert codes == [0] * 6
        assert modules == ENTRY_MODULES

    def test_usage_error_before_the_command_imports_loads_no_numpy(self):
        codes, modules = loaded_modules(["finite-scan", "--windows", "3"])
        assert codes == [2]
        # the required check raises it before the commands module loads
        assert modules == ENTRY_MODULES

    def test_usage_error_of_the_parser_loads_only_the_entry(self):
        codes, modules = loaded_modules(["finite-scan", "--n-max", "x"], ["nosuch"], ["ball", "--norm"])
        assert codes == [2] * 3
        assert modules == ENTRY_MODULES

    @pytest.mark.parametrize(
        "fmt, serialisers",
        [("human", set()), ("json", {"json"}), ("csv", {"csv"})],
        ids=["human", "json", "csv"],
    )
    def test_serialisers_load_only_for_their_format(self, fmt, serialisers):
        density = ["bergman-density", "--alpha", "2", "--z", "i", "--ball", "4", "--probes", "8"]
        codes, modules = loaded_modules(density + ["--format", fmt])
        assert codes == [0]
        assert modules & {"json", "csv"} == serialisers

    def test_density_analysis_runs_without_the_cli(self):
        child = run_python(
            "1",
            "-c",
            "import sys\n"
            "from orbitdensity import bergman, fuchsian\n"
            "from orbitdensity.hyperbolic import UpperHalfPoint\n"
            "reports = bergman.density_analysis(fuchsian.psl2z(), UpperHalfPoint(0.0, 1.0), 2.0, 4.0, probes=8)\n"
            "print(len(reports), reports[-1].stab_order, 'orbitdensity.cli' in sys.modules)\n",
        )
        assert child.stdout.decode().split() == ["3", "2", "False"]


def _every_flag_argv(parser: argparse.ArgumentParser, command: str) -> list[str]:
    """An argv of the command that sets each of its flags, read off the parser."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    argv = [command]
    for action in subparsers.choices[command]._actions:
        if action.dest == "help":
            continue
        value = action.choices[-1] if action.choices else {int: "3", float: "2.5"}.get(action.type, "text")
        argv += [action.option_strings[0], value]
    return argv


# the top-level help and an unknown command's error, with whitespace runs
# collapsed: argparse wraps the usage line by terminal width and Python version
TOP_LEVEL_HELP = (
    "usage: orbit-density [-h] {finite-scan,bergman-density,formal-degree,ball,stabilizer} ... "
    "Density conditions for frames and Riesz sequences in lattice orbits. "
    "positional arguments: {finite-scan,bergman-density,formal-degree,ball,stabilizer} "
    "finite-scan exhaustive exact verification scan "
    "bergman-density density report for a Bergman kernel orbit "
    "formal-degree closed-form formal degree "
    "ball enumerate a group ball "
    "stabilizer point and kernel stabilisers at a point "
    "options: -h, --help show this help message and exit"
)
UNKNOWN_COMMAND_ERROR = (
    "usage: orbit-density [-h] {finite-scan,bergman-density,formal-degree,ball,stabilizer} ... "
    "orbit-density: error: argument command: invalid choice: 'nosuch' (choose from "
    "'finite-scan', 'bergman-density', 'formal-degree', 'ball', 'stabilizer')"
)


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_names_a_function_in_commands(self, command):
        assert callable(getattr(commands, cli._COMMANDS[command][0]))

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_command_parser_matches_the_full_parser(self, command):
        full = cli.build_parser()
        argv = _every_flag_argv(full, command)
        args = cli.build_parser([command]).parse_args(argv)
        assert args == full.parse_args(argv)
        assert None not in vars(args).values()

    def test_one_command_parser_holds_no_other_flags(self):
        parser = cli.build_parser(["ball"])
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(cli._COMMANDS)
        assert [a.dest for a in subparsers.choices["finite-scan"]._actions] == ["help"]
        assert "norm" in [a.dest for a in subparsers.choices["ball"]._actions]

    def test_top_level_help_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, " ".join(out.split()), err) == (0, TOP_LEVEL_HELP, "")

    def test_unknown_command_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "nosuch")
        assert (code, out, " ".join(err.split())) == (2, "", UNKNOWN_COMMAND_ERROR)


class TestFormatParity:
    def test_ball_csv_json_same_content(self, capsys):
        code, out_json, _ = run_cli(
            capsys, "ball", "--lattice", "psl2z", "--norm", "2", "--format", "json"
        )
        assert code == 0
        code, out_csv, _ = run_cli(
            capsys, "ball", "--lattice", "psl2z", "--norm", "2", "--format", "csv"
        )
        assert code == 0
        records = [r for r in json_lines(out_json) if r["type"] == "element"]
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(rows) == len(records) == 10
        for rec, row in zip(records, rows):
            for key in ("a", "b", "c", "d", "frobenius_norm"):
                assert float(row[key]) == pytest.approx(rec[key], rel=1e-15)

    def test_scan_csv_json_same_content(self, capsys):
        args = ("finite-scan", "--n-max", "2", "--windows", "4", "--seed", "3")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = [r for r in json_lines(out_json) if r["type"] == "scan_row"]
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            assert set(c_row) == set(j_row) - {"type"}
            for key, text in c_row.items():
                value = j_row[key]
                if isinstance(value, bool):
                    assert text == ("true" if value else "false")
                elif isinstance(value, (int, float)):
                    assert float(text) == pytest.approx(value, rel=1e-15)
                else:
                    assert text == str(value)

    def test_floats_have_17_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "formal-degree", "--alpha", "2", "--format", "csv")
        row = list(csv.DictReader(io.StringIO(out)))[0]
        value = float(row["formal_degree"])
        assert f"{value:.17g}" == row["formal_degree"]

    def test_scan_violation_keeps_csv_a_single_table(self, capsys, monkeypatch):
        argv = ("finite-scan", "--n-max", "2", "--windows", "1", "--seed", "0", "--format", "csv")
        _, clean, _ = run_cli(capsys, *argv)
        # the Parseval check runs once per stabiliser class: fail the first window of the third
        original = frames.parseval_norm_check
        calls = []

        def inject(*args, **kwargs):
            max_dev, gen_psq = original(*args, **kwargs)
            calls.append(len(max_dev))
            if len(calls) == 3:
                max_dev = max_dev.copy()
                max_dev[0] = 1.0
            return max_dev, gen_psq

        monkeypatch.setattr(frames, "parseval_norm_check", inject)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(finite_gabor.SCAN_CSV_COLUMNS)
        assert all(len(row) == len(rows[0]) for row in rows)
        assert len(rows) == 1 + sum(calls) - 1  # header plus every case but the injected one
        assert len(rows) == len(clean.splitlines()) - 1
        assert "canonical Parseval norm identity deviation 1.000e+00" in err
        assert "# violations = 1" in err
        # every checked case counts, the failing one included
        assert sum(calls) == 20
        assert "# total_cases = 20" in err.splitlines()

    def test_scan_with_every_window_failing_keeps_the_csv_header(self, capsys, monkeypatch):
        original = frames.parseval_norm_check

        def fail_all(*args, **kwargs):
            max_dev, gen_psq = original(*args, **kwargs)
            return np.ones_like(max_dev), gen_psq

        monkeypatch.setattr(frames, "parseval_norm_check", fail_all)
        argv = ("finite-scan", "--n-max", "2", "--windows", "1", "--format", "csv")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        # stdout is the scan table without rows; the violations go to stderr
        assert out == ",".join(finite_gabor.SCAN_CSV_COLUMNS) + "\n"
        prefix = "# violation: "
        violations = [json.loads(line[len(prefix):]) for line in err.splitlines() if line.startswith(prefix)]
        # five subgroups of Z_2 x Z_2, four windows each: rand000, basis0, basis1, const
        assert len(violations) == 20
        assert {v["window_id"] for v in violations} == {"rand000", "basis0", "basis1", "const"}
        for violation in violations:
            assert list(violation) == ["n", "subgroup_gens", "window_id", "seed", "message"]
            assert violation["message"].startswith("canonical Parseval norm identity deviation 1.000e+00 [n=2,")
        assert err.splitlines()[-2:] == ["# total_cases = 20", "# violations = 20"]


def per_record_output(fmt: str, records, summary=None) -> tuple[str, str]:
    """The stdout and stderr of (kind, data) records, then of the summary if
    one is given, written one record and one value at a time: the
    serialisation that :meth:`cli.Emitter.table` reproduces from columns."""

    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return "" if value is None else str(value)

    out, err = io.StringIO(), io.StringIO()
    csv_writer = csv_kind = None
    for kind, data in records:
        if fmt == "json":
            out.write(json.dumps({"type": kind, **data}) + "\n")
        elif fmt == "csv" and csv_kind in (None, kind):
            if csv_kind is None:
                csv_kind, csv_writer = kind, csv.writer(out, lineterminator="\n")
                csv_writer.writerow(list(data))
            csv_writer.writerow([text(value) for value in data.values()])
        elif fmt == "csv":
            err.write(f"# {kind}: {json.dumps(data)}\n")
        else:
            out.write(f"[{kind}]\n" + "".join(f"{key} = {text(value)}\n" for key, value in data.items()) + "\n")
    if summary is None:
        pass
    elif fmt == "json":
        out.write(json.dumps({"type": "summary", **summary}) + "\n")
    elif fmt == "csv":
        err.write("".join(f"# {key} = {text(value)}\n" for key, value in summary.items()))
    else:
        out.write("[summary]\n" + "".join(f"{key} = {text(value)}\n" for key, value in summary.items()))
    return out.getvalue(), err.getvalue()


class Writes(io.StringIO):
    """A text stream that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# every value type the commands emit, with strings that need CSV quoting
# and floats at the edges of the format: nan, infinities, -0.0, subnormals
EVERY_VALUE = {
    "flag": [True, False, True, False, True, False, True],
    "count": [0, -3, 2**70, 7, 1, 12, 9853],
    "missing": [None] * 7,
    "text": ["plain", "a,b", 'say "hi"', "two\nlines", "", " lead", "(0,1)+(1,0)"],
    "real": [0.1, float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.0 / 3.0],
    "tiny": [2.2250738585072014e-308 / 3, 1e-310, 0.0, 1e300, -5e-324, 123456789.0, 1.0],
    "mixed": [1.5, None, True, 3, "x,y", float("nan"), "pass"],
}


class TestEmitterTable:
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_table_matches_per_record_output(self, capsys, fmt):
        rows = [dict(zip(EVERY_VALUE, values)) for values in zip(*EVERY_VALUE.values())]
        note = {"message": "a, \"quoted\" note", "value": -0.0, "absent": None}
        summary = {"total_cases": 7, "ratio": float("inf"), "ok": False, "name": "x,y", "none": None}
        expected = per_record_output(fmt, [*(("row", row) for row in rows), ("note", note)], summary)
        by_table, by_record = Writes(), Writes()
        emitter = cli.Emitter(fmt, by_table)
        emitter.table("row", EVERY_VALUE)
        emitter.record("note", note)
        emitter.summary(summary)
        assert (by_table.getvalue(), capsys.readouterr().err) == expected
        emitter = cli.Emitter(fmt, by_record)
        for row in rows:
            emitter.record("row", row)
        emitter.table("note", {key: [value] for key, value in note.items()})
        emitter.summary(summary)
        assert (by_record.getvalue(), capsys.readouterr().err) == expected

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_an_empty_table_writes_only_a_csv_header(self, fmt):
        stream = Writes()
        cli.Emitter(fmt, stream).table("row", {key: [] for key in EVERY_VALUE})
        assert stream.getvalue() == (",".join(EVERY_VALUE) + "\n" if fmt == "csv" else "")

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_writes_fit_a_pipe_buffer(self, capsys, fmt):
        # wide characters, of 2, 3 and 4 bytes of UTF-8, make records of up to 1080 bytes
        count = 900
        columns = {
            "text": [("\u0393\u20ac\U0001d53e" * (k % 121)) + str(k) for k in range(count)],
            "real": [k / 7.0 for k in range(count)],
            "flag": [k % 3 == 0 for k in range(count)],
        }
        stream = Writes()
        cli.Emitter(fmt, stream).table("row", columns)
        text = stream.getvalue()
        assert all(len(w) <= cli.WRITE_CHARS for w in stream.writes)
        assert all(len(w.encode("utf-8")) <= 4096 for w in stream.writes)
        if fmt != "json":  # JSON escapes every character beyond ASCII
            assert max(len(w.encode("utf-8")) for w in stream.writes) > cli.WRITE_CHARS
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        assert (text, capsys.readouterr().err) == per_record_output(fmt, [("row", row) for row in rows])
        if fmt == "csv":
            assert len(stream.writes) <= math.ceil(len(text) / cli.WRITE_CHARS) + 1
        else:
            # each record on its own, in as few writes as it fits
            records = [per_record_output(fmt, [("row", row)])[0] for row in rows]
            assert len(stream.writes) == sum(math.ceil(len(r) / cli.WRITE_CHARS) for r in records)
            # a human record of this table fits one write; a JSON one may not
            assert (len(stream.writes) == count) == (fmt == "human")


class TestBallCommand:
    def test_matches_integer_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--lattice", "psl2z", "--norm", "3", "--format", "json"
        )
        assert code == 0
        records = json_lines(out)
        elements = {
            (r["a"], r["b"], r["c"], r["d"]) for r in records if r["type"] == "element"
        }
        oracle = {tuple(row) for row in fuchsian.brute_force_integer_ball(3.0).tolist()}
        assert elements == oracle
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["closure_certified"] is True


class TestStabilizerCommand:
    def test_snapped_elliptic_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "stabilizer", "--lattice", "psl2z", "--z", "0.5+0.866i",
            "--ball", "4", "--format", "json",
        )
        assert code == 0
        record = json_lines(out)[0]
        assert record["order"] == 3
        assert "order_kernel" not in record

    def test_path_disagreement_raises(self, capsys, monkeypatch):
        # the kernel path's overlaps must agree with the point path's
        # distances; a wrong overlap is reported as a numerical failure
        kernel_gram = bergman.kernel_gram

        def wrong(left, right, alpha):
            G = kernel_gram(left, right, alpha)
            G[-1] *= 1.0 + 1e-9
            return G

        monkeypatch.setattr(bergman, "kernel_gram", wrong)
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 4.0)
        z = commands.parse_point("i")
        orbit = hyperbolic.act(ball.elements, z.as_complex)
        with pytest.raises(OracleInconsistencyError):
            bergman.projective_stabilizer_kernel(ball, z, 2.0, orbit)
        code, _, err = run_cli(capsys, "stabilizer", "--z", "i", "--ball", "4")
        assert code == 3
        assert "overlaps disagree" in err

    def test_exact_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "stabilizer", "--z", "2i", "--ball", "5", "--format", "json"
        )
        assert code == 0
        assert json_lines(out)[0]["order"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("bergman-density", "--alpha", "3", "--z", "0.5+0.8660254037844386i", "--ball", "6"),
        ("stabilizer", "--z", "0.5+0.8660254037844386i", "--ball", "6"),
    ],
)
def test_one_kernel_orbit_per_command(capsys, monkeypatch, argv):
    # the ball is mapped through act once, and d(gz, z) is measured over it
    # once: stabiliser, overlap check, transversal, S-relation and
    # truncations all read those two arrays, whichever module's binding
    # they call
    size = len(fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0).elements)
    calls = {"act": 0, "distance": 0}

    def counted(name):
        original = getattr(hyperbolic, name)

        def call(*args):
            result = original(*args)
            calls[name] += np.size(result) == size
            return result

        return call

    for name in calls:
        wrapper = counted(name)
        for module in (hyperbolic, fuchsian, bergman):
            monkeypatch.setattr(module, name, wrapper)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {"act": 1, "distance": 1}


class TestFormalDegreeCommand:
    def test_alpha_four_default_tolerance(self, capsys):
        # the closed form (4 - 1) / (4 pi), bit for bit
        code, out, _ = run_cli(capsys, "formal-degree", "--alpha", "4", "--format", "json")
        assert code == 0
        assert json_lines(out)[0] == {
            "type": "formal_degree", "alpha": 4.0, "haar_scale": 1.0, "formal_degree": 3.0 / (4.0 * math.pi)
        }

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 7.0])
    def test_closed_form_rel_deviation(self, capsys, alpha):
        code, out, _ = run_cli(capsys, "formal-degree", "--alpha", str(alpha))
        assert code == 0
        assert f"formal_degree = {(alpha - 1.0) / (4.0 * math.pi):.17g}\n" in out.splitlines(keepends=True)

    def test_haar_scale_divides_the_degree(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "formal-degree", "--alpha", "3", "--haar-scale", "4", "--format", "json")
        assert code == 0
        assert json_lines(out)[-1] == {"type": "summary", "formal_degree": 2.0 / (4.0 * math.pi) / 4.0}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("haar_scale = 0\n")
        code, _, err = run_cli(capsys, "formal-degree", "--alpha", "3", "--config", str(cfg))
        assert code == 2 and "haar_scale must be positive" in err


class TestDensityCommand:
    def test_removed_grid_option_is_refused(self, capsys, tmp_path):
        density = ("bergman-density", "--alpha", "2", "--z", "i", "--ball", "3", "--probes", "8")
        code, _, err = run_cli(capsys, *density, "--grid", "64x32")
        assert code == 2 and "--grid" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 64x32\n")
        code, _, err = run_cli(capsys, *density, "--config", str(cfg))
        assert code == 2 and "unknown config keys: ['grid']" in err
        code, _, err = run_cli(capsys, "formal-degree", "--alpha", "3", "--config", str(cfg))
        assert code == 2 and "unknown config keys: ['grid']" in err

    def test_reference_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "bergman-density", "--lattice", "psl2z", "--alpha", "2",
            "--z", "i", "--ball", "6", "--probes", "40", "--format", "json",
        )
        assert code == 0
        records = json_lines(out)
        reports = [r for r in records if r["type"] == "frame_report"]
        summary = records[-1]
        assert len(reports) == 3
        assert summary["stab_order"] == 2
        assert abs(summary["density_product"] - 1.0 / 12.0) <= 0.02 / 12.0
        assert summary["verdict_i_pass"] is True
        assert summary["verdict_consistency"] == "pass"
        assert reports[-1]["diag_s_relation_residual"] <= 1e-8

    def test_generic_point_holds_one_transversal_gram(self, capsys):
        # the whole 506-element ball is the transversal; the rotation S splits
        # its Gram into two 253-row halves, assembled with their partner block
        # in three quarters of one full Gram, then validated, symmetrized and
        # eigensolved in place (LAPACK's copy is allocated outside numpy and
        # not traced)
        density = ("bergman-density", "--alpha", "2", "--z", "0.3+1.5i", "--probes", "40")
        run_cli(capsys, *density, "--ball", "4")  # imports and first-call caches
        (code, out, _), peak = traced_peak(run_cli, capsys, *density, "--ball", "13", "--format", "json")
        assert code == 0
        m = json_lines(out)[-2]["diag_lambda_count"]
        assert m == 506
        assert peak <= 1.5 * 16 * m * m

    def test_haar_scale_invariance(self, capsys):
        base_args = (
            "bergman-density", "--alpha", "2", "--z", "i", "--ball", "4",
            "--probes", "10", "--format", "json",
        )
        _, out1, _ = run_cli(capsys, *base_args)
        _, out3, _ = run_cli(capsys, *base_args, "--haar-scale", "3")
        s1 = json_lines(out1)[-1]
        s3 = json_lines(out3)[-1]
        assert abs(s3["covolume"] - 3.0 * s1["covolume"]) <= 1e-12 * s1["covolume"]
        assert abs(s3["formal_degree"] - s1["formal_degree"] / 3.0) <= 1e-12 * s1["formal_degree"]
        assert abs(s3["density_product"] - s1["density_product"]) <= 1e-12 * s1["density_product"]
        assert s3["verdict_consistency"] == s1["verdict_consistency"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--alpha", "7", "--z", "i"),
        ("--alpha", "5", "--z", "0.5+0.8660254037844386i"),
        ("--alpha", "13", "--z", "0.3+1.5i"),
        ("--alpha", "7", "--z", "i", "--haar-scale", "3"),
    ],
    ids=["i", "rho", "generic", "i-haar-3"],
)
def test_critical_density_passes(capsys, argv):
    # alpha = 1 + 12 / |stab| puts the PSL(2, Z) product (alpha - 1) / 12
    # exactly on the bound 1 / |stab|, where both verdicts must pass
    code, out, _ = run_cli(capsys, "bergman-density", *argv, "--ball", "6", "--format", "json")
    assert code == 0
    summary = json_lines(out)[-1]
    bound = 1.0 / summary["stab_order"]
    assert abs(summary["density_product"] - bound) <= 1e-15 * bound
    assert summary["verdict_ii_pass"] is True
    assert summary["verdict_consistency"] == "pass"


class TestConfigFile:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = 2\nformat = json\n")
        code, out, _ = run_cli(capsys, "ball", "--config", str(cfg))
        assert code == 0
        assert json_lines(out)[-1]["size"] == 10

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = 2\n")
        code, out, _ = run_cli(
            capsys, "ball", "--config", str(cfg), "--norm", "1.5", "--format", "json"
        )
        assert code == 0
        assert json_lines(out)[-1]["size"] == 2

    def test_density_from_config_matches_flags(self, capsys, tmp_path):
        values = {
            "lattice": "psl2z", "alpha": "3", "z": "-0.3+1.5i", "ball": "6", "probes": "12",
            "refine_steps": "4", "refine_delta": "0.5", "haar_scale": "2", "format": "json",
        }
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        expected = run_cli(capsys, "bergman-density", *flags)
        assert expected[0] == 0 and len(json_lines(expected[1])) == 5
        assert run_cli(capsys, "bergman-density", "--config", str(cfg)) == expected

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = 2\nturbo = yes\n")
        code, _, err = run_cli(capsys, "ball", "--config", str(cfg))
        assert code == 2
        assert "turbo" in err

    def test_custom_lattice_block(self, capsys, tmp_path):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(
            "lattice.name = halfcont\n"
            "lattice.generators = 1,2,0,1; 0,-1,1,0\n"
            f"lattice.covolume = {2.0 * math.pi}\n"
            "lattice.integral = false\n"
        )
        code, out, _ = run_cli(
            capsys, "ball", "--config", str(cfg), "--lattice", "halfcont",
            "--norm", "3", "--format", "json",
        )
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["lattice"] == "halfcont"
        assert summary["closure_certified"] is False

    @pytest.mark.parametrize("generator, det", [("1,0,0,-1", "-1.0"), ("2,1,4,2", "0.0")])
    def test_lattice_generator_with_nonpositive_determinant_exits_2(self, capsys, tmp_path, generator, det):
        cfg = tmp_path / "lat.cfg"
        cfg.write_text(
            "lattice.name = bad\n"
            f"lattice.generators = 0,-1,1,0; {generator}\n"
            "lattice.covolume = 1.0\n"
        )
        code, out, err = run_cli(capsys, "ball", "--config", str(cfg), "--lattice", "bad", "--norm", "3")
        assert code == 2 and out == ""
        assert err == f"error: matrix determinant must be positive, got {det}\n"

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = cli.main(
            ["ball", "--norm", "2", "--format", "json", "--out", str(out_path)]
        )
        assert code == 0
        lines = [json.loads(l) for l in out_path.read_text().strip().splitlines()]
        assert lines[-1]["size"] == 10
