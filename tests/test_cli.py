"""End-to-end command-line tests run through ``python -m johnellip``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import johnellip._driver
import johnellip.certification
import johnellip.cli
from conftest import DIAMOND_ROWS
from johnellip import (
    TRACE_HEADER,
    ContainmentResult,
    RunRequest,
    SolveTrace,
    build_instance,
    run,
    write_matrix_market,
)


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "johnellip", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def report_of(result):
    assert result.stderr == ""
    return json.loads(result.stdout)


@pytest.fixture
def diamond_mtx(tmp_path):
    path = tmp_path / "diamond.mtx"
    write_matrix_market(path, build_instance(np.asarray(DIAMOND_ROWS, dtype=float)))
    return path


@pytest.fixture
def diamond_weights(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps([0.0, 0.0, 1.0, 1.0]))
    return path


class TestSolve:
    def test_cube_is_exact(self):
        result = run_cli("solve", "--gen", "identity-cube:5")
        assert result.returncode == 0
        report = report_of(result)
        assert report["certified"] is True
        assert report["algorithm"] == "fixed-point"
        assert report["epsilon_achieved"] == 0.0
        assert report["m"] == 5 and report["n"] == 5
        assert list(report) == [
            "m", "n", "epsilon_target", "epsilon_achieved", "max_sigma",
            "weight_sum", "duality_gap", "logdet", "iterations", "wall_ms",
            "seed", "algorithm", "certified",
        ]

    def test_gaussian_certifies_at_target(self):
        result = run_cli("solve", "--gen", "gaussian-dense:200x10:seed=7", "--eps", "0.1")
        assert result.returncode == 0
        report = report_of(result)
        assert report["max_sigma"] <= 1.1
        assert abs(report["weight_sum"] - 10.0) <= 1e-6 * 10.0
        assert report["certified"] is True

    def test_input_and_gen_agree(self, tmp_path):
        path = tmp_path / "inst.mtx"
        gen = run_cli("gen", "--gen", "gaussian-dense:50x5:seed=2", "--out", str(path))
        assert gen.returncode == 0 and gen.stdout == ""
        assert path.read_text().startswith("%%MatrixMarket matrix array real general\n")
        from_file = report_of(run_cli("solve", "--input", str(path), "--eps", "0.5"))
        from_spec = report_of(
            run_cli("solve", "--gen", "gaussian-dense:50x5:seed=2", "--eps", "0.5")
        )
        for key in ("max_sigma", "logdet", "weight_sum", "duality_gap", "iterations"):
            assert from_file[key] == from_spec[key]

    def test_trace_csv_on_stdout(self):
        result = run_cli(
            "solve", "--gen", "gaussian-dense:40x4:seed=1", "--eps", "0.5",
            "--trace", "--format", "csv",
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "iter,max_sigma,weight_sum,wall_ms"
        # T = ceil((2/0.5) log(40/4)) = ceil(9.21) = 10
        assert len(lines) == 11
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 11))

    def test_trace_means_format_csv(self):
        base = ("solve", "--gen", "gaussian-dense:40x4:seed=1", "--eps", "0.5")
        runs = [run_cli(*base, *flags) for flags in (("--trace",), ("--format", "csv"))]
        assert [r.returncode for r in runs] == [0, 0]
        # Equal apart from the measured wall_ms column.
        trace, csv = ([line.rsplit(",", 1)[0] for line in r.stdout.splitlines()] for r in runs)
        assert trace == csv and len(trace) == 11
        # Of --trace and --format, the last one given wins.
        assert report_of(run_cli(*base, "--trace", "--format", "json"))["iterations"] == 10
        assert run_cli(*base, "--format", "json", "--trace").stdout.startswith("iter,")

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("solve", "--gen", "identity-cube:3", "--out", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(out.read_text())["certified"] is True

    def test_volume_mode_divides_epsilon(self):
        result = run_cli("solve", "--gen", "identity-cube:3", "--eps", "0.3", "--volume-mode")
        assert result.returncode == 0
        assert report_of(result)["epsilon_target"] == pytest.approx(0.1)

    def test_samples_zero_skips_containment(self):
        result = run_cli("solve", "--gen", "identity-cube:3", "--samples", "0")
        assert result.returncode == 0


class TestSolveSketched:
    def test_certifies_loose_target(self):
        result = run_cli(
            "solve-sketched", "--gen", "gaussian-dense:100x5:seed=3", "--eps", "0.5"
        )
        assert result.returncode == 0
        report = report_of(result)
        assert report["algorithm"] == "sketched"
        # certified against the squared factor: (1 + eps)^2 - 1
        assert report["epsilon_target"] == 1.25
        assert report["certified"] is True

    def test_seed_changes_the_run(self):
        base = ("solve-sketched", "--gen", "gaussian-dense:60x4:seed=0", "--eps", "0.5")
        a = report_of(run_cli(*base, "--seed", "1"))
        b = report_of(run_cli(*base, "--seed", "2"))
        assert a["max_sigma"] != b["max_sigma"]
        assert a["seed"] == 1 and b["seed"] == 2


class TestVerify:
    def test_diamond_optimum_passes(self, diamond_mtx, diamond_weights):
        result = run_cli(
            "verify", "--input", str(diamond_mtx),
            "--weights", str(diamond_weights), "--eps", "0.01",
        )
        assert result.returncode == 0
        report = report_of(result)
        assert report["algorithm"] == "verify"
        assert report["iterations"] == 0
        assert report["certified"] is True

    def test_rotated_instance_same_weights(self, diamond_weights):
        result = run_cli(
            "verify", "--gen", "rotated-diamond:seed=3",
            "--weights", str(diamond_weights), "--eps", "0.01",
        )
        assert result.returncode == 0

    def test_failing_weights_still_report(self, tmp_path):
        inst = tmp_path / "id2.mtx"
        write_matrix_market(inst, build_instance(np.eye(2)))
        weights = tmp_path / "w.json"
        weights.write_text("[0.5, 1.5]")
        result = run_cli("verify", "--input", str(inst), "--weights", str(weights))
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["certified"] is False
        assert report["max_sigma"] == pytest.approx(2.0)

    def test_wrong_length_is_a_bad_request(self, diamond_mtx, tmp_path):
        weights = tmp_path / "w.json"
        weights.write_text("[1.0, 1.0]")
        result = run_cli("verify", "--input", str(diamond_mtx), "--weights", str(weights))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"] == "DomainError"


class TestOracle:
    def test_rotated_diamond(self):
        result = run_cli("oracle", "--gen", "rotated-diamond:seed=3")
        assert result.returncode == 0
        report = report_of(result)
        assert report["algorithm"] == "oracle"
        assert report["epsilon_achieved"] <= 1e-6
        assert report["certified"] is True

    def test_budget_exhaustion_is_runtime_failure(self):
        result = run_cli(
            "oracle", "--gen", "gaussian-dense:200x10:seed=0", "--max-iters", "3"
        )
        assert result.returncode == 3
        assert json.loads(result.stderr)["error"] == "NoConvergenceError"


class TestFailureModes:
    def test_bad_epsilon_is_exit_2(self):
        result = run_cli("solve", "--gen", "identity-cube:3", "--eps", "1.5")
        assert result.returncode == 2
        payload = json.loads(result.stderr)
        assert payload["error"] == "DomainError"
        assert "--eps" in payload["message"]

    def test_missing_input_file_is_exit_3(self, tmp_path):
        result = run_cli("solve", "--input", str(tmp_path / "absent.mtx"))
        assert result.returncode == 3
        assert json.loads(result.stderr)["error"] == "FileNotFoundError"

    def test_unsupported_matrix_variant_is_exit_3(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n"
        )
        result = run_cli("solve", "--input", str(path))
        assert result.returncode == 3
        payload = json.loads(result.stderr)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith("line 1:")

    def test_instance_source_is_required(self):
        result = run_cli("solve", "--eps", "0.1")
        assert result.returncode == 2  # argparse usage error

    def test_help(self):
        result = run_cli("-h")
        assert result.returncode == 0
        for name in ("solve", "solve-sketched", "verify", "oracle", "gen"):
            assert name in result.stdout
        assert "bench" not in result.stdout
        assert run_cli("bench").returncode == 2

    @pytest.mark.parametrize(
        "text",
        ['{"a": 1}', '["a", 1, 1, 1]', '["1", "1", "1", "1"]', "[true, true, true, true]",
         '["1", 0.5, 0.5, 1]', "[1, true, 0.5, 1]"],
    )
    def test_malformed_weights_file_is_exit_2(self, tmp_path, text):
        weights = tmp_path / "w.json"
        weights.write_text(text)
        result = run_cli("verify", "--gen", "rotated-diamond:seed=3", "--weights", str(weights))
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"] == "DomainError"

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_negative_seed_is_exit_2(self, diamond_weights, command):
        extra = ("--weights", str(diamond_weights)) if command == "verify" else ()
        result = run_cli(command, "--gen", "rotated-diamond:seed=3", "--seed", "-1", *extra)
        assert result.returncode == 2
        payload = json.loads(result.stderr)
        assert payload["error"] == "DomainError"
        assert "--seed" in payload["message"]


class TestLazyImports:
    def test_help_loads_no_numerical_stack(self):
        # The reason the package root and cli import lazily: --help and
        # argparse's usage errors answer without loading numpy or scipy.
        code = (
            "import sys\n"
            "import johnellip.cli\n"
            "try:\n"
            "    johnellip.cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "usage: johnellip" in result.stdout
        assert result.stdout.splitlines()[-1] == "[]"


class TestProgrammaticRun:
    # `run` mirrors the process exit codes instead of raising, so library
    # callers can reuse the CLI semantics without subprocesses.
    def test_gen_requires_generator_and_path(self, capsys):
        assert run(RunRequest(command="gen")) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"

    def test_negative_samples_rejected(self, capsys):
        request = RunRequest(command="solve", generator="identity-cube:3", samples=-1)
        assert run(request) == 2
        capsys.readouterr()

    def test_negative_seed_rejected_before_the_solve(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the solver ran for a request that names a bad seed")

        monkeypatch.setattr(johnellip._driver, "fixed_point_solve", never)
        request = RunRequest(command="solve", generator="gaussian-dense:40x4:seed=1", seed=-1)
        assert run(request) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "DomainError", "message": "--seed must be >= 0, got -1"}

    @pytest.mark.parametrize(
        "command,fields,message",
        [
            ("oracle", {"tol": 2.0}, "--tol must lie in (0, 1), got 2.0"),
            ("oracle", {"max_iters": 0}, "--max-iters must be >= 1, got 0"),
            ("solve", {"iterations": 0}, "--iters must be >= 1, got 0"),
            ("solve-sketched", {"iterations": 0}, "--iters must be >= 1, got 0"),
            ("solve-sketched", {"sketch_rows": 0}, "--sketch-rows must be >= 1, got 0"),
            ("solve", {"fmt": "yaml"}, "unknown report format 'yaml'"),
            ("solve", {"input_path": "a.mtx"}, "exactly one of --input and --gen is required"),
            ("verify", {}, "verify requires --weights"),
            ("gen", {}, "gen requires --out"),
        ],
        ids=["tol", "max-iters", "iters", "sketched-iters", "sketch-rows", "format",
             "two-sources", "verify-weights", "gen-out"],
    )
    def test_bad_flag_rejected_before_any_work(
        self, capsys, monkeypatch, command, fields, message
    ):
        def never(request):
            raise AssertionError("the instance was loaded for a request with a bad flag")

        monkeypatch.setattr(johnellip._driver, "_load_instance", never)
        request = RunRequest(command=command, generator="gaussian-dense:40x4:seed=1", **fields)
        assert run(request) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "DomainError", "message": message}

    def test_missing_out_directory_is_exit_3(self, capsys, tmp_path):
        out = tmp_path / "absent" / "r.json"
        request = RunRequest(command="solve", generator="identity-cube:3", out_path=str(out))
        assert run(request) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "FileNotFoundError"

    def test_out_of_memory_is_exit_3(self, capsys, monkeypatch):
        # Stands in for an allocation numpy refuses (a huge --samples or a
        # Matrix Market size line); nothing large is allocated here.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.2 PiB")

        monkeypatch.setattr(johnellip._driver, "certify", exhausted)
        request = RunRequest(command="solve", generator="identity-cube:3")
        assert run(request) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "MemoryError", "message": "Unable to allocate 14.2 PiB"
        }

    @pytest.mark.parametrize(
        "argv,fields",
        [
            (["solve", "--eps", "0.2", "--iters", "7", "--volume-mode", "--trace"], {}),
            (["solve-sketched", "--eps", "0.2", "--delta", "0.3", "--iters", "7",
              "--sketch-rows", "9", "--volume-mode", "--trace"],
             {"delta": 0.3, "sketch_rows": 9}),
        ],
        ids=["solve", "solve-sketched"],
    )
    def test_solver_flags_parse_into_the_request(self, monkeypatch, argv, fields):
        requests = []
        monkeypatch.setattr(johnellip._driver, "run", lambda request: requests.append(request))
        johnellip.cli.main([*argv, "--gen", "identity-cube:3"])
        assert requests == [RunRequest(
            command=argv[0], generator="identity-cube:3", epsilon=0.2, iterations=7,
            volume_mode=True, fmt="csv", **fields,
        )]

    @pytest.mark.parametrize("command", ["bench", "nope"])
    def test_unknown_command_rejected(self, capsys, command):
        assert run(RunRequest(command=command)) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "DomainError", "message": f"unknown command {command!r}"}

    def test_solve_round_trip(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        request = RunRequest(
            command="solve", generator="identity-cube:3", out_path=str(out)
        )
        assert run(request) == 0
        assert json.loads(out.read_text())["certified"] is True


# (command, request fields, algorithm, iterations, epsilon_target).  Sketched
# certifies at (1 + 0.5)^2 - 1; solve runs ceil(4 log 20) = 12 sweeps and
# solve-sketched ceil(20 log(100 / 0.1)) = 139.
GRADED = [
    ("solve", {"generator": "gaussian-dense:100x5:seed=3", "epsilon": 0.5},
     "fixed-point", 12, 0.5),
    ("solve-sketched", {"generator": "gaussian-dense:100x5:seed=3", "epsilon": 0.5},
     "sketched", 139, 1.25),
    ("verify", {"generator": "rotated-diamond:seed=3", "epsilon": 0.01},
     "verify", 0, 0.01),
    ("oracle", {"generator": "rotated-diamond:seed=3"}, "oracle", 2, 1e-6),
]


class TestGradedPath:
    # solve, solve-sketched, verify and oracle share one load, weights,
    # certify and emit path; each command supplies only its weights.
    @pytest.mark.parametrize(
        "command,fields,algorithm,iterations,target", GRADED, ids=[g[0] for g in GRADED]
    )
    def test_report_and_trace(
        self, tmp_path, diamond_weights, command, fields, algorithm, iterations, target
    ):
        if command == "verify":
            fields = {**fields, "weights_path": str(diamond_weights)}
        out = tmp_path / "report.json"
        assert run(RunRequest(command=command, out_path=str(out), **fields)) == 0
        report = json.loads(out.read_text())
        assert report["algorithm"] == algorithm
        assert report["iterations"] == iterations
        assert report["epsilon_target"] == target
        assert report["certified"] is True

        csv = tmp_path / "trace.csv"
        request = RunRequest(command=command, out_path=str(csv), fmt="csv", **fields)
        assert run(request) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        if command in ("verify", "oracle"):
            # Neither runs a sweep loop, so the trace is the header alone.
            assert csv.read_text() == TRACE_HEADER + "\n"
        else:
            assert [int(line.split(",")[0]) for line in lines[1:]] == list(
                range(1, iterations + 1)
            )

    def test_volume_mode_warns_with_the_sketched_iteration_count(self, monkeypatch, capsys):
        # At eps = 0.0005 / 10 the sketched T is ceil(2e5 log(200 / 0.1)) =
        # 1520181, above the warning threshold; the exact T would be 119830.
        seen = []

        def stub(inst, config):
            seen.append(config.resolve_iterations(inst.m))
            return np.full(inst.m, inst.n / inst.m), SolveTrace()

        monkeypatch.setattr(johnellip._driver, "sketched_solve", stub)
        request = RunRequest(
            command="solve-sketched", generator="gaussian-dense:200x10:seed=0",
            epsilon=0.0005, volume_mode=True, samples=0,
        )
        run(request)
        captured = capsys.readouterr()
        assert seen == [1520181]
        assert "warning: volume mode implies 1520181 iterations" in captured.err
        assert json.loads(captured.out)["iterations"] == 1520181

    def test_json_report_records_no_history(self, monkeypatch, capsys):
        # The per-iterate history costs an exact sweep per sketched iterate,
        # so only a CSV report asks for it.
        seen = []

        def stub(inst, config):
            seen.append(config.record_history)
            return np.full(inst.m, inst.n / inst.m), SolveTrace()

        monkeypatch.setattr(johnellip._driver, "sketched_solve", stub)
        for fmt in ("json", "csv"):
            request = RunRequest(
                command="solve-sketched", generator="gaussian-dense:60x4:seed=0",
                epsilon=0.5, samples=0, fmt=fmt,
            )
            run(request)
        capsys.readouterr()
        assert seen == [False, True]

    @pytest.mark.parametrize("iterations", [None, 3])
    def test_volume_mode_warns_about_the_sketch_block(self, monkeypatch, capsys, iterations):
        # At eps = 0.0005 / 10 the sketch has ceil(80 / 5e-5) = 1600000 rows:
        # one 1600000 x 200 float64 block is 2.38 GiB, over the 1 GiB line
        # even when --iters keeps the sweep count small.
        monkeypatch.setattr(
            johnellip._driver, "sketched_solve",
            lambda inst, config: (np.full(inst.m, inst.n / inst.m), SolveTrace()),
        )
        request = RunRequest(
            command="solve-sketched", generator="gaussian-dense:200x10:seed=0",
            epsilon=0.0005, volume_mode=True, samples=0, iterations=iterations,
        )
        run(request)
        err = capsys.readouterr().err
        assert "1600000 sketch rows, a 2.38 GiB 1600000 x 200 block per sweep" in err
        assert f"implies {iterations or 1520181} iterations" in err

    def test_volume_mode_is_quiet_for_a_small_sketch(self, monkeypatch, capsys):
        monkeypatch.setattr(
            johnellip._driver, "sketched_solve",
            lambda inst, config: (np.full(inst.m, inst.n / inst.m), SolveTrace()),
        )
        request = RunRequest(
            command="solve-sketched", generator="gaussian-dense:200x10:seed=0",
            epsilon=0.0005, volume_mode=True, samples=0, iterations=3, sketch_rows=1000,
        )
        run(request)
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("samples,code", [(5, 1), (0, 0)])
    def test_sampled_containment_violation_fails_the_run(
        self, monkeypatch, capsys, samples, code
    ):
        def one_violation(inst, quad, eps_hat, count, seed):
            return ContainmentResult(False, True, 1, 0, count)

        monkeypatch.setattr(johnellip.certification, "_containment", one_violation)
        request = RunRequest(command="solve", generator="identity-cube:3", samples=samples)
        assert run(request) == code
        captured = capsys.readouterr()
        # The report keeps its bytes: certified is the score and mass verdict.
        assert json.loads(captured.out)["certified"] is True
        if samples:
            assert captured.err == "containment: 1 inner and 0 outer violations in 5 samples\n"
        else:
            assert captured.err == ""
