"""CLI tests."""

import pytest

from repro.cli import main

SOURCE = """
int f(int a, int b) { return a * b + 1; }
double g(double x) { return x * 0.5; }
"""


@pytest.fixture()
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def test_cli_targets(capsys):
    assert main(["targets"]) == 0
    out = capsys.readouterr().out
    for name in ("toyp", "r2000", "m88000", "i860"):
        assert name in out


def test_cli_compile_to_stdout(c_file, capsys):
    assert main(["compile", c_file, "--target", "toyp"]) == 0
    out = capsys.readouterr().out
    assert "# target: toyp" in out
    assert "ret" in out


def test_cli_compile_to_file(c_file, tmp_path, capsys):
    output = tmp_path / "out.s"
    assert main(["compile", c_file, "-o", str(output)]) == 0
    assert "# target: r2000" in output.read_text()


def test_cli_run_int(c_file, capsys):
    assert main(["run", c_file, "--entry", "f", "--args", "6", "7"]) == 0
    out = capsys.readouterr().out
    assert "'int': 43" in out
    assert "cycles:" in out


def test_cli_run_double_with_cache(c_file, capsys):
    assert (
        main(
            [
                "run",
                c_file,
                "--entry",
                "g",
                "--args",
                "8.0",
                "--cache",
                "--strategy",
                "ips",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "'double': 4.0" in out
    assert "cache:" in out


def test_cli_run_reports_interpreted_instructions(tmp_path, capsys):
    # a loop long enough to warm the JIT: the jit: line says how much of
    # the run stayed outside generated code
    path = tmp_path / "loop.c"
    path.write_text(
        "int s(int n) { int i; int t; t = 0;"
        " for (i = 0; i < n; i = i + 1) { t = t + i; } return t; }"
    )
    assert main(["run", str(path), "--entry", "s", "--args", "200"]) == 0
    out = capsys.readouterr().out
    assert "'int': 19900" in out
    jit = [line for line in out.splitlines() if line.startswith("jit:")]
    assert jit and jit[0].endswith("instructions interpreted")


def test_cli_no_schedule_baseline(c_file, capsys):
    assert main(["run", c_file, "--entry", "f", "--args", "2", "3", "--no-schedule"]) == 0
    assert "'int': 7" in capsys.readouterr().out


@pytest.mark.parametrize(
    "source, entry, extra, status, message",
    [
        # the simulated program fails
        (
            "int qdiv(int a, int b) { return a / b; }", "qdiv",
            ["--args", "7", "0"], 1, "integer division by zero",
        ),
        # the program does not compile
        (
            "int f(int a { return a; }", "f",
            ["--args", "1"], 1, "<c>:1:13: expected ')', found '{'",
        ),
        # a malformed request
        (
            "int f(int a) { return a; }", "f",
            ["--args", "1", "--sim-json", '{"bogus": 1}'], 2,
            "unknown sim field(s): bogus",
        ),
        # an argument that is neither an int nor a float
        (
            "int f(int a) { return a; }", "f",
            ["--args", "abc"], 2,
            "--args value 'abc' is neither an int nor a float with a '.'",
        ),
    ],
    ids=("division-by-zero", "c-syntax-error", "bad-request", "bad-args"),
)
def test_cli_run_error_is_one_line(
    tmp_path, capsys, source, entry, extra, status, message
):
    # an error the tool can name is one line and a status, never the
    # interpreter's stack
    path = tmp_path / "prog.c"
    path.write_text(source + "\n")
    argv = ["run", str(path), "--entry", entry, "--target", "r2000", *extra]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"repro: error: {message}"]
