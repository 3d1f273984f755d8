import os
import subprocess
import sys
from pathlib import Path

import pytest

import nivatk
from nivatk import cli, laurent
from nivatk.cli import run
from nivatk.nivat import bound_two_directions

CHECKERBOARD = "periodic lattice{(2,0) (0,2)} values{(0,0):0 (0,1):1 (1,0):1 (1,1):0}\n"
TWO_LINES = cli.TWO_LINES_3D + "\n"
BINARY_IRRATIONAL = cli.BINARY_IRRATIONAL_2D + "\n"


@pytest.fixture
def cfg(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_read_config_file_metadata(cfg, capsys):
    # a config file may open with a comment line
    path = cfg("checkerboard.cfg", "# black and white\n" + CHECKERBOARD)
    assert run(["complexity", "--config", path, "--shape", "2x2"]) == 0
    assert capsys.readouterr().out == "count=2 exact=true\n"


def test_complexity_output(cfg, capsys):
    path = cfg("cb.cfg", CHECKERBOARD)
    assert run(["complexity", "--config", path, "--shape", "2x2"]) == 0
    assert capsys.readouterr().out == "count=2 exact=true\n"


def test_complexity_inline_descriptor(capsys):
    # --config also accepts the descriptor text directly
    assert run(["complexity", "--config", CHECKERBOARD.strip(),
                "--shape", "2x2"]) == 0
    assert capsys.readouterr().out == "count=2 exact=true\n"


def test_complexity_with_sample(cfg, capsys):
    path = cfg("lines.cfg", TWO_LINES)
    code = run(["complexity", "--config", path, "--shape", "3x3x3",
                "--sample=-12..9,-12..9,-12..9"])
    assert code == 0
    assert capsys.readouterr().out == "count=19 exact=false\n"


def test_annihilate_output(cfg, capsys):
    path = cfg("cb.cfg", CHECKERBOARD)
    assert run(["annihilate", "--config", path, "--shape", "2x2",
                "--sample", "8x8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "found=true"
    assert out[1] == "g=1 + X^(0,-1)"
    assert out[2] == "constant=1"
    assert out[3] == "f=X^(1,0) + X^(1,-1) - 1 - X^(0,-1)"


def test_annihilate_not_found(capsys):
    assert run(["annihilate", "--config", BINARY_IRRATIONAL.strip(), "--shape", "2x2",
                "--sample", "20x20"]) == 0
    assert capsys.readouterr().out == "found=false\n"


def test_verify_pass_and_fail(cfg, capsys):
    path = cfg("cb.cfg", CHECKERBOARD)
    assert run(["verify", "--config", path,
                "--poly", "X^(1,1) - 1", "--window", "10x10"]) == 0
    assert capsys.readouterr().out == "annihilates=true status=exact\n"
    assert run(["verify", "--config", path,
                "--poly", "x - 1", "--window", "6x6"]) == 1
    assert capsys.readouterr().out == "annihilates=false witness=(0,0)\n"


def test_search_output(cfg, capsys):
    path = cfg("lines.cfg", TWO_LINES)
    code = run(["search", "--config", path, "--max-factors", "2",
                "--coord-bound", "1", "--window=-6..6,-6..6,-6..6"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "found=true"
    assert out[1] == "steps=(0,1,0);(1,0,0)"


def test_decompose_output(cfg, capsys):
    path = cfg("lines.cfg", TWO_LINES)
    code = run(["decompose", "--config", path,
                "--vectors", "(1,0,0);(0,1,0)", "--core=-4..4,-4..4,-4..4"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert "feasible=true" in out
    assert "components=2" in out
    assert "residual_check=true" in out
    assert "integral=true" in out


def test_decompose_infeasible(capsys):
    # c(x, 0) = x + 3 on the halo: (X^(1,0) - 1)^2 annihilates it, but no sum
    # of two (1,0)-periodic parts changes along a row of the core
    line = " ".join(f"({x},0):{x + 3}" for x in range(-2, 5))
    code = run(["decompose", "--config", f"finite dim 2 cells{{{line}}}",
                "--vectors", "(1,0);(1,0)", "--core", "0..2,0..0"])
    assert code == 1
    assert capsys.readouterr().out == (
        "feasible=false\n"
        "reason=no windowed decomposition for these directions\n")


def test_lines_output(capsys):
    code = run(["lines", "--poly", "X^(1,1) - X^(1,0) - X^(0,1) + 1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "monomial=(0,0)"
    assert out[1] == "factor 0: direction=(0,1) poly=X^(0,1) - 1"
    assert out[2] == "factor 1: direction=(1,0) poly=X^(1,0) - 1"
    assert out[3] == "remainder=1"
    assert out[4] == "directions=(0,1);(1,0)"


@pytest.mark.parametrize("poly, want", [
    ("1/2*X^(2,0) - 1/2",
     ["factor 0: direction=(1,0) poly=X^(2,0) - 1", "remainder=1/2", "directions=(1,0)"]),
    ("X^(1,1) - 1/3*X^(1,0) - X^(0,1) + 1/3",
     ["factor 0: direction=(0,1) poly=3*X^(0,1) - 1",
      "factor 1: direction=(1,0) poly=X^(1,0) - 1",
      "remainder=1/3", "directions=(0,1);(1,0)"]),
    ("2/3*X^(3,0) - 2/3",
     ["factor 0: direction=(1,0) poly=X^(3,0) - 1", "remainder=2/3", "directions=(1,0)"]),
    ("1/2*X^(2,0) - 1/2*X^(0,0)",
     ["factor 0: direction=(1,0) poly=X^(2,0) - 1", "remainder=1/2", "directions=(1,0)"]),
])
def test_lines_of_rational_polynomials(capsys, poly, want):
    # factors come out in coprime integers; the rational scale stays in the remainder
    assert run(["lines", "--poly", poly]) == 0
    assert capsys.readouterr().out.splitlines() == ["monomial=(0,0)"] + want


def test_inline_flag_text_takes_comments_as_a_file_does(cfg, capsys):
    # `#` starts a comment in inline --poly and --tile text as in a file's text
    for poly in ("X^(2,0) - 1 # period", "X^(2,0) - 1\n# the period 2\n"):
        assert run(["lines", "--poly", poly]) == 0
        assert capsys.readouterr().out == (
            "monomial=(0,0)\n"
            "factor 0: direction=(1,0) poly=X^(2,0) - 1\n"
            "remainder=1\n"
            "directions=(1,0)\n")
    path = cfg("cb.cfg", CHECKERBOARD)
    assert run(["verify", "--config", path, "--poly", "X^(1,1) - 1 # diagonal",
                "--window", "10x10"]) == 0
    assert capsys.readouterr().out == "annihilates=true status=exact\n"
    assert run(["verify", "--config", path, "--poly", "x - 1 #", "--window", "6x6"]) == 1
    assert capsys.readouterr().out == "annihilates=false witness=(0,0)\n"
    assert run(["tile-verify", "--tile", "tile { (0,0) (0,1) (1,0) } # L",
                "--lattice", "(3,0);(1,1)"]) == 0
    assert capsys.readouterr().out == "status=Valid\n"
    # a comment cuts its line only: the rest of the text still parses
    assert run(["lines", "--poly", "X^(2,0) # and\n - 1"]) == 0
    assert capsys.readouterr().out.endswith("directions=(1,0)\n")


def test_lines_high_exponent_is_fast(capsys, monkeypatch):
    # the level is a polynomial in s^2000000, so the cost follows the terms
    lengths = []
    dense = laurent._dense

    def spy(level, step):
        out = dense(level, step)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(laurent, "_dense", spy)
    assert run(["lines", "--poly", "X^(2000000,0) - 1"]) == 0
    # 1 - s as a dense list in s^2000000: f's one level, then phi's
    assert lengths == [2, 2]
    assert capsys.readouterr().out == (
        "monomial=(0,0)\n"
        "factor 0: direction=(1,0) poly=X^(2000000,0) - 1\n"
        "remainder=1\n"
        "directions=(1,0)\n")


def test_nivat_scan_csv(cfg, capsys):
    path = cfg("cb.cfg", CHECKERBOARD)
    code = run(["nivat-scan", "--config", path, "--M", "2..3", "--N", "2..2",
                "--sample", "20"])
    assert code == 0
    assert capsys.readouterr().out == (
        "M,N,count,threshold,verdict\n"
        "2,2,2,4,Inconclusive\n"
        "3,2,2,6,Inconclusive\n")


def test_nivat_scan_single_value_range(cfg, capsys):
    path = cfg("cb.cfg", CHECKERBOARD)
    code = run(["nivat-scan", "--config", path, "--M", "3", "--N", "2..3",
                "--sample", "20"])
    assert code == 0
    assert capsys.readouterr().out == (
        "M,N,count,threshold,verdict\n"
        "3,2,2,6,Inconclusive\n"
        "3,3,2,9,Inconclusive\n")


def test_nivat_scan_irrational_exceeds(cfg, capsys):
    path = cfg("b.cfg", BINARY_IRRATIONAL)
    code = run(["nivat-scan", "--config", path, "--M", "2..3", "--N", "2..3",
                "--sample", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert all(line.endswith("ExceedsMN")
               for line in out.strip().splitlines()[1:])


def test_bounds_from_poly(capsys):
    code = run(["bounds", "--poly", "X^(2,2) + 1", "--M", "5", "--N", "5"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "bbox=(2,2)"
    assert out[1] == "cor-a=9"
    assert "best=cor-a value=9" in out


def test_bounds_from_poly_with_off_axis_pair(capsys):
    code = run(["bounds", "--poly", "X^(2,0) - X^(1,1) - X^(1,-1) + 1", "--M", "4", "--N", "4"])
    assert code == 0
    assert capsys.readouterr().out == (
        "bbox=(2,2)\n"
        "cor-a=4\n"
        "cor-b-pair=8\n"
        "pair (1,-1);(1,1): 8\n"
        "best=cor-b-pair value=8\n"
        "alpha=2\n")
    # the pair is re-indexed to the 2x2 block left after both directions
    assert bound_two_directions((1, -1), (1, 1), 2, 2) == 8


def test_bounds_two_directions(capsys):
    code = run(["bounds", "--v1", "(1,0)", "--v2", "(0,1)", "--M", "4", "--N", "5"])
    assert code == 0
    assert capsys.readouterr().out == "bound=20\n"


@pytest.mark.parametrize("v1, v2", [("(1,0);(5,5)", "(0,1)"), ("(1,0)", "(0,1) (1,1)")])
def test_bounds_takes_one_vector_per_direction(v1, v2, capsys):
    assert run(["bounds", "--v1", v1, "--v2", v2, "--M", "4", "--N", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --v")


def test_bounds_needs_an_input(capsys):
    assert run(["bounds", "--M", "4", "--N", "5"]) == 2
    assert capsys.readouterr().err == "error: bounds needs either --poly or both --v1 and --v2\n"


def test_tile_verify(capsys):
    assert run(["tile-verify", "--tile", "tile { (0,0) (0,1) (1,0) }",
                "--lattice", "(3,0);(1,1)"]) == 0
    assert capsys.readouterr().out == "status=Valid\n"
    assert run(["tile-verify", "--tile", "tile { (0,0) (1,0) }",
                "--lattice", "(1,0);(0,1)"]) == 1
    assert capsys.readouterr().out == "status=Overlap witness=(0,0)\n"


def test_tile_search(capsys):
    code = run(["tile-search", "--tile", "tile { (0,0) (0,1) (1,0) }",
                "--max-index", "3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["found=true", "index=3", "lattice=(3,0);(1,1)",
                   "residues=(0,0)"]
    assert run(["tile-search", "--tile", "tile { (0) (1) (3) }",
                "--max-index", "9"]) == 0
    assert capsys.readouterr().out == "found=false\n"


def test_examples_all_pass(capsys):
    assert run(["examples"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"Example {k}: PASS")


def test_usage_errors(cfg, capsys):
    assert run(["bogus"]) == 2
    assert run(["complexity"]) == 2
    path = cfg("broken.cfg", "periodic lattice{(2,0)} values{")
    assert run(["complexity", "--config", path, "--shape", "2x2"]) == 2
    assert "error" in capsys.readouterr().err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "pattern_complexity", exhausted)
    assert run(["complexity", "--config", CHECKERBOARD.strip(), "--shape", "2x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_an_os_error_other_than_a_closed_pipe_exits_2(capsys, monkeypatch):
    def failing(*args):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli, "pattern_complexity", failing)
    assert cli.main(["complexity", "--config", CHECKERBOARD.strip(), "--shape", "2x2"]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 5] Input/output error\n")


# nested deeper than the interpreter's recursion limit allows any parser frame
DEEP = "valuemap map{0:1} default 0 of " * sys.getrecursionlimit() + "finite dim 2 cells{}"


@pytest.mark.parametrize("argv, err", [
    (["verify", "--config", CHECKERBOARD.strip(), "--poly", "1/0", "--window", "3x3"],
     "error: polynomial: zero denominator (near token (1, 3))\n"),
    (["lines", "--poly", "X^(1,0) - 1/0"],
     "error: polynomial: zero denominator (near token (1, 13))\n"),
    (["complexity", "--config", "mechanical weights(1,1) alpha 1/0", "--shape", "2x2", "--sample", "4x4"],
     "error: configuration: zero denominator (near token (1, 33))\n"),
    (["complexity", "--config", "mechanical weights(1,1) alpha quad(1,1,2,0)", "--shape", "2x2",
      "--sample", "4x4"], "error: configuration: zero denominator (near token (1, 42))\n"),
    (["search", "--config", "finite dim 0 cells{}", "--window", "4"], "error: dimension 0 is below 1\n"),
    (["complexity", "--config", "finite dim -1 cells{}", "--shape", "2", "--sample", "4"],
     "error: dimension -1 is below 1\n"),
    (["complexity", "--config", DEEP, "--shape", "2x2", "--sample", "4x4"],
     "error: input nested too deeply\n"),
    (["complexity", "--config", "periodic lattice{(2,0)} values{", "--shape", "2x2"], "error:"),
    (["complexity", "--config", "mechanical weights(1,1) alpha sqrt(8)", "--shape", "2x2",
      "--sample", "4x4"], "error:"),
    (["complexity", "--config", "/nonexistent.cfg", "--shape", "2x2"], "error:"),
    (["bounds", "--M", "4", "--N", "5"], "error:"),
], ids=["verify-zero-denominator", "lines-zero-denominator", "alpha-zero-denominator",
        "quad-zero-denominator", "search-dim-0", "complexity-dim-minus-1", "deep-nesting",
        "unclosed-values", "non-squarefree-radicand", "missing-file", "bounds-without-input"])
def test_input_errors_exit_2_with_an_error_line(argv, err, capsys):
    """Nothing raised, nothing on stdout, and stderr that starts with err."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(err)


def test_missing_file_is_usage_error(capsys):
    assert run(["complexity", "--config", "/nonexistent.cfg",
                "--shape", "2x2"]) == 2


def test_output_determinism(cfg, capsys):
    path = cfg("b.cfg", BINARY_IRRATIONAL)
    argv = ["nivat-scan", "--config", path, "--M", "2..4", "--N", "2..4",
            "--sample", "50"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


def python_dash_m(argv, **kwargs):
    """nivatk run as `python -m nivatk argv` on this checkout's package,
    stdout block-buffered as in a plain shell."""
    src = str(Path(nivatk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "nivatk", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_python_dash_m_matches_run(cfg, capsys):
    path = cfg("cb.cfg", CHECKERBOARD)
    for argv in (["complexity", "--config", path, "--shape", "2x2"],
                 ["complexity", "--config", path, "--shape", "0x2"]):
        code = run(argv)
        want = capsys.readouterr().out
        with python_dash_m(argv, text=True) as proc:
            out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (code, want)


def test_a_closed_stdout_exits_141_quietly():
    # closed after 10 of 270 kB, more than a pipe holds, a write in the run
    # meets the closed pipe; closed before the first byte, the last flush does
    for argv, head in ((["lines", "--poly", "X^(1,20000) - X^(1,0) - X^(0,1) + 1"], 10),
                       (["complexity", "--config", CHECKERBOARD.strip(), "--shape", "2x2"], 0)):
        with python_dash_m(argv) as proc:
            assert len(proc.stdout.read(head)) == head
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", 141)


def test_search_skips_a_certificate_true_only_on_the_window(capsys):
    # a chain vanishes on the 3 x 2 window but not on the whole board; the
    # search skips it and runs out of window, and on a 12 x 12 window it
    # finds no certificate at all
    board = ("periodic lattice{(6,0) (3,1)} values{(0,0):0 (1,0):1 (2,0):1 "
             "(3,0):1 (4,0):1 (5,0):0}")
    argv = ["search", "--config", board, "--max-factors", "2", "--coord-bound", "1"]
    assert run([*argv, "--window", "3x2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: window exhausted after shrinking by step (0, 1)\n"
    assert run([*argv, "--window", "12x12"]) == 0
    assert capsys.readouterr().out == "found=false\n"


def test_one_parser_serves_interleaved_calls(monkeypatch, capsys):
    # a default, a usage error and --help leave nothing behind on the shared
    # parser: each call answers as on a freshly built one.  The sample sees
    # only zeros, so its certificate fails on a wider --verify window
    annihilate = ["annihilate", "--config", "finite dim 2 cells{(6,6):1}",
                  "--shape", "2x2", "--sample", "4x4"]
    valid = ["complexity", "--config", CHECKERBOARD.strip(), "--shape", "2x2"]
    calls = [
        [*annihilate, "--verify", "9x9"],
        annihilate,
        ["complexity"],
        valid,
        ["--help"],
        valid,
        ["tile-search", "--help"],
        ["tile-search", "--tile", "tile { (0,0) (0,1) (1,0) }", "--max-index", "3"],
    ]

    def outcomes():
        got = []
        for argv in calls:
            code = run(argv)
            got.append((code, capsys.readouterr().out))
        return got

    cli._build_parser.cache_clear()
    shared = outcomes()
    assert cli._build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == shared
    assert [code for code, _ in shared] == [1, 0, 2, 0, 0, 0, 0, 0]
    assert shared[1][1] == "found=true\ng=1\nconstant=0\nf=X^(1,0) - 1\n"
    assert shared[3][1] == shared[5][1] == "count=2 exact=true\n"
    assert shared[4][1].startswith("usage: nivatk ")
