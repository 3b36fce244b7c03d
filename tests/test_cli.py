import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from lexleast.cli import main, parse_letters_text

import golden


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_csv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--exponent", "3/2", "--mode", "threshold",
        "--length", "10", "--method", "closed", "--format", "csv",
    )
    assert code == 0
    assert out == "0,1,2,0,3,1,0,2,1,3\n"


def test_generate_greedy_exact(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--exponent", "3/2", "--mode", "exact", "--length", "12",
    )
    assert code == 0
    assert out == "0,0,1,1,0,2,1,0,0,1,1,2\n"


def test_generate_square_free(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--exponent", "2/1", "--length", "8",
    )
    assert code == 0
    assert out == "0,1,0,2,0,1,0,3\n"


def test_generate_formats_agree(capsys):
    rows = {}
    for fmt in ("lines", "csv", "json"):
        code, out, _ = run_cli(
            capsys, "generate", "--length", "20", "--method", "morphism", "--format", fmt,
        )
        assert code == 0
        rows[fmt] = parse_letters_text(out)
    assert rows["lines"] == rows["csv"] == rows["json"] == golden.W32_100[:20]


def test_generate_zero_length(capsys):
    for fmt, expected in (("csv", "\n"), ("lines", ""), ("json", "[]\n")):
        code, out, _ = run_cli(capsys, "generate", "--length", "0", "--format", fmt)
        assert code == 0
        assert out == expected
        assert parse_letters_text(out) == []


def test_generate_usage_errors(capsys):
    assert run_cli(capsys, "generate", "--exponent", "1.5", "--length", "5")[0] == 2
    assert run_cli(capsys, "generate", "--exponent", "3/2", "--length", "-2")[0] == 2
    assert run_cli(capsys, "generate", "--length", "5", "--method", "closed", "--exponent", "5/3")[0] == 2
    assert run_cli(capsys, "generate", "--length", "5", "--method", "morphism", "--exponent", "2/1")[0] == 2
    assert run_cli(capsys, "generate", "--length", "5", "--mode", "weird")[0] == 2


def test_term_examples(capsys):
    assert run_cli(capsys, "term", "--which", "b", "--index", "8") == (0, "6\n", "")
    assert run_cli(capsys, "term", "--which", "w32", "--index", "89")[:2] == (0, "6\n")
    assert run_cli(capsys, "term", "--which", "ruler", "--index", "7")[:2] == (0, "3\n")
    assert run_cli(capsys, "term", "--which", "f", "--index", "35")[:2] == (0, "4\n")
    assert run_cli(capsys, "term", "--which", "x32", "--index", "35")[:2] == (0, "4\n")
    assert run_cli(capsys, "term", "--which", "c", "--index", "6")[:2] == (0, "17\n")
    assert run_cli(capsys, "term", "--which", "d", "--index", "12")[:2] == (0, "36\n")


def test_term_closed_forms(capsys):
    assert run_cli(capsys, "term", "--which", "b", "--index", "35", "--closed")[:2] == (0, "7\n")
    assert run_cli(capsys, "term", "--which", "c", "--index", "6", "--closed")[:2] == (0, "17\n")
    # closed c/d need index >= 1; w32 has no separate closed switch
    assert run_cli(capsys, "term", "--which", "c", "--index", "0", "--closed")[0] == 2
    assert run_cli(capsys, "term", "--which", "w32", "--index", "3", "--closed")[0] == 2


def test_term_usage_errors(capsys):
    assert run_cli(capsys, "term", "--which", "nope", "--index", "1")[0] == 2
    assert run_cli(capsys, "term", "--which", "b", "--index", "-1")[0] == 2


def test_scan_forbidden(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("0 1 0 1 0\n")
    code, out, _ = run_cli(capsys, "scan", str(path), "--exponent", "3/2")
    assert code == 1
    assert out == "forbidden start=0 period=2 length=3\n"


def test_scan_clean(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text(" ".join(str(v) for v in golden.W32_100) + "\n")
    assert run_cli(capsys, "scan", str(path), "--exponent", "3/2")[0] == 0
    path.write_text("0 0\n")
    code, out, _ = run_cli(capsys, "scan", str(path), "--exponent", "3/2", "--mode", "exact")
    assert code == 0
    assert out == "clean\n"


def test_scan_parse_error(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("0 1 x\n")
    assert run_cli(capsys, "scan", str(path))[0] == 2
    path.write_text("0 -1\n")
    assert run_cli(capsys, "scan", str(path))[0] == 2
    assert run_cli(capsys, "scan", str(tmp_path / "missing.txt"))[0] == 2


def test_scan_overwide_letter_is_a_usage_error(capsys, tmp_path):
    # letters must fit the detector's 31-bit width; wider ones are bad input,
    # not a forbidden factor
    path = tmp_path / "word.txt"
    path.write_text("0 3000000000\n")
    code, out, err = run_cli(capsys, "scan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_scan_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("0,1,2\n"))
    code, out, _ = run_cli(capsys, "scan")
    assert (code, out) == (0, "clean\n")


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "cross", "--length", "200")
    assert code == 0
    assert out.startswith("PASS cross")
    code, out, _ = run_cli(capsys, "verify", "powerfree", "--target", "ruler", "--length", "512")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "unknown-check")
    assert code == 2


def test_verify_all_defaults_have_runners(capsys):
    # every registered check runs at a tiny bound through the CLI
    for name, flags in [
        ("powerfree", ["--length", "200"]),
        ("minimality", ["--target", "x32", "--length", "120"]),
        ("cross", ["--length", "120"]),
        ("ell-claim", ["--n-max", "60"]),
        ("eq6-intervals", ["--n-max", "60"]),
        ("b-inequality", ["--s-max", "12", "--j-max", "12"]),
        ("b-window", ["--n-max", "40", "--r-max", "12"]),
        ("x-squares", ["--length", "300"]),
        ("x-overlap", ["--length", "300"]),
    ]:
        code, out, err = run_cli(capsys, "verify", name, *flags)
        assert code == 0, (name, out, err)


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "b-inequality", "--s-max", "10", "--j-max", "10", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "check-report/1"
    assert data["status"] == "pass"
    assert data["params"] == {"s_max": 10, "j_max": 10}


def test_verify_bad_target(capsys):
    assert run_cli(capsys, "verify", "powerfree", "--target", "nope")[0] == 2


def test_stdout_is_deterministic(capsys):
    first = run_cli(capsys, "verify", "cross", "--length", "64", "--format", "json")
    second = run_cli(capsys, "verify", "cross", "--length", "64", "--format", "json")
    assert first[:2] == second[:2]
    a = run_cli(capsys, "generate", "--length", "64", "--format", "json")
    b = run_cli(capsys, "generate", "--length", "64", "--format", "json")
    assert a == b


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lexleast", "term", "--which", "b", "--index", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


def test_generate_into_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does
    with subprocess.Popen(
        [sys.executable, "-m", "lexleast", "generate", "--length", "200000",
         "--method", "closed", "--format", "lines"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


@settings(max_examples=60)
@given(st.lists(st.integers(0, 10**6), max_size=40), st.sampled_from(["lines", "csv", "json"]))
def test_format_round_trip(letters, fmt):
    import io

    from lexleast.cli import _emit

    buffer = io.StringIO()
    _emit(buffer, letters, fmt)
    assert parse_letters_text(buffer.getvalue()) == letters
