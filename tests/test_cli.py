import contextlib
import io
import json
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexleast import AvoidanceMode, Exponent, cli, contains_forbidden
from lexleast.cli import main, parse_letters_text
from lexleast.formulas import BLOCKS, ruler_prefix, w32_prefix, w32_term, x32_prefix
from lexleast.greedy import generate
from lexleast.morphic import w32_via_morphism, x32_via_morphism

import golden

E32, E21 = Exponent(3, 2), Exponent(2, 1)
THRESHOLD, EXACT = AvoidanceMode.THRESHOLD, AvoidanceMode.EXACT


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


CLOSED_ROUTES = (
    (("--exponent", "3/2"), "w32"),
    (("--exponent", "3/2", "--mode", "exact"), "x32"),
    (("--exponent", "2/1"), "ruler"),
)


@pytest.mark.parametrize("route, name", CLOSED_ROUTES)
@pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
def test_generate_closed_reads_every_term_across_block_ends(capsys, route, name, fmt):
    term, size, _ = BLOCKS[name]
    # 2 * size - 1 to 3 * size cross from the block cycle's last block into
    # its first again (the ruler word's cycle is one block)
    for n in (0, 1, size - 1, size, size + 1, 2 * size - 1, 2 * size, 2 * size + 1, 3 * size):
        letters = [term(i) for i in range(n)]
        expected = {
            "lines": "".join(f"{v}\n" for v in letters),
            "csv": ",".join(map(str, letters)) + "\n",
            "json": json.dumps(letters) + "\n",
        }[fmt]
        code, out, _ = run_cli(
            capsys, "generate", *route, "--method", "closed", "--length", str(n), "--format", fmt,
        )
        assert code == 0
        assert out == expected, n


class WriteCounter:
    """Stands in for stdout and counts ``write`` calls."""

    def __init__(self):
        self.writes = 0
        self.text = io.StringIO()

    def write(self, text):
        self.writes += 1
        return self.text.write(text)


@pytest.mark.parametrize("route", [
    ("--method", "greedy", "--exponent", "3/2"),
    ("--method", "greedy", "--exponent", "401/400"),
    ("--method", "closed", "--exponent", "3/2"),
    ("--method", "closed", "--exponent", "3/2", "--mode", "exact"),
    ("--method", "closed", "--exponent", "2/1"),
    ("--method", "morphism", "--exponent", "3/2"),
    ("--method", "morphism", "--exponent", "3/2", "--mode", "exact"),
])
def test_generate_lines_is_one_write_per_letter(route):
    for n in (0, 1, 37, 500):
        sink = WriteCounter()
        with contextlib.redirect_stdout(sink):
            assert main(["generate", *route, "--length", str(n), "--format", "lines"]) == 0
        assert sink.writes == n
        assert len(parse_letters_text(sink.text.getvalue())) == n


# (options, the word's prefix by the library, lengths)
CSV_ROUTES = [
    (("--exponent", "3/2"), lambda n: generate(E32, THRESHOLD, n), (0, 1, 4_097, 10_000)),
    (("--exponent", "3/2", "--mode", "exact"), lambda n: generate(E32, EXACT, n), (0, 1, 4_097, 10_000)),
    (("--exponent", "2/1"), lambda n: generate(E21, THRESHOLD, n), (0, 1, 4_097, 10_000)),
    # letters up to about 400, past the table of cells
    (("--exponent", "401/400"), lambda n: generate(Exponent(401, 400), THRESHOLD, n), (4_097,)),
    (("--method", "closed"), w32_prefix, (0, 1, 4_097, 10_000)),
    (("--method", "closed", "--mode", "exact"), x32_prefix, (0, 1, 4_097, 10_000)),
    (("--method", "closed", "--exponent", "2/1"), ruler_prefix, (0, 1, 4_097, 10_000)),
    (("--method", "morphism"), w32_via_morphism, (0, 1, 4_097, 10_000)),
    (("--method", "morphism", "--mode", "exact"), x32_via_morphism, (0, 1, 4_097, 10_000)),
]


@pytest.mark.parametrize("route,prefix,lengths", CSV_ROUTES, ids=[" ".join(r[0]) for r in CSV_ROUTES])
def test_generate_csv_is_every_letter_joined_by_commas(capsys, route, prefix, lengths):
    # csv is written 4,096 letters at a time, from a table below 64
    for n in lengths:
        code, out, _ = run_cli(capsys, "generate", *route, "--length", str(n), "--format", "csv")
        assert code == 0
        assert out == ",".join(map(str, prefix(n))) + "\n", n


@pytest.mark.parametrize("route,prefix,lengths", CSV_ROUTES, ids=[" ".join(r[0]) for r in CSV_ROUTES])
def test_generate_json_is_the_csv_cells_in_a_json_frame(capsys, route, prefix, lengths):
    # json is csv's loop in another frame: "[", the cells joined by ", ", "]"
    for n in lengths:
        code, out, _ = run_cli(capsys, "generate", *route, "--length", str(n), "--format", "json")
        assert code == 0
        assert out == json.dumps(prefix(n)) + "\n", n


class Discard:
    """Stands in for stdout and keeps nothing of what is written."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("method", ["closed", "morphism"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_peak_does_not_grow_with_the_length(method, fmt):
    # csv and json stream 4,096 letters at a time: ten times the letters
    # allocate no more at their peak (about 68 KB at 10^4 letters; json
    # built the whole list before, 0.8 MB at 10^5 letters)
    def peak(n):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                assert main(["generate", "--method", method, "--format", fmt, "--length", str(n)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # warm up: imports, the parser, the tables
    small, large = peak(10_000), peak(100_000)
    assert large - small < 8_192, (small, large)


def test_emit_lines_matches_formatting_each_letter():
    letters = [0, 63, 64, 65, 400, 2**31 - 1]
    out = io.StringIO()
    cli._emit(out, letters, "lines")
    assert out.getvalue() == "".join(f"{v}\n" for v in letters)


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
    # numbers are ASCII digits alone, as scan's letters: int() would read each of these
    for exponent, part in (("1_5/2", "1_5"), ("\uff13/2", "\uff13"), ("+3/2", "+3"), (" 3/2", " 3")):
        code, out, err = run_cli(capsys, "generate", "--exponent", exponent, "--length", "5")
        assert (code, out) == (2, "") and f"got {part!r} in" in err, exponent
    for length in ("1_0", "+5", " 5", "5 ", "\uff15"):
        code, out, err = run_cli(capsys, "generate", "--length", length)
        assert (code, out) == (2, "") and f"got {length!r}" in err, length


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
    for which in ("c", "d"):
        code, out, err = run_cli(capsys, "term", "--which", which, "--index", "0", "--closed")
        assert (code, out) == (2, "") and err.startswith("error: ")
    assert run_cli(capsys, "term", "--which", "w32", "--index", "3", "--closed")[0] == 2


def test_term_usage_errors(capsys):
    assert run_cli(capsys, "term", "--which", "nope", "--index", "1")[0] == 2
    assert run_cli(capsys, "term", "--which", "b", "--index", "-1")[0] == 2
    for index in ("1_0", "+1", " 1", "\uff11\uff10"):
        code, out, err = run_cli(capsys, "term", "--which", "b", "--index", index)
        assert (code, out) == (2, "") and f"got {index!r}" in err, index


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


# the JSON decoder recurses once per bracket, so nesting past the
# interpreter's limit is bad input too, not a forbidden factor (exit 1)
@pytest.mark.parametrize(
    "text", ["[0, true]", "[0, 1.5]", '[0, "1"]', "[[0]]", "[0, 1, 0", pytest.param("[" * 100_000, id="deeply nested")]
)
def test_scan_bad_json_is_a_usage_error(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "scan")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_scan_overwide_letter_is_a_usage_error(capsys, tmp_path):
    # letters must fit the detector's 31-bit width; wider ones are bad input,
    # not a forbidden factor
    path = tmp_path / "word.txt"
    path.write_text("0 3000000000\n")
    code, out, err = run_cli(capsys, "scan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_scan_overwide_letter_after_a_violation_is_a_usage_error(capsys, tmp_path):
    # every letter's width is checked before the scan, so the forbidden 01010
    # in front of the wide letter is not reported
    path = tmp_path / "word.txt"
    path.write_text("0 1 0 1 0 3000000000\n")
    code, out, err = run_cli(capsys, "scan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_scan_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0,1,2\n"))
    code, out, _ = run_cli(capsys, "scan")
    assert (code, out) == (0, "clean\n")


@pytest.mark.parametrize("times", [1, 257, 65_537])
def test_scan_witness_whose_run_crosses_three_windows(capsys, tmp_path, times):
    # (0 1 2) 400 times at exponent 101/1: the first forbidden factor ends at
    # letter 303, and its run of 299 letters is measured in windows of 64,
    # 128 and 256, at 1, 2 and 4 bytes a letter
    path = tmp_path / "word.txt"
    path.write_text(" ".join(str(v * times) for v in [0, 1, 2] * 400))
    code, out, _ = run_cli(capsys, "scan", str(path), "--exponent", "101/1")
    assert (code, out) == (1, "forbidden start=0 period=3 length=303\n")


W32_TEXT = [w32_term(i) for i in range(300)]
# lowering a letter of w32 completes a forbidden factor there
LOWERED = next(i for i in range(250, 300) if W32_TEXT[i])
MUTATED_TEXT = W32_TEXT[:LOWERED] + [W32_TEXT[LOWERED] - 1] + W32_TEXT[LOWERED + 1 :]
# clean w32, or forbidden from letter LOWERED on
STREAMED_INPUTS = {
    "csv": ",".join(map(str, W32_TEXT)),
    "whitespace": " \t ".join(map(str, W32_TEXT)) + "  \n\n",
    "lines": "".join(f"{v}\n" for v in W32_TEXT),
    "crlf": "".join(f"{v}\r\n" for v in MUTATED_TEXT),
    "trailing separator": ",".join(map(str, MUTATED_TEXT)) + ",",
    "multi-digit": " ".join(str(1000 * v + 7) for v in MUTATED_TEXT),
    "json after long space": " " * 20 + "\n" + json.dumps(MUTATED_TEXT) + "\n",
    "empty": "",
    "blank": " \n \n",
}
CLEAN_INPUTS = {"csv", "whitespace", "lines", "empty", "blank"}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("name", STREAMED_INPUTS)
def test_scan_streams_its_input_across_chunk_boundaries(capsys, monkeypatch, tmp_path, chunk, name):
    # scan reads its input ``chunk`` characters at a time: a token cut at the
    # end of a chunk goes on in the next, and JSON is known by its first
    # non-space character however many chunks of space come before it
    text = STREAMED_INPUTS[name]
    occ = contains_forbidden(parse_letters_text(text), Exponent(3, 2))
    expected = (0, "clean\n") if occ is None else (
        1, f"forbidden start={occ.start} period={occ.period} length={occ.length}\n"
    )
    assert (occ is None) == (name in CLEAN_INPUTS)
    monkeypatch.setattr(cli, "CHUNK", chunk)
    path = tmp_path / "word.txt"
    path.write_bytes(text.encode())
    assert run_cli(capsys, "scan", str(path))[:2] == expected
    monkeypatch.setattr(sys, "stdin", io.StringIO(text, newline=None))
    assert run_cli(capsys, "scan", "-")[:2] == expected


# tokens that int() reads but that are not ASCII digits alone
NOT_DIGITS = ["1_0", "+1", "\u0660", "\u0661\u0660"]


@pytest.mark.parametrize("token", NOT_DIGITS + ["-1", "0x1", "1.0"])
def test_scan_reads_only_ascii_digits(capsys, monkeypatch, token):
    # each is a usage error that names the token, wherever it stands
    for text in (token, f"0 {token} 1", f"1,0,{token},0"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "scan")
        assert (code, out) == (2, ""), text
        assert err == f"error: not a natural number: {token!r}\n", text


def test_scan_splits_letters_on_spaces_of_any_script(capsys, monkeypatch):
    # a no-break or ideographic space parts letters as an ASCII space does
    for text, expected in (("0\u00a01\u30002\n", (0, "clean\n")),
                           ("0\u00a01\u30000 1\u00a00", (1, "forbidden start=0 period=2 length=3\n"))):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run_cli(capsys, "scan")[:2] == expected


def test_scan_of_an_underscored_token_exits_2_without_a_traceback():
    # int() reads 1_0 as 10, which made "1_0 0 1_0" a forbidden word
    proc = subprocess.run(
        [sys.executable, "-m", "lexleast", "scan"], input="1_0 0 1_0", capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: not a natural number: '1_0'\n"


@pytest.mark.parametrize("chunk", [1, 3, 8192])
@pytest.mark.parametrize("bad", ["x", "-1", "2.5", "1e3", *NOT_DIGITS])
def test_scan_bad_token_after_a_violation_is_a_usage_error(capsys, monkeypatch, chunk, bad):
    # the scan stops at the first violation but reads and checks every
    # letter after it, so a bad one is still a usage error, not exit 1
    monkeypatch.setattr(cli, "CHUNK", chunk)
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"0 1 0 1 0 2 3 {bad} 4\n"))
    code, out, err = run_cli(capsys, "scan")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_scan_holds_only_the_scanned_word(capsys, tmp_path):
    # the input is streamed into the scan, which keeps the word it has read
    # at 1 byte a letter (w32's letters stay below 256) and nothing of the
    # text: about 5.8 bytes a letter in all at 2 * 10**4 letters, where 4
    # bytes a letter took 10.3 and a list of the word 15.9
    n = 20_000
    path = tmp_path / "w32.csv"
    path.write_text(",".join(str(w32_term(i)) for i in range(n)))
    small = tmp_path / "small.csv"
    small.write_text("0,1,2,0,3")
    assert main(["scan", str(small)]) == 0  # warm up: imports, the parser
    tracemalloc.start()
    try:
        code = main(["scan", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "clean\nclean\n")
    assert peak <= 8 * n, peak / n


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


def test_verify_default_targets(capsys):
    # without --target each check runs on its own default word
    for name, expected in (
        ("powerfree", "w32"),
        ("minimality", "w32"),
        ("x-squares", "x32"),
        ("x-overlap", "x32"),
    ):
        code, out, _ = run_cli(capsys, "verify", name, "--length", "60", "--format", "json")
        assert code == 0, (name, out)
        assert json.loads(out)["params"]["target"] == expected, name


def test_verify_bad_target(capsys):
    assert run_cli(capsys, "verify", "powerfree", "--target", "nope")[0] == 2


def test_verify_rejects_options_its_check_does_not_take(capsys):
    for argv in (
        ("cross", "--target", "nope", "--length", "50"),
        ("b-inequality", "--length", "5", "--s-max", "4", "--j-max", "4"),
        ("x-squares", "--n-max", "5", "--length", "50"),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


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
    from lexleast.cli import _emit

    buffer = io.StringIO()
    _emit(buffer, letters, fmt)
    assert parse_letters_text(buffer.getvalue()) == letters


def test_package_runs_without_numpy():
    # numpy is a test dependency only: importing the CLI and the checks,
    # and with them every module of the package, must not load it
    proc = subprocess.run(
        [sys.executable, "-c", "import lexleast.cli, lexleast.checks, sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "lexleast.checks" in loaded and "lexleast.detect" in loaded
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []


def test_commands_load_only_the_code_they_run(tmp_path):
    # generate, scan and term start without the checks and without
    # dataclasses (which pulls in inspect); verify imports the checks; json
    # is loaded only to read JSON or print a JSON report, not by generate's
    # json output, which is framed text
    word = tmp_path / "word.txt"
    word.write_text("0 1 0\n")
    script = f"""
import io, sys
from lexleast.cli import main
sys.stdout = sys.stderr = io.StringIO()
def loaded(*names):
    print([m for m in names if m in sys.modules], file=sys.__stdout__)
for argv in (
    ["generate", "--length", "20", "--method", "greedy"],
    ["generate", "--length", "20", "--method", "morphism", "--mode", "exact", "--format", "lines"],
    ["scan", {str(word)!r}],
    ["term", "--which", "b", "--index", "1000", "--closed"],
    ["term", "--which", "x32", "--index", "1000"],
):
    main(argv)
loaded("json", "lexleast.checks", "dataclasses", "inspect")
main(["generate", "--length", "20", "--method", "closed", "--format", "json"])
loaded("json", "lexleast.checks", "dataclasses", "inspect")
main(["verify", "cross", "--length", "20"])
print("lexleast.checks" in sys.modules, file=sys.__stdout__)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "True"]
