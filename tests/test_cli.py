"""End-to-end command and file-format checks.

Every command runs in process through ``cli.main`` so exit codes and
streams are observable without spawning interpreters.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from absolve import cli, matfile


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


# --- matrix files ----------------------------------------------------


def test_integer_file_round_trip(tmp_path):
    path = tmp_path / "a.txt"
    matfile.write_matrix(path, [[3, -7], [0, 12]], kind="integer")
    data = matfile.read_matrix(str(path))
    assert data.kind == "integer"
    assert data.ints == [[3, -7], [0, 12]]
    assert np.array_equal(data.values, [[3.0, -7.0], [0.0, 12.0]])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_real_file_round_trip_is_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("mat") / "v.txt"
    matfile.write_matrix(path, np.array(values), kind="real")
    back = matfile.read_vector(str(path))
    assert back.ints is None
    assert np.array_equal(back.values, np.array(values))


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = write(tmp_path / "c.txt", """
% leading comment
2 2 integer   % trailing note

1 2
3 4  % another
""")
    data = matfile.read_matrix(path)
    assert data.ints == [[1, 2], [3, 4]]


def test_row_vector_files_are_accepted(tmp_path):
    path = write(tmp_path / "r.txt", "1 3 real\n1.5 2.5 -3.5\n")
    vec = matfile.read_vector(path)
    assert np.array_equal(vec.values, [1.5, 2.5, -3.5])


@pytest.mark.parametrize("text,line_no", [
    ("", 0),
    ("2 2\n1 2\n3 4\n", 1),
    ("2 2 complex\n1 2\n3 4\n", 1),
    ("x 2 integer\n1 2\n", 1),
    ("0 2 integer\n", 1),
    ("2 2 integer\n1 2\n3\n", 3),
    ("2 2 integer\n1 2\n3 4\n5 6\n", 4),
    ("2 2 integer\n1 2\n", 0),
    ("1 2 integer\n1 2.5\n", 2),
])
def test_malformed_files_report_the_line(tmp_path, text, line_no):
    path = write(tmp_path / "bad.txt", text)
    with pytest.raises(matfile.MatrixFileError) as info:
        matfile.read_matrix(path)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{path}:{line_no}:")


@pytest.mark.parametrize("raw,line_no", [
    (b"1 1 real\n1.0 % caf\xc3\xa9\n", 2),
    (b"\xef\xbb\xbf1 1 real\n1.0\n", 1),  # a UTF-8 byte order mark
    (b"2 1 real\r\n1.0\r\n\r2.0 \xa0\n", 4),
])
def test_non_ascii_files_report_the_line(tmp_path, raw, line_no):
    path = tmp_path / "utf8.txt"
    path.write_bytes(raw)
    with pytest.raises(matfile.MatrixFileError) as info:
        matfile.read_matrix(str(path))
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{path}:{line_no}: non-ASCII byte")


def test_read_vector_rejects_matrices(tmp_path):
    path = write(tmp_path / "m.txt", "2 2 real\n1 2\n3 4\n")
    with pytest.raises(matfile.MatrixFileError):
        matfile.read_vector(path)


def _read_outcome(reader, path):
    """What a reader makes of a file: the data, or the error it raises."""
    try:
        data = reader(path)
    except matfile.MatrixFileError as exc:
        return ("error", exc.line_no, str(exc))
    return ("data", data.kind, data.values.shape, data.values.tobytes(),
            data.ints, None if data.ints is None
            else [[type(v) for v in row] for row in data.ints])


_INT_TOKENS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    # past 2^53, 2^63 and 2^64, and past the float range
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 53 + 1, -(2 ** 63) - 1, 2 ** 64 + 1,
                     10 ** 308, 2 ** 1024, -(10 ** 400)]),
).map(str)
_REAL_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-2 ** 60, 2 ** 60).map(str),
    st.sampled_from(["1e400", "-0.0", "+.5", "1_000.25", "inf", "-nan",
                     "4.9e-324", "2e-330"]),
)


@st.composite
def _matrix_texts(draw):
    """Matrix file text: valid, with comments and blank lines, and with
    the faults a reader must place on their line."""
    kind = draw(st.sampled_from(matfile.KINDS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = _INT_TOKENS if kind == "integer" else _REAL_TOKENS
    body = [[draw(tokens) for _ in range(cols)] for _ in range(rows)]
    header = f"{rows} {cols} {kind}"
    fault = draw(st.sampled_from(["none", "none", "extra-row", "short",
                                  "entry-count", "bad-entry", "header"]))
    if fault == "extra-row":
        body.append([draw(tokens) for _ in range(cols)])
    elif fault == "short":
        del body[draw(st.integers(0, rows - 1))]
    elif fault == "entry-count":
        row = body[draw(st.integers(0, rows - 1))]
        if draw(st.booleans()) or cols == 1:
            row.append(draw(tokens))
        else:
            row.pop()
    elif fault == "bad-entry":
        # the last three are real numbers; "%" cuts the row short
        bad = draw(st.sampled_from(["x", "1.5.2", "--1", "0x10", "1e",
                                    "1,2", "%", "2.5", "1e3", "nan"]))
        body[draw(st.integers(0, rows - 1))][draw(st.integers(
            0, cols - 1))] = bad
    elif fault == "header":
        header = draw(st.sampled_from([
            f"{rows} {cols}", f"{rows} {cols} {kind} extra",
            f"x {cols} {kind}", f"{rows} 2.0 {kind}",
            f"{rows} {cols} complex", f"0 {cols} {kind}",
            f"{rows} -1 {kind}", ""]))
    lines = [header] + [" ".join(row) for row in body]
    out = []
    for line in lines:
        # comments and blank lines before a line, and after it on it
        out += draw(st.lists(st.sampled_from(["", "   ", "% note",
                                              "  % 1 2 3"]), max_size=2))
        out.append(line + draw(st.sampled_from(["", "  ", " % tail",
                                                "\t%x"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(out) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=_matrix_texts())
def test_read_matrix_equals_the_line_by_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mat") / "a.txt"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    assert _read_outcome(matfile.read_matrix, str(path)) \
        == _read_outcome(oracles.read_matrix, str(path))


# --- solve command ---------------------------------------------------


def solve_files(tmp_path, a, b, kind="real"):
    mat = tmp_path / "mat.txt"
    rhs = tmp_path / "rhs.txt"
    matfile.write_matrix(mat, a, kind=kind)
    matfile.write_matrix(rhs, b, kind=kind)
    return str(mat), str(rhs)


def test_solve_prints_the_solution(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[2.0, 0.0], [0.0, 4.0]], [6.0, 8.0])
    code = cli.main(["solve", mat, rhs, "--method", "mhuang"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "rank 2" in err
    assert [float(line) for line in out.split()] == [3.0, 2.0]


def test_solve_writes_a_matrix_file(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[1.0, 1.0], [0.0, 1.0]], [3.0, 1.0])
    out_path = tmp_path / "x.txt"
    code = cli.main(["solve", mat, rhs, "--out", str(out_path)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    x = matfile.read_vector(str(out_path))
    assert np.allclose(x.values, [2.0, 1.0])


def test_solve_reports_integer_obstruction(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[2, 4]], [3], kind="integer")
    code = cli.main(["solve", mat, rhs, "--method", "dio"])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_INCOMPATIBLE
    assert "equation 0: integerly inconsistent" in err
    assert "gcd 2 does not divide residual -3" in err


def test_solve_runs_the_integer_solver(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[3, 5]], [1], kind="integer")
    code = cli.main(["solve", mat, rhs, "--method", "dio"])
    out, _ = capsys.readouterr()
    assert code == cli.EXIT_OK
    x = [int(float(line)) for line in out.split()]
    assert 3 * x[0] + 5 * x[1] == 1


def test_dio_rejects_real_files(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[2.0, 4.0]], [3.0])
    code = cli.main(["solve", mat, rhs, "--method", "dio"])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "integer-kind" in err


def test_solve_reports_incompatibility(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
    code = cli.main(["solve", mat, rhs])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_INCOMPATIBLE
    assert "equation 1" in err


def test_solve_reports_breakdown_with_the_equation(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    code = cli.main(["solve", mat, rhs, "--method", "ilu"])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_BREAKDOWN
    assert "equation 0" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
def test_solve_reports_a_zero_pivot_under_a_nan_bound_as_a_breakdown(
        tmp_path, capsys):
    # the second row's squares overflow: with --tol 0 the pivot bound is
    # 0 * inf, and the row's exact-zero pivot is still a breakdown
    mat, rhs = solve_files(tmp_path, [[1.0], [1e200]], [1.0, 1e200])
    code = cli.main(["solve", mat, rhs, "--tol", "0"])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_BREAKDOWN
    assert "equation 1: breakdown" in err


def test_solve_solves_a_saddle_point_file(tmp_path, capsys):
    a = np.array([[4.0, 1.0, 1.0],
                  [1.0, 3.0, 2.0],
                  [1.0, 2.0, 0.0]])
    b = np.array([6.0, 6.0, 3.0])
    mat, rhs = solve_files(tmp_path, a, b)
    code = cli.main(["solve", mat, rhs, "--method", "kt:a1b1",
                     "--kt-m", "1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK
    x = np.array([float(line) for line in out.split()])
    assert np.allclose(a @ x, b, atol=1e-10)


def test_kt_method_requires_the_split_count(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    code = cli.main(["solve", mat, rhs, "--method", "kt:a1b1"])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert "--kt-m" in err


@pytest.mark.parametrize("method,kt_m", [
    ("kt:a1b1", "0"), ("kt:a2b2", "-3"), ("huang", "5"), ("dio", "1"),
    ("absm:m=2:y=energy", "1"),
])
def test_kt_m_is_a_usage_error_where_it_does_not_apply(tmp_path, capsys,
                                                       method, kt_m):
    # refused before any file is read, as --tol is: the files are missing
    missing = str(tmp_path / "nope.txt")
    code = cli.main(["solve", missing, missing, "--method", method,
                     "--kt-m", kt_m])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("absolve: --kt-m ")


def test_kt_m_at_or_above_the_matrix_size_is_a_data_error(tmp_path, capsys):
    a = [[4.0, 1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 2.0, 0.0]]
    mat, rhs = solve_files(tmp_path, a, [6.0, 6.0, 3.0])
    for kt_m in ("3", "4"):
        code = cli.main(["solve", mat, rhs, "--method", "kt:a1b1",
                         "--kt-m", kt_m])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert out == "" and "1 <= m < size" in err
    assert cli.main(["solve", mat, rhs, "--method", "kt:a1b1",
                     "--kt-m", "1"]) == cli.EXIT_OK


def test_unknown_method_is_a_usage_error(tmp_path, capsys):
    mat, rhs = solve_files(tmp_path, [[1.0]], [1.0])
    code = cli.main(["solve", mat, rhs, "--method", "huang:x"])
    capsys.readouterr()
    assert code == cli.EXIT_USAGE
    code = cli.main(["solve", mat, rhs, "--method", "nosuch"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == "" and "unknown method 'nosuch'" in err


@pytest.mark.parametrize("method", ("absm:y=bogus", "absm:m=0",
                                    "absm:seed=random"))
def test_bad_iteration_options_are_usage_errors(tmp_path, capsys, method):
    mat, rhs = solve_files(tmp_path, [[2.0, 0.0], [0.0, 4.0]], [6.0, 8.0])
    code = cli.main(["solve", mat, rhs, "--method", method])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("absolve: ")
    # bench refuses the list before it generates a problem
    code = cli.main(["bench", "--suite", "determined", "--sizes", "8",
                     "--methods", f"{method},huang"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("absolve: ")


def test_missing_file_is_a_data_error(tmp_path, capsys):
    rhs = write(tmp_path / "rhs.txt", "1 1 real\n1.0\n")
    code = cli.main(["solve", str(tmp_path / "nope.txt"), rhs])
    capsys.readouterr()
    assert code == cli.EXIT_DATA


def test_non_ascii_file_is_a_data_error(tmp_path, capsys):
    rhs = write(tmp_path / "rhs.txt", "1 1 real\n1.0\n")
    mat = tmp_path / "a.txt"
    mat.write_bytes(b"1 1 real\n1.0 % caf\xc3\xa9\n")
    code = cli.main(["solve", str(mat), rhs])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert out == "" and f"{mat}:2: non-ASCII byte 0xc3" in err


@pytest.mark.parametrize("method,extra", [
    ("kt:a1b1", ["--kt-m", "1"]), ("dio", []), ("absm:m=2:y=energy", []),
])
def test_tol_is_a_usage_error_where_no_tolerance_applies(tmp_path, capsys,
                                                         method, extra):
    a = [[4, 1, 1], [1, 3, 2], [1, 2, 0]]
    mat, rhs = solve_files(tmp_path, a, [6, 6, 3], kind="integer")
    code = cli.main(["solve", mat, rhs, "--method", method, "--tol", "0.9"]
                    + extra)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == "" and f"--tol does not apply to method {method!r}" in err
    # without --tol the same call runs the solver
    assert cli.main(["solve", mat, rhs, "--method", method] + extra) \
        != cli.EXIT_USAGE


@pytest.mark.parametrize("method", ("huang", "ilu"))
@pytest.mark.parametrize("tol", ("-1", "nan", "inf"))
def test_tol_must_be_a_finite_nonnegative_number(tmp_path, capsys, method,
                                                 tol):
    # an incompatible rank-1 system: a negative or NaN tolerance made
    # huang report rank 2 and ilu divide by zero
    mat, rhs = solve_files(tmp_path, [[1.0, 2.0], [2.0, 4.0]], [1.0, 3.0])
    code = cli.main(["solve", mat, rhs, "--method", method, "--tol", tol])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == "" and "--tol must be a finite number" in err
    # without --tol, huang finds equation 1 incompatible and ilu a
    # vanishing pivot
    expected = {"huang": cli.EXIT_INCOMPATIBLE, "ilu": cli.EXIT_BREAKDOWN}
    assert cli.main(["solve", mat, rhs, "--method", method]) \
        == expected[method]


def test_shape_mismatch_is_a_data_error(tmp_path, capsys):
    mat, _ = solve_files(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    rhs = write(tmp_path / "short.txt", "1 1 real\n1.0\n")
    code = cli.main(["solve", mat, rhs])
    _, err = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "2 rows" in err


def test_limited_memory_method_via_cli(tmp_path, capsys):
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    mat, rhs = solve_files(tmp_path, a, a @ np.array([1.0, -2.0]))
    code = cli.main(["solve", mat, rhs, "--method", "absm:m=2:y=energy"])
    out, _ = capsys.readouterr()
    assert code == cli.EXIT_OK
    x = np.array([float(line) for line in out.split()])
    assert np.allclose(x, [1.0, -2.0], atol=1e-8)


# --- bench command ---------------------------------------------------


def bench_lines(capsys, argv):
    code = cli.main(["bench"] + argv)
    out, _ = capsys.readouterr()
    assert code == cli.EXIT_OK
    return out.splitlines()


def test_bench_table_layout(capsys):
    lines = bench_lines(capsys, ["--suite", "determined", "--sizes", "8"])
    assert lines[0] == "suite: determined  seed: 1"
    assert lines[1].split() == ["problem", "m", "n", "method", "sol-err",
                                "res-err", "rank", "time"]
    assert len(lines) == 4
    for line in lines[2:]:
        fields = line.split()
        assert fields[0] == "regular"
        assert fields[1] == fields[2] == "8"
        assert float(fields[4]) < 1e-10 and float(fields[5]) < 1e-10
        assert fields[6] == "8" and fields[7] == "-"


def test_bench_is_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
    for path in paths:
        code = cli.main(["bench", "--suite", "dio", "--seed", "7",
                         "--out", str(path)])
        capsys.readouterr()
        assert code == cli.EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bench_deficient_rank_column(capsys):
    lines = bench_lines(capsys, ["--suite", "determined", "--sizes", "10",
                                 "--rank", "4", "--methods", "mhuang"])
    fields = lines[2].split()
    assert fields[0] == "rankdef-r4"
    assert fields[6] == "4"


@pytest.mark.parametrize("suite", [s for s in cli.SUITES
                                   if s != "determined"])
def test_bench_rank_is_a_usage_error_where_it_does_not_apply(capsys, suite):
    # only the determined generator takes a target rank; elsewhere the
    # table would be the one without --rank
    code = cli.main(["bench", "--suite", suite, "--sizes", "6",
                     "--rank", "3"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"absolve: --rank does not apply to --suite {suite}\n"


def test_bench_wall_times_column(capsys):
    lines = bench_lines(capsys, ["--suite", "determined", "--sizes", "6",
                                 "--times", "wall", "--methods", "ilu"])
    clock = lines[2].split()[7]
    assert clock != "-"
    assert float(clock) >= 0.0


def test_bench_renders_breakdown_rows(capsys):
    # conjugate directions require a definite matrix; the twopower family
    # is fine, but a deficient problem breaks the LU strategy
    lines = bench_lines(capsys, ["--suite", "determined", "--sizes", "10",
                                 "--rank", "3", "--methods", "ilu,mhuang"])
    broken = lines[2].split()
    assert broken[3] == "ilu"
    assert broken[4] == "break-down"
    assert broken[5] == broken[6] == broken[7] == "-"
    healthy = lines[3].split()
    assert healthy[3] == "mhuang" and healthy[6] == "3"


def test_bench_usage_errors(capsys):
    assert cli.main(["bench", "--suite", "determined",
                     "--methods", " , "]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["bench", "--suite", "determined",
                     "--methods", "kt:a9z9"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["bench", "--suite", "determined",
                     "--sizes", "8,x"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # a kt method needs the kt suite's block form: refused before any
    # problem is generated, not run into a break-down row
    assert cli.main(["bench", "--suite", "determined", "--sizes", "8",
                     "--methods", "kt:a1b1,huang"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "'kt:a1b1' needs --suite kt, got --suite determined" in err
    # an unknown method id is refused the same way, not run into a
    # break-down row
    assert cli.main(["bench", "--suite", "determined", "--sizes", "8",
                     "--methods", "nosuch,huang"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown method 'nosuch'" in err


def test_unknown_suite_exits_with_usage_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bench", "--suite", "banded"])
    capsys.readouterr()
    assert info.value.code == cli.EXIT_USAGE


# --- one parser per process -------------------------------------------


def _run(argv, out_path=None):
    """(exit code, stdout, stderr, --out bytes) of one ``cli.main`` call;
    an argparse exit counts by its code."""
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if out_path is not None and out_path.exists():
        written = out_path.read_bytes()
        out_path.unlink()
    return code, so.getvalue(), se.getvalue(), written


def test_repeated_calls_match_calls_on_a_fresh_parser(tmp_path):
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
    # consistent with the first row's least-norm solution (1.5, 1.5)
    mat, rhs = solve_files(tmp_path, near, [3.0, 3.0000000015])
    kt_a = np.array([[4.0, 1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 2.0, 0.0]])
    kt_mat = str(tmp_path / "kt.txt")
    kt_rhs = str(tmp_path / "kt-rhs.txt")
    matfile.write_matrix(kt_mat, kt_a)
    matfile.write_matrix(kt_rhs, [6.0, 6.0, 3.0])
    out = tmp_path / "x.txt"
    # each option is followed by a call without it, which must not see it
    calls = [
        (["solve", mat, rhs, "--out", str(out)], out),
        (["solve", mat, rhs], None),
        (["solve", mat, rhs, "--tol", "1e-6", "--method", "mhuang"], None),
        (["solve", mat, rhs, "--method", "mhuang"], None),
        (["solve", kt_mat, kt_rhs, "--method", "kt:a1b1", "--kt-m", "1"],
         None),
        (["solve", kt_mat, kt_rhs, "--method", "kt:a1b1"], None),
        (["solve", mat, rhs, "--bogus"], None),
        (["solve", mat], None),
        (["solve", str(tmp_path / "missing.txt"), rhs], None),
        (["bench", "--suite", "determined", "--sizes", "6", "--methods",
          "huang,ilu", "--out", str(out)], out),
        (["bench", "--suite", "dio", "--sizes", "3"], None),
        (["solve", "--help"], None),
        (["solve", mat, rhs, "--out", str(out)], out),
    ]
    cli._parser.cache_clear()
    repeated = [_run(argv, path) for argv, path in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv, path in calls:
        cli._parser.cache_clear()
        fresh.append(_run(argv, path))
    assert repeated == fresh
    codes = [code for code, *_ in repeated]
    assert codes == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_OK,
                     cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_USAGE,
                     cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_OK,
                     cli.EXIT_OK, 0, cli.EXIT_OK]
    # --out leaves stdout empty; the next call prints
    assert repeated[0][1] == "" and repeated[0][3] is not None
    assert repeated[1][1] != "" and repeated[1][3] is None
    # the tolerance of call 3 decides the rank of the near-dependent pair
    assert "rank 1" in repeated[2][2] and "rank 2" in repeated[3][2]
    assert "--kt-m" in repeated[5][2]
    assert repeated[-1][3] == repeated[0][3]
