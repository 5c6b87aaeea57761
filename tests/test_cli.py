import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings, strategies as st

from schubpat import cli, oracles, verify
from schubpat.diagrams import MAX_N
from schubpat.polyx import W


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_schubert_text(capsys):
    code, out = run(capsys, "schubert", "2143")
    assert code == 0
    assert out.strip() == "x1^2 + x1*x2 + x1*x3"


def test_schubert_methods_agree(capsys):
    # divided differences, the diagram sum and the dual character by exact rank
    argvs = [["schubert", "2143", "--method", m] for m in ("divdiff", "diagram")]
    argvs.append(["chi", "2143"])
    outputs = set()
    for argv in argvs:
        code, out = run(capsys, *argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_schubert_json(capsys):
    code, out = run(capsys, "schubert", "21", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"vars": 2, "terms": [{"exp": [1, 0], "coef": "1"}]}


def test_schubert_diagram_method_rejects_pattern(capsys):
    code = cli.main(["schubert", "1432", "--method", "diagram"])
    assert code == cli.EXIT_USAGE


def test_rothe(capsys):
    code, out = run(capsys, "rothe", "1342", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "boxes": [[2, 2], [3, 2]]}


def test_cw_all_methods(capsys):
    code, out = run(capsys, "cw", "12453", "--all-methods")
    assert code == 0
    assert out.strip() == "1"


def test_cw_json(capsys):
    code, out = run(capsys, "cw", "1342", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["w"] == "1342" and data["c"] == 0


def test_cw_table(capsys):
    code, out = run(capsys, "cw-table", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,length,c_w,methods_agree"
    assert len(lines) == 7
    assert "132,1,1,true" in lines
    assert all(line.endswith("true") for line in lines[1:])


def test_cw_all_methods_disagreeing_prints_json_under_format_json(capsys, monkeypatch):
    cw_recursive = oracles.cw_recursive
    monkeypatch.setattr(oracles, "cw_recursive", lambda w: cw_recursive(w) + 1)
    code, out = run(capsys, "cw", "2143", "--all-methods", "--format", "json")
    assert code == cli.EXIT_COUNTEREXAMPLE
    assert json.loads(out) == {"w": "2143", "disagree": {"ie": 0, "rec": 1, "aug": 0}}
    code, out = run(capsys, "cw", "2143", "--all-methods")
    assert code == cli.EXIT_COUNTEREXAMPLE
    assert out.strip() == "DISAGREE: {'ie': 0, 'rec': 1, 'aug': 0}"


def test_cw_table_exits_2_when_methods_disagree(capsys, monkeypatch):
    cw_recursive = oracles.cw_recursive
    monkeypatch.setattr(oracles, "cw_recursive", lambda w: cw_recursive(w) + 1)
    code, out = run(capsys, "cw-table", "3")
    assert code == cli.EXIT_COUNTEREXAMPLE
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.endswith(",false") for line in lines[1:])


def test_verify_text(capsys):
    code, out = run(capsys, "verify", "thm2.7", "--max-n", "4")
    assert code == 0
    assert out
    assert all("holds" in line or "outside-scope" in line for line in out.strip().splitlines())


def test_verify_exit_codes_constants():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_COUNTEREXAMPLE, cli.EXIT_BUDGET) == (
        0,
        1,
        2,
        3,
    )


def test_verify_deterministic_output(tmp_path):
    paths = []
    for name in ["a.txt", "b.txt"]:
        p = tmp_path / name
        code = cli.main(
            ["verify", "thm1.1", "--max-n", "4", "--format", "json", "--out", str(p)]
        )
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_verify_jobs_parity(tmp_path):
    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    for argv in (["thm1.2", "--max-n", "4"], ["thm1.1", "--max-n", "6", "--format", "json"]):
        assert cli.main(["verify", *argv, "--out", str(serial)]) == 0
        assert cli.main(["verify", *argv, "--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


def test_budget_exit_code(capsys):
    code = cli.main(["chi", "35142", "--budget-dominated", "3"])
    assert code == cli.EXIT_BUDGET


def test_budget_refusal_counts_without_walking_the_chains(capsys):
    # One column of 13 boxes in rows 14..26 has 10,400,600 dominated sets.
    blob = json.dumps({"n": 26, "boxes": [[i, 1] for i in range(14, 27)]})
    start = time.monotonic()
    code = cli.main(["chi", blob, "--budget-dominated", "1000"])
    assert time.monotonic() - start < 1
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: 10400600 dominated diagrams exceed budget 1000\n"
    )


def test_purple_command(capsys):
    code, out = run(capsys, "purple", "15243", "--k", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["purple_boxes"] == [[1, 3], [2, 3], [3, 3], [4, 3]]
    assert len(data["members"]) == 5


# `purple 15243 --k 5` prints these bytes, as its enumerating predecessor did.
PURPLE_15243_K5_TEXT = (
    "purple boxes: [(1, 3), (2, 3), (3, 3), (4, 3)]\n"
    "members: ['{(1,3), (2,3)}', '{(1,3), (3,3)}', '{(1,3), (4,3)}', '{(2,3), (3,3)}', '{(2,3), (4,3)}']\n"
    "monomials: ['x1*x2', 'x1*x3', 'x1*x4', 'x2*x3', 'x2*x4']\n"
)
PURPLE_15243_K5_JSON = (
    '{"D":{"n":5,"boxes":[[2,2],[2,3],[2,4],[4,3]]},"k":5,"l":3,'
    '"purple_boxes":[[1,3],[2,3],[3,3],[4,3]],'
    '"members":[{"n":5,"boxes":[[1,3],[2,3]]},{"n":5,"boxes":[[1,3],[3,3]]},'
    '{"n":5,"boxes":[[1,3],[4,3]]},{"n":5,"boxes":[[2,3],[3,3]]},{"n":5,"boxes":[[2,3],[4,3]]}],'
    '"monomials":[[1,1,0,0,0],[1,0,1,0,0],[1,0,0,1,0],[0,1,1,0,0],[0,1,0,1,0]]}\n'
)
CHARACTERIZE_15243_K5_TEXT = PURPLE_15243_K5_TEXT + (
    "working: ['x1*x2', 'x1*x3', 'x1*x4', 'x2*x3', 'x2*x4']\n"
    "extra: []\n"
)
CHARACTERIZE_15243_K5_JSON = PURPLE_15243_K5_JSON[:-2] + (
    ',"working":["x1*x2","x1*x3","x1*x4","x2*x3","x2*x4"],"extra":[]}\n'
)


@pytest.mark.parametrize(
    "flags, expected",
    [
        ((), PURPLE_15243_K5_TEXT),
        (("--format", "json"), PURPLE_15243_K5_JSON),
        (("--characterize",), CHARACTERIZE_15243_K5_TEXT),
        (("--characterize", "--format", "json"), CHARACTERIZE_15243_K5_JSON),
    ],
)
def test_purple_command_bytes(capsys, flags, expected):
    assert run(capsys, "purple", "15243", "--k", "5", *flags) == (0, expected)


def test_purple_characterize(capsys):
    code, out = run(capsys, "purple", "15243", "--k", "4", "--characterize", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "x1*x2" in data["extra"]
    argv = ["purple", "15243", "--k", "4", "--l", "4", "--characterize", "--format", "json"]
    assert run(capsys, *argv) == (code, out)


def test_purple_characterize_rejects_an_l_other_than_sigma_k():
    # working and extra are sigma(k)'s, so another --l would print two families as one
    line = _usage_error_line(["purple", "15243", "--k", "4", "--l", "1", "--characterize"])
    assert line == "error: --characterize needs --l 4 = sigma(k), not 1"


def test_alternating_sum_command(capsys):
    code, out = run(capsys, "alternating-sum", "1342", "42")
    assert code == 0
    assert out.strip() == "x1*x3"
    code, out = run(capsys, "alternating-sum", "2143", "43")
    assert code == 0
    assert out.strip() == "0"


def test_chi_accepts_diagram_json(capsys):
    blob = json.dumps({"n": 4, "boxes": [[2, 2], [3, 2]]})
    code, out = run(capsys, "chi", blob)
    assert code == 0
    assert out.strip() == "x1*x2 + x1*x3 + x2*x3"


def test_cache_flag_is_refused(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"kind":"spec","w":"2143","value":99}\n')
    code = cli.main(["cw", "2143", "--all-methods", "--cache", str(cache)])
    assert code == cli.EXIT_USAGE
    assert "--cache" in capsys.readouterr().err


def test_unknown_claim_is_a_usage_error(capsys):
    code = cli.main(["verify", "nope"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["purple", "2143", "--k", "9"],
        ["purple", "2143", "--k", "0"],
        ["purple", "2143", "--k", "1", "--l", "5"],
        ["purple", '{"n": 3, "boxes": [[1, 1]]}', "--k", "4", "--l", "1"],
        ["purple", '{"n": 3, "boxes": [[1, 1]]}', "--k", "1"],
    ],
)
def test_purple_bad_input_is_a_usage_error(argv, capsys):
    code = cli.main(argv)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: schubpat" in capsys.readouterr().out


def test_verify_help_describes_every_claim(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(verify.CLAIMS) == 9
    for name, claim in verify.CLAIMS.items():
        assert f"\n  {name}: {claim.description}\n" in out


def test_verify_timing_under_jobs(tmp_path):
    out = tmp_path / "timed.jsonl"
    argv = ["verify", "conj5.1", "--max-n", "4", "--format", "json", "--out", str(out)]
    assert cli.main(argv + ["--jobs", "2", "--timing"]) == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert reports
    assert all(isinstance(r["elapsed_ms"], float) for r in reports)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_timing_shows_in_every_format(capsys, fmt):
    argv = ["verify", "thm1.0", "--max-n", "2", "--format", fmt]
    code, plain = run(capsys, *argv)
    assert code == 0
    code, timed = run(capsys, *argv, "--timing")
    assert code == 0
    lines = timed.splitlines()
    header = []
    if fmt == "csv":
        header = [lines.pop(0).removesuffix(",elapsed_ms")]
    untimed = []
    for line in lines:
        if fmt == "json":
            report = json.loads(line)
            elapsed = report.pop("elapsed_ms")
            untimed.append(json.dumps(report, separators=(",", ":")))
        else:
            rest, _, field = line.rpartition("\t" if fmt == "text" else ",")
            untimed.append(rest)
            label = "elapsed_ms=" if fmt == "text" else ""
            assert field.startswith(label)
            elapsed = float(field[len(label):])
        assert isinstance(elapsed, float) and elapsed >= 0
    # the timing is each report's only addition; without --timing the bytes are as before
    assert "\n".join(header + untimed) + "\n" == plain
    assert len(lines) == 2 and "elapsed_ms" not in plain


@pytest.mark.parametrize(
    "claim", ["conj5.1", "identity", "thm1.1", "thm1.0", "thm4.1", "conj5.3"]
)
def test_verify_jobs_output_is_byte_identical(tmp_path, claim):
    outputs = []
    for jobs in ["1", "2"]:
        out = tmp_path / f"jobs{jobs}.jsonl"
        argv = ["verify", claim, "--max-n", "5", "--format", "json", "--jobs", jobs]
        assert cli.main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"elapsed_ms" not in outputs[0]


def test_verify_csv_quotes_a_subject_with_commas(capsys, monkeypatch):
    # one_line writes a permutation of S_10 and up with commas between its entries.
    shard = tuple(range(10, 0, -1))
    stub = verify.Claim("stub", "a stub claim", lambda c: [shard], lambda w, c: ["a, b"])
    monkeypatch.setitem(verify.CLAIMS, "stub", stub)
    code, out = run(capsys, "verify", "stub", "--format", "csv")
    assert code == cli.EXIT_COUNTEREXAMPLE
    assert list(csv.reader(io.StringIO(out))) == [
        ["claim", "subject", "verdict", "witness"],
        ["stub", "10,9,8,7,6,5,4,3,2,1", "fails", "a; b"],
    ]


@pytest.mark.parametrize("jobs, code", [([], cli.EXIT_OK), (["--jobs", "2"], cli.EXIT_USAGE)])
def test_only_verify_jobs_above_1_needs_fork(jobs, code):
    # The CLI on a platform without the fork start method, which Windows lacks.
    script = textwrap.dedent("""
        import multiprocessing, sys
        get_context = multiprocessing.get_context
        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)
        multiprocessing.get_context = no_fork
        from schubpat import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script, "verify", "identity", "--max-n", "3", *jobs],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == code, done.stderr
    if code == cli.EXIT_OK:
        assert len(done.stdout.splitlines()) == 8 and done.stderr == ""
    else:
        assert done.stdout == ""
        assert done.stderr == "error: --jobs above 1 needs the fork start method\n"


def test_schubpat_environment_variables_are_ignored(capsys, monkeypatch):
    monkeypatch.setenv("SCHUBPAT_FORMAT", "json")
    monkeypatch.setenv("SCHUBPAT_MAX_N", "0")
    code, out = run(capsys, "verify", "identity", "--max-n", "2")
    assert code == 0
    assert out == "identity\t12\tholds\nidentity\t21\tholds\n"


def _usage_error_line(argv: list[str]) -> str:
    """Run the CLI; assert exit 1 with one `error:` line and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == cli.EXIT_USAGE, (argv, err.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return lines[0]


@pytest.mark.parametrize("max_n", ["-1", "1"])
def test_verify_rejects_max_n_below_2(max_n):
    line = _usage_error_line(["verify", "thm2.7", "--max-n", max_n])
    assert line == f"error: --max-n must be at least 2, got {max_n}"


@pytest.mark.parametrize("jobs", ["-1", "0"])
def test_verify_rejects_jobs_below_1(jobs):
    line = _usage_error_line(["verify", "thm2.7", "--jobs", jobs])
    assert line == f"error: --jobs must be at least 1, got {jobs}"


@pytest.mark.parametrize("budget", ["-1", "-1000"])
def test_chi_rejects_a_negative_budget(budget):
    line = _usage_error_line(["chi", "321", "--budget-dominated", budget])
    assert line == f"error: --budget-dominated must be at least 0, got {budget}"


def test_verify_starts_no_more_workers_than_shards(capsys, monkeypatch):
    # Workers forked per run, counted in the parent as os.fork returns there.
    sizes = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            sizes[-1] += 1
        return pid

    def verify_identity(*argv):
        sizes.append(0)
        return run(capsys, "verify", "identity", *argv)

    monkeypatch.setattr(os, "fork", fork)
    serial = verify_identity("--max-n", "3")
    assert sizes == [0]
    assert verify_identity("--max-n", "3", "--jobs", "5000") == serial
    assert sizes == [0, 8]  # the 2 + 6 permutations of S_2 and S_3
    code, _ = verify_identity("--max-n", "2", "--jobs", "5000")
    assert (code, sizes) == (0, [0, 8, 2])


@pytest.mark.parametrize(
    "blob, detail",
    [
        ('{"n": 2, "boxes": [[3, 3]]}', "ValueError: box (3, 3) outside [2] x [2]"),
        ('{"n": 2}', "KeyError: 'boxes'"),
        ('{"n": 2, "boxes": [[1, 1]]', "JSONDecodeError"),
        ('{"n": -1, "boxes": []}', "ValueError: n must be a nonnegative integer, got -1"),
        ('{"n": 2.5, "boxes": []}', "ValueError: n must be a nonnegative integer, got 2.5"),
        ('{"n": true, "boxes": []}', "ValueError: n must be a nonnegative integer, got True"),
        ('{"n": 1000000000, "boxes": [[1, 2]]}', "ValueError: n must be at most 1000"),
        ('{"n": 2, "boxes": [[1.0, 2]]}', "ValueError: box [1.0, 2] is not a pair of integers"),
        ('{"n": 2, "boxes": [[1, false]]}', "ValueError: box [1, False] is not a pair of integers"),
    ],
)
def test_bad_diagram_json_is_a_usage_error(blob, detail):
    for argv in (["chi", blob], ["purple", blob, "--k", "1", "--l", "1"]):
        assert detail in _usage_error_line(argv)


def _perm_commands(perm: str) -> list[list[str]]:
    return [
        ["cw", perm],
        ["schubert", perm],
        ["rothe", perm],
        ["chi", perm],
        ["purple", perm, "--k", "1"],
        ["alternating-sum", perm, "()"],
    ]


@st.composite
def repeated_letters(draw) -> str:
    letters = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    at = draw(st.integers(0, len(letters)))
    letters.insert(at, draw(st.sampled_from(letters)))
    return "".join(map(str, letters))


@st.composite
def non_permutations(draw) -> str:
    # distinct positive letters that are not 1..n
    letters = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True))
    if sorted(letters) == list(range(1, len(letters) + 1)):
        letters.append(len(letters) + 2)
    return "".join(map(str, draw(st.permutations(letters))))


# at least one character that is not a letter 1..9
non_digits = st.text(
    alphabet=st.sampled_from("0123456789abxyz.;:!+*?_"), min_size=1, max_size=8
).filter(lambda s: s.strip("123456789"))


@settings(max_examples=30, deadline=None)
@given(repeated_letters())
def test_repeated_letters_are_a_usage_error(perm):
    for argv in _perm_commands(perm):
        assert "letters must be distinct" in _usage_error_line(argv)
    assert "bad word" in _usage_error_line(["alternating-sum", "1", perm])


@settings(max_examples=30, deadline=None)
@given(non_permutations())
def test_non_permutations_are_a_usage_error(perm):
    for argv in _perm_commands(perm):
        assert "not a permutation" in _usage_error_line(argv)


@settings(max_examples=30, deadline=None)
@given(non_digits)
def test_non_digits_are_a_usage_error(text):
    for argv in _perm_commands(text):
        _usage_error_line(argv)
    _usage_error_line(["alternating-sum", "1", text])


def _top_first(n: int) -> str:
    """n, 1, 2, ..., n - 1: D(w) is row 1 of columns 1 .. n - 1, so S_w = x1^(n-1)."""
    return ",".join(map(str, [n, *range(1, n)]))


def test_divided_differences_walk_up_to_the_longest_element_in_a_loop(capsys):
    # 2, 1, 3, ..., 60 is C(60, 2) - 1 steps below w0, far past the recursion limit.
    assert run(capsys, "schubert", ",".join(map(str, [2, 1, *range(3, 61)]))) == (0, "x1\n")


def test_every_exponent_of_an_accepted_input_fits_below_its_guard_bit():
    # An exponent of a polynomial built from an input of size n is at most n.
    assert 1 << (W - 1) > MAX_N


def test_inputs_at_the_size_cap_are_exact_and_beyond_it_refused(capsys):
    assert run(capsys, "schubert", _top_first(MAX_N), "--method", "diagram") == (0, f"x1^{MAX_N - 1}\n")
    assert run(capsys, "chi", json.dumps({"n": MAX_N, "boxes": [[1, 1]]})) == (0, "x1\n")
    # The long cycle 2, 3, ..., n, 1: D(w) is one column of rows 1 .. n - 1, walked without recursion.
    cycle = ",".join(map(str, [*range(2, MAX_N + 1), 1]))
    rows = "*".join(f"x{i}" for i in range(1, MAX_N))
    assert run(capsys, "schubert", cycle, "--method", "diagram") == (0, rows + "\n")
    assert run(capsys, "chi", cycle) == (0, rows + "\n")
    assert run(capsys, "purple", cycle, "--k", "1")[0] == 0
    big = _top_first(MAX_N + 1)
    for argv in _perm_commands(big) + [["schubert", big, "--method", "diagram"]]:
        assert _usage_error_line(argv) == f"error: permutation of length {MAX_N + 1} is longer than {MAX_N}"
    line = _usage_error_line(["alternating-sum", "1", big])
    assert line == f"error: word of length {MAX_N + 1} is longer than {MAX_N}"
    blob = json.dumps({"n": MAX_N + 1, "boxes": [[1, 1]]})
    assert f"n must be at most {MAX_N}, got {MAX_N + 1}" in _usage_error_line(["chi", blob])


def test_full_suite_summary_carries_the_report_digest(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = root / "scripts" / "run_full_suite.py"
    out = subprocess.run(
        [sys.executable, str(script), "--max-n", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == len(list(tmp_path.glob("*.jsonl"))) == 9
    for line in lines:
        name, digest = line.split()[0], line.rsplit("sha256=", 1)[1]
        assert digest == hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest()


def _full_suite_module():
    root = pathlib.Path(__file__).resolve().parent.parent
    script = root / "scripts" / "run_full_suite.py"
    spec = importlib.util.spec_from_file_location("run_full_suite", script)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def test_full_suite_exit_code_prefers_a_counterexample_to_a_refusal(monkeypatch, capsys):
    suite = _full_suite_module()
    # conj5.1 is run first, thm4.1 last: a refusal before or after a counterexample must not mask it.
    cases = [
        ({}, 0),
        ({"thm4.1": ("budget-exceeded", "m")}, 3),
        ({"conj5.1": ("fails", "w"), "thm4.1": ("budget-exceeded", "m")}, 2),
        ({"conj5.1": ("budget-exceeded", "m"), "thm4.1": ("fails", "w")}, 2),
    ]
    monkeypatch.setattr(sys, "argv", ["run_full_suite.py", "--max-n", "2"])
    for verdicts, code in cases:

        def fake_run_claim(name, config):
            yield verify.VerificationReport(name, "12", *verdicts.get(name, ("holds", None)))

        monkeypatch.setattr(suite, "run_claim", fake_run_claim)
        assert suite.main() == code, verdicts
        assert ("counterexample 12: w" in capsys.readouterr().out) == (code == 2)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--max-n", "1"], "error: --max-n must be at least 2, got 1"),
        (["--jobs", "0"], "error: --jobs must be at least 1, got 0"),
    ],
)
def test_full_suite_rejects_the_sizes_verify_rejects(monkeypatch, capsys, argv, line):
    suite = _full_suite_module()
    monkeypatch.setattr(sys, "argv", ["run_full_suite.py", *argv])
    assert suite.main() == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", line + "\n")


def test_full_suite_out_that_cannot_be_made_is_one_error_line(monkeypatch, capsys, tmp_path):
    suite = _full_suite_module()
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "conj5.1.jsonl").mkdir(parents=True)  # the first claim's report is a directory
    for out_dir, path, reason in (
        (tmp_path / "file" / "d", tmp_path / "file" / "d", "Not a directory"),
        (tmp_path / "dir", tmp_path / "dir" / "conj5.1.jsonl", "Is a directory"),
    ):
        monkeypatch.setattr(sys, "argv", ["run_full_suite.py", "--max-n", "2", "--out", str(out_dir)])
        assert suite.main() == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("argv", [["rothe", "21"], ["cw-table", "2"], ["verify", "thm1.0", "--max-n", "2"]])
def test_an_out_file_that_cannot_be_opened_is_a_usage_error(tmp_path, argv):
    path = tmp_path / "missing" / "x"
    line = _usage_error_line([*argv, "--out", str(path)])
    assert line == f"error: cannot write {path}: No such file or directory"
    assert not path.parent.exists()


def test_negative_cw_table_size_is_a_usage_error():
    assert "n must be nonnegative, got -1" in _usage_error_line(["cw-table", "-1"])


# The options of each subcommand, each one read by its handler.
SUBCOMMAND_OPTIONS = {
    "schubert": {"--format", "--out", "--method"},
    "rothe": {"--format", "--out"},
    "cw": {"--format", "--out", "--method", "--all-methods"},
    "cw-table": {"--out"},
    "verify": {"--format", "--out", "--jobs", "--max-n", "--seed", "--timing"},
    "purple": {"--format", "--out", "--k", "--l", "--characterize"},
    "chi": {"--format", "--out", "--budget-dominated"},
    "alternating-sum": {"--format", "--out"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {
        name: {
            a.option_strings[0]: a.choices
            for a in p._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }
        for name, p in subcommands.items()
    }
    assert {name: set(opts) for name, opts in options.items()} == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 26
    assert options["verify"]["--format"] == ["text", "json", "csv"]
    for name in SUBCOMMAND_OPTIONS.keys() - {"verify", "cw-table"}:
        assert options[name]["--format"] == ["text", "json"]
    assert options["schubert"]["--method"] == ["divdiff", "diagram"]


# One call of each subcommand but verify, with the options it needs.
CALLS = {
    "schubert": ["schubert", "2143"],
    "rothe": ["rothe", "2143"],
    "cw": ["cw", "2143"],
    "cw-table": ["cw-table", "2"],
    "purple": ["purple", "2143", "--k", "1"],
    "chi": ["chi", "2143"],
    "alternating-sum": ["alternating-sum", "2143", "21"],
}
VERIFY_ONLY = [
    ["--jobs", "2"],
    ["--max-n", "3"],
    ["--seed", "1"],
    ["--timing"],
    ["--format", "csv"],
]


@pytest.mark.parametrize("argv", CALLS.values(), ids=list(CALLS))
def test_each_call_runs_without_an_extra_option(capsys, argv):
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        call + option
        for name, call in CALLS.items()
        for option in VERIFY_ONLY
    ]
    # Only chi takes --budget-dominated; verify runs thm2.4 at the default budget.
    + [call + ["--budget-dominated", "5"] for name, call in CALLS.items() if name != "chi"]
    + [
        ["verify", "identity", "--budget-dominated", "5"],
        ["cw-table", "2", "--format", "text"],
        ["schubert", "2143", "--method", "weyl"],
        ["cw", "2143", "--method", "ie", "--all-methods"],
        ["cw", "2143", "--all-methods", "--method", "rec"],
    ],
    ids=" ".join,
)
def test_an_option_the_subcommand_does_not_take_is_a_usage_error(argv):
    _usage_error_line(argv)


def _readme_cli_examples() -> list[str]:
    """The `schubpat ...` lines of the sh block under README's "## CLI"."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("schubpat ")]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_examples_run_and_print_their_comment(capsys, line):
    # A trailing `# ...` comment is the exact output of the line.
    command, comment = re.fullmatch(r"schubpat (.*?)(?:\s+# (.*))?", line).groups()
    code, out = run(capsys, *shlex.split(command))
    assert code == 0
    if comment is not None:
        assert out == comment + "\n"
