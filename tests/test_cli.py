import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from treechild import __version__, cli, criteria
from treechild import asymptotics as asym
from treechild import distributions as dist
from treechild import networks as nw

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "bench" / "readme_cli_goldens.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count_commands(capsys):
    assert run(capsys, "count", "otc", "--d", "3", "--n", "3", "--k", "2") == (0, "60\n")
    assert run(capsys, "count", "tcmax", "--d", "2", "--n", "8") == (
        0, "8485564550400\n",
    )
    assert run(capsys, "count", "c", "--d", "2", "--n", "3") == (0, "106\n")
    assert run(capsys, "count", "b", "--d", "2", "--n", "2", "--k", "2") == (0, "4\n")
    assert run(capsys, "count", "otc", "--d", "2", "--n", "2") == (0, "3\n")


def test_enumerate_words(capsys):
    code, out = run(capsys, "enumerate", "words", "--d", "2", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "111222", "112122", "112212", "121122", "121212", "211122", "211212",
    ]
    code, out = run(capsys, "enumerate", "words", "--d", "3", "--n", "2",
                    "--format", "count")
    assert (code, out) == (0, "25\n")


def test_enumerate_words_json(capsys):
    code, out = run(capsys, "enumerate", "words", "--d", "2", "--n", "2",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "enumerate",
        "params": {"what": "words", "d": 2, "n": 2},
        "result": {"count": 7, "words": [
            "111222", "112122", "112212", "121122", "121212", "211122", "211212",
        ]},
        "version": __version__,
    }


def test_enumerate_networks(capsys):
    code, out = run(capsys, "enumerate", "networks", "--d", "2", "--n", "3",
                    "--k", "2", "--format", "count")
    assert (code, out) == (0, "42\n")
    code, out = run(capsys, "enumerate", "networks", "--d", "5", "--n", "2",
                    "--k", "1", "--format", "count")
    assert (code, out) == (0, "2\n")
    code, out = run(capsys, "enumerate", "networks", "--d", "2", "--n", "2",
                    "--k", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["command"] == "enumerate"
    assert payload["result"]["count"] == 2
    assert payload["version"]
    code, out = run(capsys, "enumerate", "networks", "--d", "2", "--n", "2",
                    "--k", "1", "--format", "dot")
    assert code == 0 and out.count("digraph") == 2


def test_enumerate_one_component(capsys):
    code, out = run(capsys, "enumerate", "networks", "--d", "3", "--n", "3",
                    "--k", "2", "--one-component", "--format", "count")
    assert (code, out) == (0, "60\n")


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "sandwich")
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True
    code, out = run(capsys, "verify", "--suite", "words", "--d", "4")
    assert code == 0
    code, out = run(capsys, "verify", "--suite", "props", "--d", "2", "--q", "25")
    assert code == 0
    report = json.loads(out)["result"]
    assert report["subsolution"]["n_threshold"] is not None
    # with no --q the sweeps use the resolved coefficient 3d^2+12d-11
    code, out = run(capsys, "verify", "--suite", "props", "--d", "2")
    assert code == 0
    assert json.loads(out)["result"]["q_coeff"] == 25
    # the garbled printed coefficient fails the super-solution sweep: exit 1
    code, out = run(capsys, "verify", "--suite", "props", "--d", "2", "--q", "13")
    assert code == 1
    assert json.loads(out)["result"]["supersolution"]["n_threshold"] is None


# exit code and first 16 hex digits of the stdout sha256 of `verify --suite
# props` for each (d, q) of CHANGES.md's table: the bytes hold every lhs and
# rhs of every violation the two sweeps report
PROPS_SHA256 = [
    ("2", "13", 1, "95e7a5b0794c523a"),
    ("2", "25", 0, "12a6009e2c64a5c9"),
    ("3", "28", 1, "f362d4f8c5b60d8f"),
    ("3", "52", 0, "636f77141a5df85a"),
    ("4", "49", 1, "47e9e9776376cb7f"),
    ("4", "85", 1, "773d01c138d2240f"),
    ("5", "76", 1, "d6f701050335dba0"),
    ("5", "124", 1, "dd38eeef561995b5"),
    ("6", "109", 1, "a07ff9d35289b420"),
    ("6", "169", 1, "a0a7c6d288a36ddf"),
]


@pytest.mark.parametrize("d, q, exit_code, sha", PROPS_SHA256)
def test_verify_props_bytes_are_pinned(capsys, d, q, exit_code, sha):
    code, out = run(capsys, "verify", "--suite", "props", "--d", d, "--q", q)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == sha


def test_dist_commands(capsys):
    code, out = run(capsys, "dist", "--d", "3", "--n", "500", "--limit", "bessel")
    assert code == 0
    assert json.loads(out)["result"]["tv"] == dist.bessel_limit_check(500)
    code, out = run(capsys, "dist", "--d", "4", "--n", "100", "--limit",
                    "degenerate")
    assert code == 0
    assert json.loads(out)["result"]["p_max"] == dist.degenerate_check(4, 100)
    code, out = run(capsys, "dist", "--d", "2", "--n", "8", "--exploratory",
                    "poisson")
    assert code == 0
    assert "poisson_half" in out
    code, out = run(capsys, "dist", "--d", "2", "--n", "4", "--exploratory",
                    "words")
    assert code == 0
    rows = json.loads(out)["result"]["comparison"]
    assert rows[3]["predicted_tc"] == 2544
    code, out = run(capsys, "dist", "--d", "2", "--n", "6", "--format", "csv")
    assert code == 0 and out.startswith("k,log_prob")
    code, out = run(capsys, "dist", "--d", "2", "--n", "50", "--limit", "normal")
    assert code == 0
    assert set(json.loads(out)["result"]) == {
        "n", "d", "mean", "variance", "third_abs", "sup_cdf_distance",
    }
    code, out = run(capsys, "dist", "--d", "3", "--n", "5")
    assert code == 0
    assert json.loads(out)["result"]["log_probs"] == list(
        map(float, dist.r_pmf(3, 5).log_probs)
    )


@pytest.mark.parametrize(
    "limit, d, message",
    [("bessel", "2", "error: --limit bessel requires --d 3\n"),
     ("normal", "3", "error: --limit normal requires --d 2\n"),
     ("degenerate", "3", "error: --limit degenerate requires --d >= 4\n")],
)
def test_dist_limit_rejects_wrong_d(capsys, limit, d, message):
    assert cli.main(["dist", "--d", d, "--n", "20", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_verify_asym_suite_runs_theta_for_d2(capsys):
    code, out = run(capsys, "verify", "--suite", "asym", "--d", "2")
    assert code == 0
    checks = [e["check"] for e in json.loads(out)["result"]["entries"]]
    assert checks[:2] == ["airy_root", "theta_residual"]


@pytest.mark.parametrize("d,formula_entries",
                         [(2, 16), (3, 16), (4, 11), (5, 11), (6, 7)])
def test_verify_tables_and_formulas_run_the_criterion_cells(capsys, d,
                                                            formula_entries):
    # the suites take their cells from criteria 2 and 3, not a range of their own
    budget = nw.DEFAULT_NETWORK_BUDGET
    tables = criteria.tcmax_rows(d)[1] + criteria.tc_oracle(d, budget)[1]
    formulas = criteria.otc_formula(d, budget)[1]
    for suite, entries in (("tables", tables), ("formulas", formulas)):
        code, out = run(capsys, "verify", "--suite", suite, "--d", str(d))
        assert code == 0
        assert json.loads(out)["result"]["entries"] == entries
    assert len(formulas) == formula_entries


def test_asym_commands(capsys):
    code, out = run(capsys, "asym", "root")
    assert code == 0
    assert json.loads(out)["result"]["a1"] == asym.airy_root_a1()
    code, out = run(capsys, "asym", "residual", "--d", "2", "--window",
                    "300", "700")
    assert code == 0
    window = asym.theta_residual_window(2, 300, 700)
    assert json.loads(out)["result"]["oscillation"] == window["oscillation"]
    # the smallest diagonal the fit accepts
    code, out = run(capsys, "asym", "fit", "--d", "2", "--n-max", "50")
    assert code == 0
    assert json.loads(out)["params"]["n_max"] == 50


def test_exit_codes():
    assert cli.main(["count", "otc", "--d", "1", "--n", "3", "--k", "1"]) == 2
    assert cli.main(["count", "nosuch", "--d", "2", "--n", "3"]) == 2
    assert cli.main(["enumerate", "words", "--d", "2", "--n", "6",
                     "--budget", "10"]) == 3
    assert cli.main(["count", "b", "--d", "2", "--n", "3"]) == 2


def test_verify_words_refuses_d_with_no_word_to_check(capsys):
    # criterion 4 enumerates the words of length (d+1)n <= 14: none for d >= 14
    assert cli.main(["verify", "--suite", "words", "--d", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: multiplicity d must be <= 13 for words of length at most 14, got 14\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "networks", "--d", "2", "--n", "3", "--k", "0"],
        ["enumerate", "networks", "--d", "2", "--n", "3", "--k", "1"],
        ["enumerate", "networks", "--d", "2", "--n", "3", "--k", "1",
         "--one-component"],
        ["enumerate", "words", "--d", "2", "--n", "2"],
        ["dist", "--d", "2", "--n", "3", "--exploratory", "words"],
    ],
)
def test_negative_budget_is_a_usage_error(capsys, argv):
    # refused before the search starts, whether or not the search would
    # have spent any of it
    assert cli.main(argv + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0, got -1\n"


BAD_NETWORK_PARAMS = {
    ("1", "3", "1"): "multiplicity d",
    ("2", "0", "0"): "leaf count n",
    ("2", "3", "-1"): "out of range",
    ("2", "3", "3"): "out of range",
}


@pytest.mark.parametrize("one_component", [False, True])
@pytest.mark.parametrize("d,n,k", list(BAD_NETWORK_PARAMS))
def test_enumerate_networks_bad_parameters(capsys, one_component, d, n, k):
    argv = ["enumerate", "networks", "--d", d, "--n", n, "--k", k,
            "--format", "count"] + (["--one-component"] if one_component else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert BAD_NETWORK_PARAMS[d, n, k] in captured.err


BUDGET_CASES = [(oc, fmt) for fmt in ("count", "json", "dot") for oc in (False, True)]


@pytest.mark.parametrize(
    "one_component,fmt", BUDGET_CASES,
    # stable ids: a count case is named by one_component alone
    ids=[f"{oc}" if fmt == "count" else f"{oc}-{fmt}" for oc, fmt in BUDGET_CASES],
)
def test_enumerate_networks_budget_exceeded(capsys, one_component, fmt):
    # the exports write only after the search has finished, so a search
    # cut short leaves stdout empty
    argv = ["enumerate", "networks", "--d", "2", "--n", "4", "--k", "2",
            "--format", fmt, "--budget", "10"]
    code = cli.main(argv + (["--one-component"] if one_component else []))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("budget exceeded:")


@pytest.mark.parametrize(
    "message, err",
    [
        # numpy's _ArrayMemoryError is a MemoryError with this text
        (
            "Unable to allocate 7.28 TiB for an array with shape"
            " (200000000001, 5) and data type float64",
            "error: Unable to allocate 7.28 TiB for an array with shape"
            " (200000000001, 5) and data type float64\n",
        ),
        ("", "error: out of memory\n"),
    ],
)
def test_memory_error_is_a_usage_error(capsys, monkeypatch, message, err):
    # exit 1 is kept for a failed verification; nothing is allocated here
    def fit_e_diagonal(d, j_max):
        raise MemoryError(message)

    monkeypatch.setattr(asym, "fit_e_diagonal", fit_e_diagonal)
    assert cli.main(["asym", "fit", "--d", "2", "--n-max", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_dist_without_n_is_a_usage_error(capsys):
    assert cli.main(["dist", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dist requires --n unless --exploratory is given\n"
    assert cli.main(["dist", "--d", "2", "--exploratory", "words"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "c", "--d", "1", "--n", "3"],
        ["count", "tcmax", "--d", "1", "--n", "4"],
        ["count", "b", "--d", "0", "--n", "3", "--k", "1"],
        # the message names d, not the doubled row count of the e-recurrence
        ["asym", "fit", "--d", "1", "--n-max", "100"],
    ],
)
def test_b_table_commands_reject_small_d(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "d must be >= 2" in captured.err


@pytest.mark.parametrize("n_max", [1, 0, -5, 49])
def test_asym_fit_rejects_small_n_max(capsys, n_max):
    # the message names the value typed, not the doubled row count of the
    # e-recurrence
    assert cli.main(["asym", "fit", "--d", "2", "--n-max", str(n_max)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    numbers = re.findall(r"-?\d+", captured.err)
    assert str(n_max) in numbers
    if n_max:
        assert str(2 * n_max) not in numbers


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--d", "2", "--n", "0"],
        ["dist", "--d", "2", "--n", "-3"],
        ["dist", "--d", "2", "--n", "0", "--limit", "normal"],
        ["dist", "--d", "3", "--n", "0", "--limit", "bessel"],
        ["dist", "--d", "4", "--n", "0", "--limit", "degenerate"],
        # one leaf: a point mass, with no third moment to standardise
        ["dist", "--d", "2", "--n", "1", "--limit", "normal"],
    ],
)
def test_dist_rejects_nonpositive_n(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "leaf count n" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--d", "5", "--n", "8", "--exploratory", "poisson"],
        ["dist", "--d", "3", "--exploratory", "poisson"],
        ["dist", "--d", "3", "--n", "4", "--exploratory", "words"],
        ["dist", "--d", "2", "--n", "-2", "--exploratory", "words"],
        ["dist", "--d", "2", "--n", "0", "--exploratory", "words"],
        # the Poisson report reads a reference row, and d=2 has rows 2..8
        ["dist", "--d", "2", "--n", "1", "--exploratory", "poisson"],
        ["dist", "--d", "2", "--n", "100", "--exploratory", "poisson"],
    ],
)
def test_dist_exploratory_rejects_bad_parameters(capsys, argv):
    # both exploratory reports are statements about d=2
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--exploratory" in captured.err
    if argv[1:3] == ["--d", "2"] and argv[-1] == "poisson":
        assert "rows 2..8" in captured.err


@pytest.mark.parametrize(
    "extra,flag",
    [(["--n", "8", "--exploratory", "poisson", "--limit", "normal"], "--limit"),
     (["--n", "4", "--exploratory", "words", "--limit", "bessel"], "--limit"),
     (["--n", "8", "--exploratory", "poisson", "--format", "csv"], "--format csv"),
     (["--n", "4", "--exploratory", "words", "--format", "csv"], "--format csv"),
     (["--n", "8", "--limit", "normal", "--format", "csv"], "--format csv"),
     (["--n", "5", "--limit", "normal", "--budget", "10"], "--budget"),
     (["--n", "8", "--exploratory", "poisson", "--budget", "1"], "--budget"),
     (["--n", "6", "--budget", "10"], "--budget")],
)
def test_dist_rejects_ignored_flags(capsys, extra, flag):
    # a flag that the chosen report would not read is an error, not a no-op
    assert cli.main(["dist", "--d", "2"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith(f" {flag}\n")


@pytest.mark.parametrize(
    "extra,flag",
    [(["--format", "dot"], "--format dot"), (["--k", "1"], "--k"),
     (["--one-component"], "--one-component")],
)
def test_enumerate_words_rejects_network_flags(capsys, extra, flag):
    assert cli.main(["enumerate", "words", "--d", "2", "--n", "2"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err


USAGE_ERRORS = {
    "count-b-without-k": ["count", "b", "--d", "2", "--n", "3"],
    "words-network-flag": ["enumerate", "words", "--d", "2", "--n", "2",
                           "--k", "1"],
    "dist-ignored-flag": ["dist", "--d", "2", "--n", "8",
                          "--exploratory", "poisson", "--limit", "normal"],
    "exploratory-d": ["dist", "--d", "3", "--n", "8", "--exploratory", "poisson"],
    "poisson-row": ["dist", "--d", "2", "--n", "9", "--exploratory", "poisson"],
    "words-n": ["dist", "--d", "2", "--n", "0", "--exploratory", "words"],
    "dist-without-n": ["dist", "--d", "2"],
    "bessel-d": ["dist", "--d", "2", "--n", "20", "--limit", "bessel"],
    "normal-d": ["dist", "--d", "3", "--n", "20", "--limit", "normal"],
    "degenerate-d": ["dist", "--d", "3", "--n", "20", "--limit", "degenerate"],
    # raised by the library, not by the command line
    "negative-budget": ["enumerate", "words", "--d", "2", "--n", "2",
                        "--budget", "-1"],
    "sandwich-d": ["verify", "--suite", "sandwich", "--d", "2"],
    # a flag that the chosen mode does not read
    "count-tcmax-k": ["count", "tcmax", "--d", "2", "--n", "8", "--k", "1"],
    "count-c-k": ["count", "c", "--d", "2", "--n", "3", "--k", "1"],
    "asym-root-d": ["asym", "root", "--d", "2"],
    "asym-root-n-max": ["asym", "root", "--n-max", "5000"],
    "asym-root-window": ["asym", "root", "--window", "500", "2000"],
    "asym-fit-window": ["asym", "fit", "--d", "2", "--window", "500", "2000"],
    "asym-residual-n-max": ["asym", "residual", "--d", "2", "--n-max", "5000"],
    "verify-q-outside-props": ["verify", "--suite", "sandwich", "--q", "25"],
    "verify-sandwich-budget": ["verify", "--suite", "sandwich", "--budget", "10"],
    "verify-props-budget": ["verify", "--suite", "props", "--d", "2", "--budget", "10"],
    "verify-asym-budget": ["verify", "--suite", "asym", "--budget", "10"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_print_one_error_line(capsys, argv):
    # a check in the command line and a check in the library look the same
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_only_main_reports_usage_errors():
    # the handlers raise ValueError, and main alone turns it into exit 2
    tree = ast.parse((ROOT / "src" / "treechild" / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    outside = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if id(node) not in in_main and (
            isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr"
            or isinstance(node, ast.Return) and ast.unparse(node) == "return 2")
    ]
    assert outside == []


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "networks", "--d", "2", "--n", "4", "--k", "3",
         "--format", "json"],
        ["enumerate", "networks", "--d", "3", "--n", "3", "--k", "2",
         "--one-component", "--format", "dot"],
        ["enumerate", "networks", "--d", "4", "--n", "4", "--k", "2",
         "--one-component", "--format", "json"],
        ["verify", "--suite", "sandwich"],
        ["verify", "--suite", "props", "--d", "2", "--q", "25"],
    ],
)
def test_cli_matches_goldens(capsys, argv):
    # the general (tc|) and one-component export bytes, node numbering and
    # network order included, and two verify reports, against the recorded
    # CLI goldens
    goldens = json.loads(GOLDENS.read_text())["commands"]
    golden = next(g for g in goldens if g["argv"] == argv)
    code = cli.main(argv)
    out = capsys.readouterr().out.encode()
    assert code == golden["exit"]
    assert len(out) == golden["bytes"]
    assert hashlib.sha256(out).hexdigest() == golden["sha256"]


def test_readme_commands_are_goldens():
    # every command in README's command-line block is a recorded golden, and
    # every number written after one is that golden's stdout
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    goldens = {
        tuple(g["argv"]): g for g in json.loads(GOLDENS.read_text())["commands"]
    }
    values = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = command.split()
        assert program == "treechild" and tuple(argv) in goldens, line
        golden = goldens[tuple(argv)]
        if comment.strip().isdigit():
            out = f"{comment.strip()}\n".encode()
            assert golden["exit"] == 0 and len(out) == golden["bytes"], line
            assert hashlib.sha256(out).hexdigest() == golden["sha256"], line
            values += 1
    assert len(block.splitlines()) == 13 and values == 4


@pytest.mark.parametrize(
    "suite,d",
    [("tables", "7"), ("tables", "1"), ("formulas", "1"), ("words", "1"),
     ("asym", "1"), ("props", "1"),
     # the sandwich suite checks every reference table and takes no --d
     ("sandwich", "2"), ("sandwich", "1")],
)
def test_verify_rejects_bad_d(capsys, suite, d):
    assert cli.main(["verify", "--suite", suite, "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


STREAM_CELLS = [(2, 1, 0)] + [(2, 3, k) for k in range(3)]


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("one_component", [False, True])
@pytest.mark.parametrize("d,n,k", STREAM_CELLS)
def test_streamed_export_equals_whole_document(capsys, d, n, k, one_component,
                                               fmt):
    # the export writes one network at a time; its bytes are those of the
    # whole document serialised at once (n = 1 has one network, so no
    # separator)
    argv = ["enumerate", "networks", "--d", str(d), "--n", str(n), "--k", str(k),
            "--format", fmt] + (["--one-component"] if one_component else [])
    nets = list((nw.enumerate_otc if one_component else nw.enumerate_tc)(d, n, k))
    if fmt == "dot":
        want = "".join(nw._dot_text(net, f"net{i}") for i, net in enumerate(nets))
    else:
        want = json.dumps({
            "command": "enumerate",
            "params": {"what": "networks", "d": d, "n": n, "k": k,
                       "one_component": one_component},
            "result": {"count": len(nets),
                       "networks": [nw._json_payload(net) for net in nets]},
            "version": __version__,
        }) + "\n"
    assert run(capsys, *argv) == (0, want)


class _HashSink:
    """A stdout that keeps only the SHA-256 and the length of what it gets."""

    def __init__(self):
        self.sha, self.bytes = hashlib.sha256(), 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def test_one_component_export_memory_is_below_its_output():
    # 3360 networks, 2.15 MB of JSON: the export holds the sorted root
    # coordinates and one network at a time, not the whole document
    sink = _HashSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = cli.main(["enumerate", "networks", "--d", "3", "--n", "4",
                             "--k", "2", "--one-component", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.bytes == 2150445
    assert sink.sha.hexdigest() == (
        "609475ca30c42e18541b90789c6f371bcd05a854a7da601ec375f3c6be6c49d4")
    assert peak < 2 * sink.bytes


def test_byte_determinism(capsys):
    first = run(capsys, "enumerate", "networks", "--d", "2", "--n", "3",
                "--k", "1", "--format", "json")
    second = run(capsys, "enumerate", "networks", "--d", "2", "--n", "3",
                 "--k", "1", "--format", "json")
    assert first == second
    first = run(capsys, "verify", "--suite", "sandwich")
    second = run(capsys, "verify", "--suite", "sandwich")
    assert first == second


def test_big_integers_become_strings():
    assert criteria.json_int(2**53 - 1) == 2**53 - 1
    assert criteria.json_int(2**53) == str(2**53)
    assert criteria.json_int(8485564550400) == 8485564550400
    assert json.dumps(criteria.json_int(10**20)) == '"100000000000000000000"'


# The child runs each argv through cli.main with stdout captured, then
# reports (exit, sha256) per argv and whether numpy was loaded before and
# after one numeric command.
_NUMPY_PROBE = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from treechild import cli

def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]

results = [run(argv) for argv in json.loads(sys.argv[1])]
before = "numpy" in sys.modules
run(["asym", "root"])
print(json.dumps([results, before, "numpy" in sys.modules]))
"""


def test_integer_commands_run_without_numpy():
    # count, enumerate, verify --suite sandwich and the Poisson report use no
    # array, so a fresh process serves them without importing numpy; asym
    # root then loads it
    goldens = [
        g for g in json.loads(GOLDENS.read_text())["commands"]
        if g["argv"][0] in ("count", "enumerate")
        or g["argv"] in (["verify", "--suite", "sandwich"],
                         ["dist", "--d", "2", "--n", "8", "--exploratory", "poisson"])
    ]
    assert len(goldens) == 10
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE,
         json.dumps([g["argv"] for g in goldens])],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    results, before, after = json.loads(proc.stdout)
    assert results == [[g["exit"], g["sha256"]] for g in goldens]
    assert not before
    assert after
