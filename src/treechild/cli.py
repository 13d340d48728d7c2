"""Command-line interface: counting, enumeration, verification, limits.

All behavior is flag-driven (no config files or environment variables) and
deterministic: identical invocations produce byte-identical output.  JSON
reports share the envelope {"command", "params", "result", "version"}, and
integers at or beyond 2^53 are emitted as decimal strings.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import asymptotics as asym
from . import distributions as dist
from . import exact
from . import networks as nw
from . import words
from .words import BudgetExceeded

_BIG = 2**53


def _jint(x: int):
    return str(x) if abs(x) >= _BIG else x


def _envelope(command: str, params: dict, result) -> str:
    return json.dumps(
        {
            "command": command,
            "params": params,
            "result": result,
            "version": __version__,
        }
    )


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    kind = args.kind
    if kind == "otc":
        if args.k is not None:
            value = exact.otc_count(args.d, args.n, args.k)
        else:
            value = exact.otc_total(args.d, args.n)
    elif kind == "tcmax":
        value = words.tc_max_count(args.d, args.n)
    elif kind == "c":
        value = words.c_count(args.d, args.n)
    elif kind == "b":
        if args.k is None:
            sys.stderr.write("count b requires --k (the suffix index m)\n")
            return 2
        value = words.b_table_int(args.d, args.n).b(args.n, args.k)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    _emit(str(value))
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    if args.what == "words":
        stream = list(words.enumerate_words(args.d, args.n, budget=args.budget))
        if args.format == "count":
            _emit(str(len(stream)))
        elif args.format == "json":
            _emit(
                _envelope(
                    "enumerate",
                    {"what": "words", "d": args.d, "n": args.n},
                    {"count": len(stream),
                     "words": [words.word_to_str(w, args.n) for w in stream]},
                )
            )
        else:
            for w in stream:
                _emit(words.word_to_str(w, args.n))
        return 0

    k = args.k if args.k is not None else 0
    if args.format == "count":
        count = nw.count_otc_networks if args.one_component else nw.count_tc_networks
        _emit(str(count(args.d, args.n, k, budget=args.budget)))
        return 0
    if args.one_component:
        nets = nw.enumerate_otc(args.d, args.n, k, budget=args.budget)
    else:
        nets = nw.enumerate_tc(args.d, args.n, k, budget=args.budget)
    # the enumerators return canonical forms, so the private writers
    # serialise them as they are
    if args.format == "dot":
        sys.stdout.write(
            "".join(nw._dot_text(net, f"net{i}") for i, net in enumerate(nets))
        )
    else:
        _emit(
            _envelope(
                "enumerate",
                {
                    "what": "networks",
                    "d": args.d,
                    "n": args.n,
                    "k": k,
                    "one_component": bool(args.one_component),
                },
                {
                    "count": len(nets),
                    "networks": [nw._json_payload(net) for net in nets],
                },
            )
        )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _tc_budget_rows(d: int) -> list[int]:
    return [2, 3, 4] if d in (2, 3) else [2, 3]


def _suite_tables(d: int, budget: int) -> tuple[bool, dict]:
    table = exact.appendix_table(d)
    entries = []
    ok = True
    for n in table.n_values:
        fixture = table[(n, n - 1)]
        got = words.tc_max_count(d, n)
        good = got == fixture
        ok &= good
        entries.append(
            {"check": "tcmax", "n": n, "got": _jint(got),
             "fixture": _jint(fixture), "ok": good}
        )
    for n in _tc_budget_rows(d):
        for k in range(n):
            fixture = table[(n, k)]
            got = nw.count_tc_networks(d, n, k, budget=budget)
            good = got == fixture
            ok &= good
            entries.append(
                {"check": "brute_force", "n": n, "k": k, "got": _jint(got),
                 "fixture": _jint(fixture), "ok": good}
            )
    return ok, {"d": d, "entries": entries}


def _suite_formulas(d: int, budget: int) -> tuple[bool, dict]:
    entries = []
    ok = True
    n_hi = 4 if d <= 3 else 3
    for n in range(1, n_hi + 1):
        for k in range(n):
            got = nw.count_otc_networks(d, n, k, budget=budget)
            want = exact.otc_count(d, n, k)
            good = got == want
            ok &= good
            entries.append(
                {"check": "otc_oracle", "n": n, "k": k, "got": _jint(got),
                 "formula": _jint(want), "ok": good}
            )
    for n in range(2, 40):
        for k in range(1, n):
            lhs = exact.otc_count(d, n, k) * k
            rhs = (
                n
                * exact.binomial(2 * n + (d - 2) * k - 2, d)
                * exact.otc_count(d, n - 1, k - 1)
            )
            if lhs != rhs:
                ok = False
                entries.append(
                    {"check": "step_recurrence", "n": n, "k": k, "ok": False}
                )
    entries.append({"check": "step_recurrence", "range": "n<40", "ok": ok})
    return ok, {"d": d, "entries": entries}


def _suite_words(d: int, budget: int) -> tuple[bool, dict]:
    entries = []
    ok = True
    n = 1
    while n * (d + 1) <= 14:
        stream = list(words.enumerate_words(d, n, budget=budget))
        want = words.c_count(d, n)
        good = len(stream) == want
        ok &= good
        entries.append(
            {"check": "word_count", "n": n, "got": len(stream),
             "recurrence": _jint(want), "ok": good}
        )
        table = words.b_table_int(d, n)
        partition: dict[int, int] = {}
        for w in stream:
            m = words.suffix_index(w, d)
            partition[m] = partition.get(m, 0) + 1
        good = all(partition.get(m, 0) == table.b(n, m) for m in range(1, n + 1))
        ok &= good
        entries.append({"check": "suffix_partition", "n": n, "ok": good})
        n += 1
    dual = words.b_table_int(d, 50).rows == words.b_table_rational(d, 50).rows
    ok &= dual
    entries.append({"check": "dual_recurrence", "n_max": 50, "ok": dual})
    return ok, {"d": d, "entries": entries}


def _suite_sandwich() -> tuple[bool, dict]:
    entries = []
    ok = True
    sqrt_e = math.sqrt(math.e)
    for d in exact.fixture_d_values():
        table = exact.appendix_table(d)
        for n in table.n_values:
            tc_max = table[(n, n - 1)]
            total = table.row_sum(n)
            good = tc_max <= total and total <= sqrt_e * tc_max
            ok &= good
            entries.append({"check": "sandwich", "d": d, "n": n, "ok": good})
            for k in range(n - 1):
                good = 2 * (n - k - 1) * table[(n, k)] <= table[(n, k + 1)]
                ok &= good
                if not good:
                    entries.append(
                        {"check": "step", "d": d, "n": n, "k": k, "ok": False}
                    )
            for k in range(n):
                bound, _ = exact.tc_upper_bound(d, n, k, tc_max)
                good = table[(n, k)] <= bound
                ok &= good
                if not good:
                    entries.append(
                        {"check": "upper_bound", "d": d, "n": n, "k": k, "ok": False}
                    )
    t1 = exact.appendix_table(2)
    for n in range(3, 9):
        good = 2 * t1[(n, n - 2)] == t1[(n, n - 1)]
        ok &= good
        entries.append({"check": "equality_at_nm2", "n": n, "ok": good})
    return ok, {"entries": entries}


def _suite_props(d: int, q: int | None) -> tuple[bool, dict]:
    if q is None:
        q = asym.default_q_coeff(d)
    sub = asym.check_subsolution(d, q_coeff=q)
    sup = asym.check_supersolution(d, q_coeff=q)
    ok = sub.n_threshold is not None and sup.n_threshold is not None
    return ok, {
        "d": d,
        "q_coeff": q,
        "subsolution": json.loads(sub.to_json()),
        "supersolution": json.loads(sup.to_json()),
    }


def _suite_asym(d: int) -> tuple[bool, dict]:
    entries = []
    root = asym.airy_root_a1()
    good = abs(root + 2.33810741) < 1e-6
    entries.append({"check": "airy_root", "value": root, "ok": good})
    ok = good
    if d in (2, 3):
        window = asym.theta_residual_window(d, 500, 2000)
        good = window["oscillation"] < 0.5
        ok &= good
        entries.append(
            {"check": "theta_residual", "oscillation": window["oscillation"],
             "ok": good}
        )
    if d == 2:
        ratios = [
            math.exp(exact.otc_total_log(2, n) - asym.otc_total_asymptotic(2, n))
            for n in (250, 500, 1000, 2000)
        ]
        good = all(
            abs(ratios[i + 1] - 1) < abs(ratios[i] - 1) for i in range(3)
        )
        entries.append({"check": "otc_total_trend", "ratios": ratios, "ok": good})
    else:
        ratio = math.exp(
            exact.otc_total_log(d, 500) - asym.otc_total_asymptotic(d, 500)
        )
        good = abs(ratio - 1) < 0.02
        entries.append({"check": "otc_total_ratio", "ratio": ratio, "ok": good})
    ok &= good
    return ok, {"d": d, "entries": entries}


def _cmd_verify(args) -> int:
    suite = args.suite
    d = args.d if args.d is not None else 2
    if suite == "tables":
        ok, report = _suite_tables(d, args.budget)
    elif suite == "formulas":
        ok, report = _suite_formulas(d, args.budget)
    elif suite == "words":
        ok, report = _suite_words(d, args.budget)
    elif suite == "sandwich":
        ok, report = _suite_sandwich()
    elif suite == "props":
        ok, report = _suite_props(d, args.q)
    elif suite == "asym":
        ok, report = _suite_asym(d)
    else:  # pragma: no cover
        return 2
    report["suite"] = suite
    report["pass"] = ok
    _emit(_envelope("verify", {"suite": suite, "d": d}, report))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    params = {"d": args.d, "n": args.n}
    if args.exploratory:
        if args.d != 2:
            sys.stderr.write(f"--exploratory {args.exploratory} requires --d 2\n")
            return 2
        if args.exploratory == "poisson":
            table = exact.appendix_table(2)
            n = args.n if args.n is not None and args.n in table.n_values else None
            report = dist.conjecture_poisson_report(table, n)
        else:  # words conjecture
            n = args.n if args.n is not None else 4
            if n < 1:
                sys.stderr.write("--exploratory words requires --n >= 1\n")
                return 2
            rows = []
            table = exact.appendix_table(2)
            for k in range(n):
                v = words.cnk_words_count(n - 1, k, budget=args.budget)
                predicted = math.factorial(n) // math.factorial(n - k) * v
                rows.append(
                    {
                        "k": k,
                        "word_count": _jint(v),
                        "predicted_tc": _jint(predicted),
                        "fixture_tc": _jint(table[(n, k)])
                        if (n, k) in table
                        else None,
                    }
                )
            report = {"n": n, "comparison": rows}
        _emit(_envelope("dist", {**params, "exploratory": args.exploratory}, report))
        return 0

    if args.n is None:
        sys.stderr.write("dist requires --n unless --exploratory is given\n")
        return 2
    if args.limit is None:
        pmf = dist.r_pmf(args.d, args.n)
        if args.format == "csv":
            sys.stdout.write(pmf.to_csv())
        else:
            _emit(
                _envelope(
                    "dist", params,
                    {"log_probs": list(map(float, pmf.log_probs))},
                )
            )
        return 0

    if args.limit == "bessel":
        if args.d != 3:
            sys.stderr.write("--limit bessel requires --d 3\n")
            return 2
        result = {"n": args.n, "d": args.d, "tv": dist.bessel_limit_check(args.n)}
    elif args.limit == "normal":
        if args.d != 2:
            sys.stderr.write("--limit normal requires --d 2\n")
            return 2
        moments, sup = dist.normal_limit_check(args.n)
        result = {
            "n": args.n,
            "d": args.d,
            "mean": moments.mean,
            "variance": moments.variance,
            "third_abs": moments.third_abs,
            "sup_cdf_distance": sup,
        }
    else:  # degenerate
        if args.d < 4:
            sys.stderr.write("--limit degenerate requires --d >= 4\n")
            return 2
        result = {"n": args.n, "d": args.d,
                  "p_max": dist.degenerate_check(args.d, args.n)}
    _emit(_envelope("dist", {**params, "limit": args.limit}, result))
    return 0


# ---------------------------------------------------------------------------
# asym
# ---------------------------------------------------------------------------

def _cmd_asym(args) -> int:
    if args.what == "root":
        _emit(_envelope("asym", {"what": "root"}, {"a1": asym.airy_root_a1()}))
        return 0
    if args.what == "fit":
        fit = asym.fit_e_diagonal(args.d, args.n_max)
        _emit(
            _envelope(
                "asym",
                {"what": "fit", "d": args.d, "n_max": args.n_max},
                json.loads(fit.to_json()),
            )
        )
        return 0
    lo, hi = args.window
    window = asym.theta_residual_window(args.d, lo, hi)
    _emit(
        _envelope(
            "asym",
            {"what": "residual", "d": args.d, "window": [lo, hi]},
            {
                "oscillation": window["oscillation"],
                "dyadic_differences": [float(x) for x in window["dyadic_differences"]],
            },
        )
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treechild",
        description="Exact and asymptotic enumeration of d-combining "
        "tree-child networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact counts")
    p.add_argument("kind", choices=["otc", "tcmax", "c", "b"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="exhaustive enumeration")
    p.add_argument("what", choices=["networks", "words"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--one-component", action="store_true")
    p.add_argument("--format", choices=["plain", "count", "json", "dot"],
                   default="plain")
    p.add_argument("--budget", type=int, default=nw.DEFAULT_NETWORK_BUDGET)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="invariant suites")
    p.add_argument("--suite", required=True,
                   choices=["tables", "formulas", "words", "sandwich",
                            "props", "asym"])
    p.add_argument("--d", type=int)
    p.add_argument("--q", type=int, help="prefactor coefficient for props")
    p.add_argument("--budget", type=int, default=nw.DEFAULT_NETWORK_BUDGET)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dist", help="reticulation-count distributions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--limit", choices=["bessel", "normal", "degenerate"])
    p.add_argument("--exploratory", choices=["poisson", "words"])
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--budget", type=int, default=words.DEFAULT_WORD_BUDGET)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("asym", help="asymptotic formulas and fits")
    p.add_argument("what", choices=["root", "fit", "residual"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n-max", type=int, default=5000)
    p.add_argument("--window", type=int, nargs=2, default=[500, 2000])
    p.set_defaults(func=_cmd_asym)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
