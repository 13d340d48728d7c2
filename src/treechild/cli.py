"""Command-line interface: counting, enumeration, verification, limits.

All behavior is flag-driven (no config files or environment variables) and
deterministic: identical invocations produce byte-identical output.  JSON
reports share the envelope {"command", "params", "result", "version"}, and
integers at or beyond 2^53 are emitted as decimal strings.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded.  Numeric modules are imported in the handler that uses them, so
count, enumerate, dist --exploratory and every verify suite but props and
asym load no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import exact
from . import networks as nw
from . import words
from .words import BudgetExceeded

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
        for flag, given in (("--k", args.k is not None),
                            ("--one-component", args.one_component),
                            ("--format dot", args.format == "dot")):
            if given:
                sys.stderr.write(f"enumerate words does not take {flag}\n")
                return 2
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
    # the search has finished, so nothing below can exceed the budget; the
    # enumerators return canonical forms, and each is serialised as it is
    # read, one network at a time
    out = sys.stdout
    if args.format == "dot":
        for i, net in enumerate(nets):
            out.write(nw._dot_text(net, f"net{i}"))
        return 0
    params = {"what": "networks", "d": args.d, "n": args.n, "k": k,
              "one_component": bool(args.one_component)}
    # the envelope of an empty list, split around that list
    head, tail = _envelope(
        "enumerate", params, {"count": len(nets), "networks": []}
    ).split('"networks": []')
    out.write(head + '"networks": [')
    for i, net in enumerate(nets):
        if i:
            out.write(", ")
        out.write(json.dumps(nw._json_payload(net)))
    out.write("]" + tail + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite(head: dict, *parts: tuple[bool, list]) -> tuple[bool, dict]:
    """A suite report: head, then the entries of every (ok, entries) part."""
    entries = [e for _, part in parts for e in part]
    return all(ok for ok, _ in parts), {**head, "entries": entries}


def _suite_asym(d: int) -> tuple[bool, dict]:
    from . import criteria
    ok, root = criteria.airy_root()
    parts = [(ok, [{"check": "airy_root", "value": root["value"], "ok": ok}])]
    if d in (2, 3):
        ok, theta = criteria.theta(d)
        parts.append((ok, [{"check": "theta_residual",
                            "oscillation": theta["oscillation"], "ok": ok}]))
    return _suite({"d": d}, *parts, criteria.otc_total(d))


def _cmd_verify(args) -> int:
    from . import criteria
    suite = args.suite
    d = args.d if args.d is not None else 2
    if suite == "tables":
        ok, report = _suite({"d": d}, criteria.tcmax_rows(d),
                            criteria.tc_oracle(d, args.budget))
    elif suite == "formulas":
        ok, report = _suite({"d": d}, criteria.otc_formula(d, args.budget))
    elif suite == "words":
        ok, report = _suite({"d": d}, criteria.word_oracle(d, args.budget),
                            criteria.dual_recurrence(d))
    elif suite == "sandwich":
        if args.d is not None:
            raise ValueError("the sandwich suite checks every reference table "
                             "and takes no --d")
        ok, report = _suite({}, criteria.sandwich())
    elif suite == "props":
        from . import asymptotics as asym
        q = asym.resolved_q_coeff(d) if args.q is None else args.q
        ok, report = criteria.proposition_sweeps(d, q)
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
    from . import criteria
    from . import distributions as dist
    csv = args.format == "csv"
    for mode, flag, given in (
            ("--exploratory", "--limit", args.exploratory and args.limit),
            ("--exploratory", "--format csv", args.exploratory and csv),
            ("--limit", "--format csv", args.limit and csv),
            ("without --exploratory words", "--budget",
             args.budget is not None and args.exploratory != "words")):
        if given:
            sys.stderr.write(f"dist {mode} does not take {flag}\n")
            return 2
    params = {"d": args.d, "n": args.n}
    if args.exploratory:
        if args.d != 2:
            sys.stderr.write(f"--exploratory {args.exploratory} requires --d 2\n")
            return 2
        if args.exploratory == "poisson":
            table = exact.appendix_table(2)
            rows = table.n_values
            if args.n is not None and args.n not in rows:
                sys.stderr.write(f"--exploratory poisson takes --n in the reference "
                                 f"rows {rows[0]}..{rows[-1]}, got {args.n}\n")
                return 2
            report = dist.conjecture_poisson_report(table, args.n)
        else:  # words conjecture
            n = args.n if args.n is not None else 4
            if n < 1:
                sys.stderr.write("--exploratory words requires --n >= 1\n")
                return 2
            budget = words.DEFAULT_WORD_BUDGET if args.budget is None else args.budget
            report = dist.conjecture_words_report(
                exact.appendix_table(2), n, budget=budget)
            for row in report["comparison"]:
                for key in ("word_count", "predicted_tc", "fixture_tc"):
                    if row[key] is not None:
                        row[key] = criteria.json_int(row[key])
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
    from . import asymptotics as asym
    if args.what == "root":
        _emit(_envelope("asym", {"what": "root"}, {"a1": asym.airy_root_a1()}))
        return 0
    if args.what == "fit":
        fit = asym.fit_e_diagonal(args.d, args.n_max)
        _emit(
            _envelope(
                "asym",
                {"what": "fit", "d": args.d, "n_max": args.n_max},
                fit.to_dict(),
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
    p.add_argument("--q", type=int,
                   help="prefactor coefficient for props (default "
                   "3d^2+12d-11, which balances the 1/n terms of both sweeps)")
    p.add_argument("--budget", type=int, default=nw.DEFAULT_NETWORK_BUDGET)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dist", help="reticulation-count distributions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--limit", choices=["bessel", "normal", "degenerate"])
    p.add_argument("--exploratory", choices=["poisson", "words"])
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--budget", type=int,
                   help="word budget of --exploratory words (default "
                   f"{words.DEFAULT_WORD_BUDGET})")
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
    except MemoryError as exc:
        # a size the machine cannot hold is bad input, not a failed check
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
