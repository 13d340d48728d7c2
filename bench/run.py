#!/usr/bin/env python3
"""Benchmark harness for treechild.

Runs one named workload through the package's public functions, checks
every output, and prints one JSON result object as the last line of
stdout:

    python3 bench/run.py --workload tc_oracle --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, cpu_s,
setup_s, peak_rss_mb).  With ``--trace 1`` the run makes traced passes
and then untraced ones, and the metrics are the per-layer ones.  Every run
also writes a results file under ``bench/results/`` with the machine
facts, the seed, every pass and every failed check.  See bench/README.md.

The package is imported from ``src/`` of the checkout that holds this
file; without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "readme_cli_goldens.json"
RESULTS = BENCH / "results"

WORKLOADS = ("tc_oracle", "otc_oracle", "analytic", "readme_cli")
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 150

# Filled by load_package(); the harness imports nothing from treechild at
# module level so that a checkout without src/ fails cleanly.
tc = None


def load_package() -> None:
    global tc
    if not (SRC / "treechild" / "__init__.py").is_file():
        raise SystemExit(f"treechild sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import treechild
    import treechild.cli  # noqa: F401  (binds treechild.cli)

    if Path(treechild.__file__).resolve().parent != SRC / "treechild":
        raise SystemExit(f"imported treechild from {treechild.__file__}, not {SRC}")
    tc = treechild


# ---------------------------------------------------------------------------
# Checks: one unit of work plus its correctness test.
# ---------------------------------------------------------------------------

@dataclass
class Check:
    label: str
    run: Callable[["Tracer | None"], bool]


def tc_check(d: int, n: int, k: int, expected: int) -> Check:
    return Check(
        f"tc d={d} n={n} k={k}",
        lambda tracer: tc.networks.count_tc_networks(d, n, k) == expected,
    )


def otc_check(d: int, n: int, k: int, expected: int) -> Check:
    return Check(
        f"otc d={d} n={n} k={k}",
        lambda tracer: tc.networks.count_otc_networks(d, n, k) == expected,
    )


def tc_oracle_checks() -> list[Check]:
    """Criterion-2 cells that span both regimes of the general search."""
    cells = (
        [(2, 4, k) for k in range(4)]
        + [(3, 4, k) for k in range(3)]
        + [(4, 3, k) for k in range(3)]
        + [(5, 3, 2)]
    )
    return [
        tc_check(d, n, k, tc.exact.appendix_table(d)[(n, k)]) for d, n, k in cells
    ]


def otc_oracle_checks() -> list[Check]:
    """Criterion-3 cells, large enough that the fork pool starts."""
    cells = [
        (d, n, k)
        for d, n_hi in ((2, 5), (3, 4), (4, 4), (5, 3))
        for n in range(1, n_hi + 1)
        for k in range(n)
    ] + [(3, 5, 2), (5, 4, 2)]
    return [otc_check(d, n, k, tc.exact.otc_count(d, n, k)) for d, n, k in cells]


def _crit01() -> bool:
    ex, words = tc.exact, tc.words
    return all(
        words.tc_max_count(d, n) == ex.appendix_table(d)[(n, n - 1)]
        for d in ex.fixture_d_values()
        for n in ex.appendix_table(d).n_values
    )


def _crit04(d: int, n: int) -> bool:
    words = tc.words
    stream = list(words.enumerate_words(d, n))
    if len(stream) != words.c_count(d, n):
        return False
    table = words.b_table_int(d, n)
    parts: dict[int, int] = {}
    for w in stream:
        m = words.suffix_index(w, d)
        parts[m] = parts.get(m, 0) + 1
    return all(parts.get(m, 0) == table.b(n, m) for m in range(1, n + 1))


def _crit05(d: int) -> bool:
    words = tc.words
    return words.b_table_int(d, 50).rows == words.b_table_rational(d, 50).rows


def _crit06(d: int) -> bool:
    ex = tc.exact
    table = ex.appendix_table(d)
    ok = True
    for n in table.n_values:
        tc_max = table[(n, n - 1)]
        total = table.row_sum(n)
        ok &= tc_max <= total <= math.sqrt(math.e) * tc_max
        for k in range(n - 1):
            ok &= 2 * (n - k - 1) * table[(n, k)] <= table[(n, k + 1)]
        for k in range(n):
            ok &= table[(n, k)] <= ex.tc_upper_bound(d, n, k, tc_max)[0]
    if d == 2:
        ok &= all(2 * table[(n, n - 2)] == table[(n, n - 1)] for n in range(3, 9))
    return ok


def _crit07() -> bool:
    asym = tc.asymptotics
    root = asym.airy_root_a1()
    return abs(root + 2.33810741) < 1e-6 and abs(asym.airy_ai(root)) < 1e-8


def _crit08_bessel() -> bool:
    tvs = [tc.distributions.bessel_limit_check(n) for n in (100, 1000, 10000)]
    return tvs[2] < 0.01 and tvs[0] > tvs[1] > tvs[2]


def _crit08_normal() -> bool:
    moments, sup = tc.distributions.normal_limit_check(2000)
    return sup < 0.05 and abs(moments.mean) < 0.1 and 0.8 < moments.variance < 1.2


def _crit08_degenerate() -> bool:
    return tc.distributions.degenerate_check(4, 100) >= 0.99


def _crit09() -> bool:
    ex, asym = tc.exact, tc.asymptotics

    def ratio(d: int, n: int) -> float:
        return math.exp(ex.otc_total_log(d, n) - asym.otc_total_asymptotic(d, n))

    gaps = [abs(ratio(2, n) - 1) for n in (250, 500, 1000, 2000)]
    return all(abs(ratio(d, 500) - 1) < 0.02 for d in (3, 4)) and all(
        b < a for a, b in zip(gaps, gaps[1:])
    )


def _crit10_theta(d: int) -> bool:
    asym = tc.asymptotics
    log_c = tc.words.c_log_sequence(d, 1999)
    window = asym.theta_residual_window(d, 500, 2000, log_c=log_c)
    dyadic = window["dyadic_differences"]
    flipped = asym.theta_residual_window(d, 500, 2000, a1=+2.33810741, log_c=log_c)
    return (
        window["oscillation"] < 0.5
        and dyadic[1] < dyadic[0]
        and flipped["oscillation"] > 5
    )


def _crit10_fit(d: int) -> bool:
    return tc.asymptotics.fit_e_diagonal(d, 5000).rel_err < 0.10


def _crit11() -> bool:
    table = tc.exact.appendix_table(2)
    for k in (1, 2):
        ratios = [
            table[(n, k)]
            / math.exp(tc.asymptotics.fixed_k_asymptotic(2, n, k))
            for n in range(4, 9)
        ]
        if not all(b > a for a, b in zip(ratios, ratios[1:])):
            return False
    return True


def _crit12_d2() -> bool:
    asym = tc.asymptotics
    q = asym.resolved_q_coeff(2)
    asym.check_supersolution(2, q_coeff=13)  # reported, violated by design
    return (
        asym.check_subsolution(2, q_coeff=13).n_threshold is not None
        and asym.check_subsolution(2, q_coeff=q).n_threshold is not None
        and asym.check_supersolution(2, q_coeff=q).n_threshold is not None
    )


def _crit12_report(d: int) -> bool:
    asym = tc.asymptotics
    return all(
        asym.check_subsolution(d, q_coeff=q).samples > 0
        and asym.check_supersolution(d, q_coeff=q).samples > 0
        for q in (
            asym.default_q_coeff(d),
            asym.candidate_q_coeff(d),
            asym.resolved_q_coeff(d),
        )
    )


def _fixed(fn: Callable[..., bool], *args) -> Callable[["Tracer | None"], bool]:
    return lambda tracer: fn(*args)


def analytic_checks() -> list[Check]:
    """Acceptance criteria 1 and 4-12 at their acceptance sizes."""
    word_pairs = [
        (d, n) for d in range(2, 14) for n in range(1, 15) if n * (d + 1) <= 14
    ]
    return (
        [Check("crit01 tc_max", _fixed(_crit01))]
        + [Check(f"crit04 words d={d} n={n}", _fixed(_crit04, d, n))
           for d, n in word_pairs]
        + [Check(f"crit05 dual d={d}", _fixed(_crit05, d)) for d in range(2, 7)]
        + [Check(f"crit06 sandwich d={d}", _fixed(_crit06, d))
           for d in tc.exact.fixture_d_values()]
        + [
            Check("crit07 airy root", _fixed(_crit07)),
            Check("crit08 bessel", _fixed(_crit08_bessel)),
            Check("crit08 normal", _fixed(_crit08_normal)),
            Check("crit08 degenerate", _fixed(_crit08_degenerate)),
            Check("crit09 otc total", _fixed(_crit09)),
            Check("crit11 fixed k", _fixed(_crit11)),
            Check("crit12 sweeps d=2", _fixed(_crit12_d2)),
        ]
        + [Check(f"crit10 theta d={d}", _fixed(_crit10_theta, d)) for d in (2, 3)]
        + [Check(f"crit10 fit d={d}", _fixed(_crit10_fit, d)) for d in (2, 3)]
        + [Check(f"crit12 report d={d}", _fixed(_crit12_report, d))
           for d in range(3, 7)]
    )


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def cli_check(argv: list[str], golden: dict, env: dict[str, str]) -> Check:
    """One README invocation; its exit code and stdout bytes must match."""

    def run(tracer: "Tracer | None") -> bool:
        if tracer is None:
            proc = subprocess.run(
                [sys.executable, "-m", "treechild.cli", *argv],
                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
            )
            code, out = proc.returncode, proc.stdout
        else:
            buf = io.StringIO()
            with redirect_stdout(buf), tracer.span("cli.command"):
                code = tc.cli.main(list(argv))
            out = buf.getvalue().encode()
            tracer.counts["cli.stdout_bytes"] += len(out)
        return (
            code == golden["exit"]
            and len(out) == golden["bytes"]
            and hashlib.sha256(out).hexdigest() == golden["sha256"]
        )

    return Check("cli " + " ".join(argv), run)


def readme_cli_checks() -> list[Check]:
    """The README invocations plus two materialising exports."""
    env = cli_env()
    goldens = json.loads(GOLDENS.read_text())
    return [cli_check(g["argv"], g, env) for g in goldens["commands"]]


CHECKS = {
    "tc_oracle": tc_oracle_checks,
    "otc_oracle": otc_oracle_checks,
    "analytic": analytic_checks,
    "readme_cli": readme_cli_checks,
}


def make_inputs(workload: str, seed: int) -> list[Check]:
    """The workload's checks; the seed only permutes their order."""
    checks = CHECKS[workload]()
    random.Random(seed).shuffle(checks)
    return checks


def warm_caches() -> None:
    """Lazy caches a first call would otherwise fill inside the timed pass."""
    tc.asymptotics.params(2)  # caches the Airy root
    for d in tc.exact.fixture_d_values():
        tc.exact.appendix_table(d)


# ---------------------------------------------------------------------------
# Tracing: spans recorded by rebinding package functions.
# ---------------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _dp_cells(n_max: int) -> int:
    """Cells of rows 2..n_max of a triangular DP (row n has n cells)."""
    return n_max * (n_max + 1) // 2 - 1


# (module, function, span, [(counter, work(args, kwargs, result))])
TRACED = [
    ("networks", "count_tc_networks", "networks.count_tc",
     [("networks.tc.unique", lambda a, kw, r: r)]),
    ("networks", "_tc_search", "networks.tc_search", []),
    ("networks", "canonical_key", "networks.canonical_key", []),
    ("networks", "count_otc_networks", "networks.count_otc",
     [("networks.count_otc.networks", lambda a, kw, r: r)]),
    ("networks", "enumerate_tc", "networks.enumerate",
     [("networks.enumerate.networks", lambda a, kw, r: len(r)),
      ("networks.tc.unique", lambda a, kw, r: len(r))]),
    ("networks", "enumerate_otc", "networks.enumerate",
     [("networks.enumerate.networks", lambda a, kw, r: len(r))]),
    ("networks", "to_json", "networks.export",
     [("networks.export.bytes", lambda a, kw, r: len(r))]),
    ("networks", "to_dot", "networks.export",
     [("networks.export.bytes", lambda a, kw, r: len(r))]),
    ("words", "c_log_sequence", "words.c_log_sequence",
     [("words.c_log_sequence.cells",
       lambda a, kw, r: _dp_cells(_arg(a, kw, 1, "n_max")))]),
    ("words", "b_table_int", "words.b_table",
     [("words.b_table.cells", lambda a, kw, r: _dp_cells(_arg(a, kw, 1, "n_max")))]),
    ("words", "b_table_rational", "words.b_table",
     [("words.b_table.cells", lambda a, kw, r: _dp_cells(_arg(a, kw, 1, "n_max")))]),
    ("asymptotics", "e_sequence", "asymptotics.e_sequence",
     [("asymptotics.e_sequence.rows", lambda a, kw, r: _arg(a, kw, 1, "n_max") - 2)]),
    ("asymptotics", "theta_residual_window", "asymptotics.theta_residual", []),
    ("asymptotics", "_prop_sweep", "asymptotics.prop_sweep",
     [("asymptotics.prop_sweep.samples", lambda a, kw, r: r.samples)]),
    ("asymptotics", "airy_root_a1", "asymptotics.airy_root", []),
    ("distributions", "bessel_limit_check", "distributions.limit_check", []),
    ("distributions", "normal_limit_check", "distributions.limit_check", []),
    ("distributions", "degenerate_check", "distributions.limit_check", []),
    ("exact", "otc_count", "exact.closed_form", []),
    ("exact", "otc_count_log", "exact.closed_form", []),
    ("exact", "otc_total", "exact.closed_form", []),
    ("exact", "otc_total_log", "exact.closed_form", []),
]
# enumerate_words returns a generator: its span covers each next() call.
TRACED_GENERATORS = [
    ("words", "enumerate_words", "words.enumerate_words", "words.enumerate_words.words"),
]
CPU_SPANS = {"networks.count_otc"}

PER_LAYER = [
    ("networks.count_tc.s", "s"),
    ("networks.canonical_key.s", "s"),
    ("networks.canonical_key.calls", "count"),
    ("networks.tc_search.self_s", "s"),
    ("networks.tc.unique_per_emitted", "ratio"),
    ("networks.count_otc.s", "s"),
    ("networks.count_otc.cpu_s", "s"),
    ("networks.count_otc.networks", "count"),
    ("networks.enumerate.s", "s"),
    ("networks.enumerate.networks", "count"),
    ("networks.export.s", "s"),
    ("networks.export.bytes", "bytes"),
    ("words.c_log_sequence.s", "s"),
    ("words.c_log_sequence.cells", "count"),
    ("words.b_table.s", "s"),
    ("words.b_table.cells", "count"),
    ("words.enumerate_words.s", "s"),
    ("words.enumerate_words.words", "count"),
    ("asymptotics.e_sequence.s", "s"),
    ("asymptotics.e_sequence.rows", "count"),
    ("asymptotics.theta_residual.s", "s"),
    ("asymptotics.prop_sweep.s", "s"),
    ("asymptotics.prop_sweep.samples", "count"),
    ("asymptotics.airy_root.s", "s"),
    ("distributions.limit_check.s", "s"),
    ("distributions.limit_check.calls", "count"),
    ("exact.closed_form.s", "s"),
    ("exact.closed_form.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.command.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
]
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _Span:
    __slots__ = ("tracer", "name", "t0", "cpu0", "child")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> "_Span":
        self.child = 0.0
        self.cpu0 = cpu_seconds() if self.name in CPU_SPANS else 0.0
        self.tracer.stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self.t0
        tr = self.tracer
        tr.stack.pop()
        tr.self_s[self.name] = tr.self_s.get(self.name, 0.0) + dt - self.child
        if tr.stack:
            tr.stack[-1].child += dt
        # a layer's time and calls count only its outermost spans
        if all(s.name != self.name for s in tr.stack):
            tr.total_s[self.name] = tr.total_s.get(self.name, 0.0) + dt
            tr.counts[self.name + ".calls"] += 1
            if self.name in CPU_SPANS:
                tr.cpu_s[self.name] = (
                    tr.cpu_s.get(self.name, 0.0) + cpu_seconds() - self.cpu0
                )


class Tracer:
    """In-memory spans and work counters, keyed by layer."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.cpu_s: dict[str, float] = {}
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _wrap(self, fn, name, work):
        # a key computed inside the search is one emitted network
        count_emitted = name == "networks.canonical_key"

        def traced(*args, **kwargs):
            if count_emitted and self.stack and (
                self.stack[-1].name == "networks.tc_search"
            ):
                self.counts["networks.tc.emitted"] += 1
            with _Span(self, name):
                result = fn(*args, **kwargs)
            for counter, measure in work:
                self.counts[counter] += measure(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, counter):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                while True:
                    with _Span(self, name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    self.counts[counter] += 1
                    yield item

            return stream()

        return traced

    def _rebind(self, module_name: str, fn_name: str, make) -> None:
        """Replace the function at every package attribute bound to it."""
        original = getattr(getattr(tc, module_name), fn_name)
        wrapper = make(original)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module_name, fn_name, name, work in TRACED:
            self._rebind(module_name, fn_name,
                         lambda f, n=name, w=work: self._wrap(f, n, w))
        for module_name, fn_name, name, counter in TRACED_GENERATORS:
            self._rebind(module_name, fn_name,
                         lambda f, n=name, c=counter: self._wrap_generator(f, n, c))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values, except those taken outside the traced pass."""
        out: dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".cpu_s"):
                out[name] = self.cpu_s.get(name[: -len(".cpu_s")], 0.0)
            elif name.endswith(".s"):
                out[name] = self.total_s.get(name[: -len(".s")], 0.0)
            elif unit in ("count", "bytes"):
                out[name] = self.counts[name]
        emitted = self.counts["networks.tc.emitted"]
        out["networks.tc.unique_per_emitted"] = (
            self.counts["networks.tc.unique"] / emitted if emitted else 0.0
        )
        return out


def _package_modules() -> list:
    return [tc, tc.exact, tc.words, tc.networks, tc.asymptotics,
            tc.distributions, tc.cli]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def run_pass(checks: list[Check], tracer: Tracer | None) -> dict:
    failed = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for check in checks:
        try:
            ok = check.run(tracer)
            detail = "wrong result"
        except Exception as exc:  # a failed check must not stop the run
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        if not ok:
            failed.append({"check": check.label, "detail": detail})
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": cpu_seconds() - cpu0,
        "attempted": len(checks),
        "failed": failed,
    }


def run_passes(checks: list[Check], seconds: float, tracer: Tracer | None) -> list[dict]:
    """Whole passes while the next one is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            passes.append(run_pass(checks, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def measure_setup(workload: str, seed: int, repeats: int) -> list[dict]:
    """Fresh interpreters run import, cache warm-up and input generation."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        samples.append({"setup_s": wall, "import_s": probe["import_s"]})
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine_facts() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    checks: list[Check] | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload; returns the full record (see bench/README.md).

    `checks` replaces the workload's own inputs (used by the tests).
    """
    facts = machine_facts()
    setup = measure_setup(workload, seed, setup_repeats)
    warm_caches()
    if checks is None:
        checks = make_inputs(workload, seed)
    traced_passes: list[dict] = []
    if trace:
        # The traced passes run first, so any first-pass warm-up is charged
        # to tracing: trace.overhead_frac can overstate the cost, not hide it.
        tracer = Tracer()
        traced_passes = run_passes(checks, seconds, tracer)
    passes = run_passes(checks, seconds, None)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    all_passes = traced_passes + passes
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(len(p["failed"]) for p in all_passes)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": facts,
        "order": [c.label for c in checks],
        "setup": setup,
        "passes": passes,
        "traced_passes": traced_passes,
        "metrics": metrics,
        "fail_frac": failed / attempted,
    }
    if trace:
        # per-layer values are per traced pass
        count = len(traced_passes)
        traced_wall = statistics.mean(p["wall_s"] for p in traced_passes)
        layers = {k: v / count for k, v in tracer.layer_metrics().items()}
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
        layers["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        layers["fail_frac"] = record["fail_frac"]
        record["layers"] = layers
        record["traced_wall_s"] = traced_wall
        record["self_s"] = {k: v / count for k, v in sorted(tracer.self_s.items())}
        shown = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        shown = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        load_package()
    except SystemExit as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    if args.setup_probe:
        import_s = time.perf_counter() - t0
        warm_caches()
        make_inputs(args.workload, args.seed)
        print(json.dumps({"import_s": import_s}))
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (
        f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
    )
    out.write_text(json.dumps(record, indent=1) + "\n")
    sys.stderr.write(f"bench: results in {out.relative_to(ROOT)}\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
