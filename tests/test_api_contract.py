"""Every public size parameter is checked at the API boundary, the same way.

The public module-level functions of the library modules and the public
methods of their public classes are found by an ast walk over their
sources, and each parameter named like a size (d, n, k, ...) must appear in
CONTRACT or EXEMPT below, so a new public function that takes a size fails
here until it is listed.  In every listed slot a float, a bool and a string
are refused with a ValueError that names the parameter, a value one below
the slot's lower bound is refused too, and a numpy integer gives the same
result, of the same types, as the Python int.
"""

import ast
import dataclasses
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from treechild import asymptotics, criteria, distributions, exact, networks, words

MODULES = {
    "exact": exact,
    "words": words,
    "networks": networks,
    "asymptotics": asymptotics,
    "distributions": distributions,
    "criteria": criteria,
}
SIZE_NAMES = {
    "d", "n", "k", "i", "j", "m", "n_max", "keep_m", "j_max", "lo", "hi", "budget",
    "q_coeff",
}


def _table2():
    return exact.appendix_table(2)


def _e_rows():
    return asymptotics.e_sequence(2, 60, keep_m=30)


def _b_rows():
    return words.b_table_int(2, 4)


def _r_law():
    return distributions.r_pmf(3, 5)


# function -> (valid keyword arguments, {size slot: lower bound or None}).
# A callable value is built afresh for each call; a method gets its
# instance as the keyword self.  None means the slot has no lower bound of
# its own: otc_count's k returns 0 outside 0..n-1 by design, as do
# BTable.b and Pmf.prob outside their range.  Bounds checked as a relation
# to another argument (k <= n - 1, 2 <= lo < hi, a row of the table) are
# given for the base arguments.
CONTRACT = {
    "exact.double_factorial_odd": ({"m": 5}, {"m": -1}),
    "exact.otc_count": ({"d": 3, "n": 4, "k": 2}, {"d": 2, "n": 1, "k": None}),
    "exact.otc_count_log": ({"d": 3, "n": 4, "k": 2}, {"d": 2, "n": 1, "k": 0}),
    "exact.otc_total": ({"d": 3, "n": 4}, {"d": 2, "n": 1}),
    "exact.otc_total_log": ({"d": 3, "n": 4}, {"d": 2, "n": 1}),
    "exact.node_counts": ({"d": 3, "n": 4, "k": 2}, {"d": 2, "n": 1, "k": 0}),
    "exact.tc_upper_bound": (
        {"d": 2, "n": 4, "k": 2, "tc_max": 2544}, {"d": 2, "n": 1, "k": 0},
    ),
    "exact.appendix_table": ({"d": 2}, {"d": 2}),
    "words.first_violation": ({"w": (1, 2, 1, 2, 1, 2), "d": 2}, {"d": 2}),
    "words.is_member": ({"w": (1, 1, 2, 1, 2, 2), "d": 2}, {"d": 2}),
    "words.suffix_index": ({"w": (1, 1, 2, 1, 2, 2), "d": 2}, {"d": 2}),
    "words.enumerate_words": (
        {"d": 2, "n": 2, "budget": 1000}, {"d": 2, "n": 1, "budget": 0},
    ),
    "words.b_table_int": ({"d": 2, "n_max": 4}, {"d": 2, "n_max": 1}),
    "words.b_table_rational": ({"d": 2, "n_max": 4}, {"d": 2, "n_max": 1}),
    "words.c_count": ({"d": 2, "n": 4}, {"d": 2, "n": 1}),
    "words.tc_max_count": ({"d": 2, "n": 5}, {"d": 2, "n": 2}),
    "words.bnn_identity_check": ({"d": 2, "n": 4}, {"d": 2, "n": 2}),
    "words.c_log_sequence": ({"d": 2, "n_max": 6}, {"d": 2, "n_max": 1}),
    "words.tc_max_count_log": ({"d": 2, "n": 6}, {"d": 2, "n": 2}),
    "words.cnk_words_count": (
        {"n": 3, "k": 1, "budget": 1000}, {"n": 1, "k": 0, "budget": 0},
    ),
    "networks.count_otc_networks": (
        {"d": 2, "n": 3, "k": 1, "budget": 1000},
        {"d": 2, "n": 1, "k": 0, "budget": 0},
    ),
    "networks.enumerate_otc": (
        {"d": 2, "n": 3, "k": 1, "budget": 1000},
        {"d": 2, "n": 1, "k": 0, "budget": 0},
    ),
    "networks.enumerate_tc": (
        {"d": 2, "n": 3, "k": 1, "budget": 1000},
        {"d": 2, "n": 1, "k": 0, "budget": 0},
    ),
    "networks.count_tc_networks": (
        {"d": 2, "n": 3, "k": 1, "budget": 1000},
        {"d": 2, "n": 1, "k": 0, "budget": 0},
    ),
    "asymptotics.params": ({"d": 3}, {"d": 2}),
    "asymptotics.e_sequence": (
        {"d": 2, "n_max": 12, "keep_m": 4}, {"d": 2, "n_max": 3, "keep_m": 0},
    ),
    "asymptotics.theta_tc_max": ({"d": 2, "n": 10}, {"d": 2, "n": 1}),
    "asymptotics.fixed_k_asymptotic": (
        {"d": 2, "n": 10, "k": 1}, {"d": 2, "n": 1, "k": 0},
    ),
    "asymptotics.otc_total_asymptotic": ({"d": 3, "n": 10}, {"d": 2, "n": 1}),
    "asymptotics.fit_e_diagonal": ({"d": 2, "j_max": 60}, {"d": 2, "j_max": 50}),
    "asymptotics.theta_residual_window": (
        {"d": 2, "lo": 10, "hi": 20}, {"d": 2, "lo": 2, "hi": 11},
    ),
    "asymptotics.default_q_coeff": ({"d": 3}, {"d": 2}),
    "asymptotics.candidate_q_coeff": ({"d": 3}, {"d": 2}),
    "asymptotics.resolved_q_coeff": ({"d": 3}, {"d": 2}),
    "asymptotics.check_subsolution": (
        {"d": 2, "n_values": [200], "q_coeff": 25}, {"d": 2, "q_coeff": None},
    ),
    "asymptotics.check_supersolution": (
        {"d": 2, "n_values": [200], "q_coeff": 25}, {"d": 2, "q_coeff": None},
    ),
    "asymptotics.s_tilde": ({"d": 2, "i": 3}, {"d": 2, "i": 1}),
    "asymptotics.lower_bound_product": ({"d": 2, "n": 5}, {"d": 2, "n": 2}),
    "asymptotics.airy_profile_deviation": ({"seq": _e_rows, "n": 40}, {"n": 2}),
    "distributions.r_pmf": ({"d": 3, "n": 5}, {"d": 2, "n": 1}),
    "distributions.bessel_pmf": ({"k": 2}, {"k": 0}),
    "distributions.otc_tail_expansion": (
        {"d": 3, "n": 100, "k": 1}, {"d": 3, "n": 1, "k": 0},
    ),
    "distributions.normal_limit_check": ({"n": 10}, {"n": 2}),
    "distributions.bessel_limit_check": ({"n": 10}, {"n": 1}),
    "distributions.degenerate_check": ({"d": 4, "n": 10}, {"d": 4, "n": 1}),
    "distributions.poisson_pmf": ({"j": 2}, {"j": 0}),
    "distributions.conjecture_poisson_report": ({"table": _table2, "n": 5}, {"n": 2}),
    "distributions.conjecture_words_report": (
        {"table": _table2, "n": 3, "budget": 10**6}, {"n": 1, "budget": 0},
    ),
    "criteria.tcmax_rows": ({"d": 2}, {"d": 2}),
    "criteria.tc_oracle": (
        {"d": 2, "n_max": 3, "budget": 10**6}, {"d": 2, "n_max": 2, "budget": 0},
    ),
    "criteria.otc_formula": (
        {"d": 2, "n_max": 3, "budget": 10**6}, {"d": 2, "n_max": 1, "budget": 0},
    ),
    "criteria.word_oracle": ({"d": 4, "budget": 10**6}, {"d": 2, "budget": 0}),
    "criteria.dual_recurrence": ({"d": 2}, {"d": 2}),
    "criteria.otc_total": ({"d": 3}, {"d": 2}),
    "criteria.proposition_sweeps": ({"d": 2, "q_coeff": 25}, {"d": 2, "q_coeff": None}),
    "exact.CountTable.row": ({"self": _table2, "n": 5}, {"n": 1}),
    "exact.CountTable.row_sum": ({"self": _table2, "n": 5}, {"n": 1}),
    "words.BTable.b": ({"self": _b_rows, "n": 3, "m": 2}, {"n": None, "m": None}),
    "words.BTable.c": ({"self": _b_rows, "n": 3}, {"n": 1}),
    "asymptotics.ESequence.log_e": ({"self": _e_rows, "n": 40, "m": 4}, {"n": 2, "m": 0}),
    "distributions.Pmf.prob": ({"self": _r_law, "k": 2}, {"k": None}),
}

# function -> why its size parameters are not checked
EXEMPT = {
    "words.word_to_str": "n only chooses the separator; it runs once per printed word",
    "asymptotics.mu": "real or array arguments, evaluated once per row in the sweeps",
    "asymptotics.nu": "real or array arguments, evaluated once per row in the sweeps",
    "criteria.theta": (
        "d is refused by words.c_log_sequence before any work, but one call takes"
        " seconds: criterion 10's test runs it"
    ),
}


def _public_functions(body, prefix):
    """(dotted name, def) of each public function and public method."""
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{prefix}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _public_functions(node.body, f"{prefix}.{node.name}")


def _size_slots() -> dict[str, tuple[str, ...]]:
    """Public functions and methods with a size parameter, from the source."""
    found = {}
    for name, module in MODULES.items():
        tree = ast.parse(Path(module.__file__).read_text())
        for fn, node in _public_functions(tree.body, name):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            slots = tuple(p for p in params if p in SIZE_NAMES)
            if slots:
                found[fn] = slots
    return found


SLOTS = [(fn, slot) for fn, (_, bounds) in CONTRACT.items() for slot in bounds]


def _call(fn: str, **override):
    module, *names = fn.split(".")
    kwargs = {
        key: value() if callable(value) else value
        for key, value in CONTRACT[fn][0].items()
    }
    kwargs.update(override)
    return functools.reduce(getattr, names, MODULES[module])(**kwargs)


def _same(a, b) -> bool:
    """Equal values of the same types, all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (int, str, bytes, bool, type(None))):
        return a == b
    return _same(list(a), list(b))  # generators and lazy sequences


def test_every_public_size_parameter_is_listed():
    found = _size_slots()
    listed = {fn: tuple(CONTRACT[fn][1]) for fn in CONTRACT}
    assert set(found) == set(listed) | set(EXEMPT)
    for fn, bounds in listed.items():
        assert set(found[fn]) == set(bounds), fn


@pytest.mark.parametrize("fn,slot", SLOTS)
@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_non_integer_size_is_refused_by_name(fn, slot, bad):
    with pytest.raises(ValueError, match=rf"^([a-z]+ )*{slot} must be an integer, got "):
        _call(fn, **{slot: bad})


@pytest.mark.parametrize(
    "fn,slot", [(fn, slot) for fn, slot in SLOTS if CONTRACT[fn][1][slot] is not None]
)
def test_size_below_its_bound_is_refused_by_name(fn, slot):
    lo = CONTRACT[fn][1][slot]
    with pytest.raises(ValueError) as info:
        _call(fn, **{slot: lo - 1})
    assert re.search(rf"\b{slot}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("fn,slot", SLOTS)
def test_numpy_integer_size_gives_the_same_result(fn, slot):
    value = CONTRACT[fn][0][slot]
    assert _same(_call(fn, **{slot: np.int64(value)}), _call(fn))
