"""Exactly real input to the evaluation kernels runs in float64.

Whether a kernel works in float64 is decided once, where its tables and
paths are built, by the rule of linalg.real_if_exact: a connection form
whose entries are exactly real stores omega and closure_psi as float64,
stack_paths keeps a real path's real parts, and the word tables of
iterated_integral and _shuffle_terms are real when every entry is
exactly real. No evaluation function looks at values to choose its
dtype, so a complex-typed table runs in complex arithmetic even when
its imaginary parts are all zero. The kernels return complex either
way. The real route agrees with the same form's complex copy to a few
ulps of the entry scale, and guards check which dtype the tables have
and which reaches the kernels, so the fast route cannot go away
silently.
"""

import dataclasses

import numpy as np
import pytest

from solvhull import connection, entry_chain_value, integrals, iterated_integral, transport_series
from solvhull.integrals import _shuffle_terms
from solvhull.monodromy import closedness_residual
from solvhull.tolerances import DEFAULT
from solvhull.verify import _random_path

from conftest import CHAIN_FORMS, form_by_name

EPS = float(np.finfo(float).eps)


def _entries(form, name):
    """Every upper-triangle entry of the small forms, the last column of the filiform ones."""
    r = form.r
    if name.startswith("filiform"):
        return [(p, r - 1) for p in range(r)]
    return [(p, q) for p in range(r) for q in range(p, r)]


def _values(form, name, path):
    chains = np.array([entry_chain_value(form, path, p, q) for p, q in _entries(form, name)])
    return chains, transport_series(form, path, 20).value


@pytest.mark.parametrize("name", CHAIN_FORMS)
def test_real_route_matches_the_complex_route(name, request):
    """Chain sums and the depth 20 series on a real 4-segment path, each route once.

    The complex route runs on a copy of the form with complex tables,
    whose products stay complex.
    """
    form = form_by_name(request, name)
    path = _random_path(np.random.default_rng(300 + len(name)), form.dim, 4, False, 3.0, form)
    chains, series = _values(form, name, path)
    complex_form = dataclasses.replace(form, omega=form.omega.astype(complex))
    assert complex_form.closure_psi.dtype == np.complex128
    complex_chains, complex_series = _values(complex_form, name, path)
    chain_scale = max(1.0, float(np.max(np.abs(complex_chains))))
    series_scale = float(np.max(np.abs(complex_series)))
    assert np.max(np.abs(chains - complex_chains)) <= 4 * EPS * chain_scale
    assert np.max(np.abs(series - complex_series)) <= 4 * EPS * series_scale


def recorded_kernel_dtypes(monkeypatch):
    """Route both kernels of integrals through a recorder of their input dtypes."""
    seen = {"chains": set(), "series": set()}
    chain_kernel, series_kernel = integrals.exp_chain_values, integrals._pattern_series

    def chains(diag, sup, start):
        seen["chains"].update({diag.dtype, sup.dtype})
        return chain_kernel(diag, sup, start)

    def series(pattern, matrices, depth):
        seen["series"].update(a.dtype for a in matrices)
        return series_kernel(pattern, matrices, depth)

    monkeypatch.setattr(integrals, "exp_chain_values", chains)
    monkeypatch.setattr(integrals, "_pattern_series", series)
    return seen


@pytest.mark.parametrize(
    "name, is_complex, dtype",
    [("sol", False, np.float64), ("filiform-6", False, np.float64), ("sect4", True, np.complex128)],
)
def test_kernels_receive_float64_on_real_forms_only(name, is_complex, dtype, request, monkeypatch):
    form = form_by_name(request, name)
    path = _random_path(np.random.default_rng(7), form.dim, 3, is_complex, 3.0, form)
    seen = recorded_kernel_dtypes(monkeypatch)
    value = entry_chain_value(form, path, 0, form.r - 1)
    series = transport_series(form, path, 5).value
    assert seen == {"chains": {np.dtype(dtype)}, "series": {np.dtype(dtype)}}
    assert isinstance(value, complex) and series.dtype == np.complex128


# Corpus tables that are complex but have real characters; the build
# leaves imaginary parts below 1.1e-14 in their forms.
ROUNDING_IMAGINARY = [6, 9, 13, 14, 19, 21, 24]


@pytest.mark.parametrize("name", [f"corpus-{seed}" for seed in ROUNDING_IMAGINARY] + ["sect4"])
def test_rounding_level_imaginary_parts_are_snapped(name, request, monkeypatch):
    """Those forms keep real parts and run in float64; sect4's imaginary parts are kept."""
    snapped = name != "sect4"
    form = form_by_name(request, name)
    path = _random_path(np.random.default_rng(8), form.dim, 3, not snapped, 3.0, form)
    seen = recorded_kernel_dtypes(monkeypatch)
    entry_chain_value(form, path, 0, form.r - 1)
    transport_series(form, path, 5)
    dtype = np.dtype(np.float64 if snapped else np.complex128)
    assert seen == {"chains": {dtype}, "series": {dtype}}
    assert snapped == (not form.omega.imag.any() and not form.closure_psi.imag.any())

    monkeypatch.setattr(connection, "_imaginary_is_rounding", lambda values, tol: False)
    raw = form_by_name(request, name) if snapped else form
    imag = max(np.abs(raw.omega.imag).max(), np.abs(raw.closure_psi.imag).max())
    scale = max(1.0, np.abs(raw.closure_psi).max())
    assert 0 < imag
    assert (imag <= DEFAULT.char_snap * scale) == snapped
    if snapped:
        assert imag < 1.1e-14


REAL_FORMS = ["sol", "filiform-4", "filiform-5", "filiform-6"] + [f"corpus-{seed}" for seed in ROUNDING_IMAGINARY]


@pytest.mark.parametrize("name", REAL_FORMS + ["sect4"])
def test_real_forms_store_float64_tables(name, request):
    """omega, closure_psi and the plans' tables are float64 on real forms, complex on sect4; psi stays complex."""
    form = form_by_name(request, name)
    dtype = np.dtype(np.complex128 if name == "sect4" else np.float64)
    plan = form.chain_plan(0, form.r - 1)
    assert form.omega.dtype == form.closure_psi.dtype == dtype
    assert plan.exponents.dtype == plan.factors.dtype == dtype
    assert plan.exponents.flags.c_contiguous and plan.factors.flags.c_contiguous
    assert form.psi_entries.values.dtype == np.complex128


def _entry_evaluations(form, path):
    """Last-column entry chains, their batched closedness and the depth 5 series on one path."""
    entries = [(p, form.r - 1) for p in range(form.r)]
    for p, q in entries:
        entry_chain_value(form, path, p, q)
    closedness_residual(form, [path, path], integrals.transport(form, path), entries)
    transport_series(form, path, 5)


@pytest.mark.parametrize("name", REAL_FORMS)
def test_real_forms_on_real_paths_reach_the_kernels_as_float64(name, request, monkeypatch):
    """Entry chains, batched closedness, the series, and Chen and shuffle integrals all run in float64.

    The Chen and shuffle letters are psi's entry functionals, which are
    stored complex but are exactly real on these forms; a complex path
    makes the chain kernel's input complex.
    """
    form = form_by_name(request, name)
    rng = np.random.default_rng(9)
    path = _random_path(rng, form.dim, 3, False, 3.0, form)
    letters = [form.entry_functional(p, p + 1) for p in range(min(3, form.r - 1))]
    assert all(f.dtype == np.complex128 and not f.imag.any() for f in letters)
    seen = recorded_kernel_dtypes(monkeypatch)
    _entry_evaluations(form, path)
    iterated_integral(letters, path)
    _shuffle_terms(letters, (0,), tuple(range(1, len(letters))), path)
    assert seen == {"chains": {np.dtype(np.float64)}, "series": {np.dtype(np.float64)}}
    seen["chains"].clear()
    entry_chain_value(form, _random_path(rng, form.dim, 2, True, 3.0, form), 0, form.r - 1)
    assert seen["chains"] == {np.dtype(np.complex128)}


@pytest.mark.parametrize("name", REAL_FORMS)
def test_complex_typed_tables_reach_the_kernels_as_complex128(name, request, monkeypatch):
    """A complex copy of a real form has imaginary parts that are all zero; its real path still runs in complex128."""
    form = form_by_name(request, name)
    complex_form = dataclasses.replace(form, omega=form.omega.astype(complex))
    assert not complex_form.closure_psi.imag.any()
    path = _random_path(np.random.default_rng(11), form.dim, 3, False, 3.0, form)
    seen = recorded_kernel_dtypes(monkeypatch)
    _entry_evaluations(complex_form, path)
    assert seen == {"chains": {np.dtype(np.complex128)}, "series": {np.dtype(np.complex128)}}


def test_complex_forms_stay_complex_on_real_paths(request, monkeypatch):
    """sect4's tables are complex, so even a real path's chain sums and series run in complex128."""
    form = form_by_name(request, "sect4")
    path = _random_path(np.random.default_rng(10), form.dim, 2, False, 3.0, form)
    assert path.stacked[0].dtype == np.float64
    seen = recorded_kernel_dtypes(monkeypatch)
    _entry_evaluations(form, path)
    assert seen == {"chains": {np.dtype(np.complex128)}, "series": {np.dtype(np.complex128)}}
