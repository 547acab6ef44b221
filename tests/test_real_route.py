"""Exactly real input to the evaluation kernels runs in float64.

When every imaginary part of a chain-sum input or of a path's segment
matrices is exactly zero, integrals hands the kernels the real parts,
and they work in float64 and return complex. The real route agrees with
the same input forced through complex arithmetic to a few ulps of the
entry scale, and a guard checks which dtype reaches the kernels, so the
fast route cannot go away silently.
"""

import numpy as np
import pytest

from solvhull import connection, entry_chain_value, integrals, transport_series
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
def test_real_route_matches_the_complex_route(name, request, monkeypatch):
    """Chain sums and the depth 20 series on a real 4-segment path, each route once."""
    form = form_by_name(request, name)
    path = _random_path(np.random.default_rng(300 + len(name)), form.dim, 4, False, 3.0, form)
    chains, series = _values(form, name, path)
    monkeypatch.setattr(integrals, "_real_if_exact", lambda arrays: arrays)
    complex_chains, complex_series = _values(form, name, path)
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
