"""Problem files: algebra structure plus an optional group model.

The on-disk format is JSON. Structure entries are zero based
[i, j, k, re, im] rows meaning the e_k component of [e_i, e_j]; the
antisymmetric counterpart of every entry is filled in automatically and
conflicting duplicates are rejected. Unknown keys are errors at every
level, so typos fail loudly instead of being ignored. Path files, read
by parse_path_file for the CLI's integrate --path, are JSON too and
share the number checks.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import validate_algebra
from .errors import SpecFileError, ValidationError
from .groups import GroupElement, Lattice, SemidirectModel, parse_word
from .paths import PathWord
from .report import canonical_json, digest
from .tolerances import Tolerances

_TOP_KEYS = {"name", "basis_names", "structure", "model", "tolerances"}
_MODEL_KEYS = {"translation_dim", "fiber_mats", "lattice"}
_LATTICE_KEYS = {"generators", "relations"}
_GEN_KEYS = {"translation", "fiber"}
_TOL_KEYS = {"alg", "num", "exact", "integer", "cluster_scale"}


@dataclass(frozen=True)
class Problem:
    """Parsed problem: validated algebra, optional model and lattice."""

    name: str
    algebra: object
    model: object
    lattice: object
    tolerances: Tolerances
    raw: dict

    @property
    def spec_digest(self):
        return digest(canonical_json(self.raw))


def _require_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise SpecFileError(f"{where} must be an object")
    unknown = set(d.keys()) - allowed
    if unknown:
        raise SpecFileError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(v, where):
    # The comparison is false for NaN, the infinities and ints past float range.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise SpecFileError(f"{where} must be a finite number")
    return float(v)


def _complex_pair(v, where):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SpecFileError(f"{where} must be a [re, im] pair")
    return complex(_number(v[0], where), _number(v[1], where))


def parse_path_file(path_file, dim):
    """Path of a JSON file {"segments": [{"direction": [...], "duration": t}, ...]}.

    A direction lists dim entries, each a finite number or [re, im] pair;
    a duration is a finite nonnegative number.
    """
    try:
        with open(path_file) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read path file: {err}") from err
    except json.JSONDecodeError as err:
        raise ValidationError(f"path file is not valid JSON: {err}") from err
    if not isinstance(data, dict) or not isinstance(data.get("segments"), list):
        raise ValidationError("path file needs a segments list")
    segs = []
    for seg in data["segments"]:
        if not isinstance(seg, dict) or "direction" not in seg or "duration" not in seg:
            raise ValidationError("every segment needs direction and duration")
        direction = seg["direction"]
        if not isinstance(direction, list) or len(direction) != dim:
            raise ValidationError(f"direction must list {dim} entries")
        vec = np.array([
            _complex_pair(z, "direction entry") if isinstance(z, list)
            else _number(z, "direction entry")
            for z in direction
        ], dtype=complex)
        duration = _number(seg["duration"], "duration")
        if duration < 0.0:
            raise ValidationError("duration must be nonnegative")
        segs.append((vec, duration))
    return PathWord(segs)


def _parse_structure(entries, dim):
    if not isinstance(entries, (list, tuple)):
        raise SpecFileError("structure must be a list of entries")
    seen = {}
    any_imag = False
    for row in entries:
        if not isinstance(row, (list, tuple)) or len(row) != 5:
            raise SpecFileError(f"structure entry {row!r} must be [i, j, k, re, im]")
        i, j, k = row[:3]
        for idx in (i, j, k):
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise SpecFileError(f"structure indices must be integers in {row!r}")
            if not 0 <= idx < dim:
                raise SpecFileError(f"structure index out of range in {row!r}")
        val = complex(_number(row[3], "structure value"), _number(row[4], "structure value"))
        if i == j and val != 0:
            raise SpecFileError(f"nonzero bracket of a basis vector with itself: {row!r}")
        if (i, j, k) in seen:
            raise SpecFileError(f"duplicate structure entry for ({i}, {j}, {k})")
        if (j, i, k) in seen and seen[(j, i, k)] != -val:
            raise SpecFileError(
                f"structure entries for ({i}, {j}, {k}) and ({j}, {i}, {k}) are not antisymmetric"
            )
        seen[(i, j, k)] = val
        if val.imag != 0.0:
            any_imag = True

    dtype = complex if any_imag else float
    c = np.zeros((dim, dim, dim), dtype=dtype)
    for (i, j, k), val in seen.items():
        v = val if any_imag else val.real
        c[i, j, k] = v
        if (j, i, k) not in seen:
            c[j, i, k] = -v
    return c


def parse_tolerances(data, **given):
    """Tolerances of a spec's block, a given value replacing its field; all finite and > 0."""
    if data is not None:
        _require_keys(data, _TOL_KEYS, "tolerances")
    values = {k: _number(v, f"tolerances.{k}") for k, v in (data or {}).items()} | given
    for key, value in values.items():
        if not 0.0 < value < np.inf:
            raise SpecFileError(f"tolerance {key} must be finite and positive, got {value!r}")
    return Tolerances(**values)


def _parse_model(data, dim, tolerances):
    _require_keys(data, _MODEL_KEYS, "model")
    if "translation_dim" not in data or "fiber_mats" not in data:
        raise SpecFileError("model needs translation_dim and fiber_mats")
    k = data["translation_dim"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise SpecFileError("translation_dim must be a positive integer")
    m = dim - k
    if m < 1:
        raise SpecFileError(f"translation_dim {k} leaves no fiber in dimension {dim}")
    mats_raw = data["fiber_mats"]
    if not isinstance(mats_raw, (list, tuple)) or len(mats_raw) != k:
        raise SpecFileError(f"fiber_mats must list {k} matrices")
    mats = []
    for mi, rows in enumerate(mats_raw):
        if not isinstance(rows, (list, tuple)) or len(rows) != m:
            raise SpecFileError(f"fiber matrix {mi} must have {m} rows")
        mat = np.zeros((m, m), dtype=complex)
        for ri, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != m:
                raise SpecFileError(f"fiber matrix {mi} row {ri} must have {m} entries")
            for ci, entry in enumerate(row):
                mat[ri, ci] = _complex_pair(entry, f"fiber matrix {mi}[{ri}][{ci}]")
        mats.append(mat)
    try:
        model = SemidirectModel(mats, tolerances)
    except Exception as err:
        raise SpecFileError(f"invalid model: {err}") from err
    return model


def _parse_lattice(data, model):
    _require_keys(data, _LATTICE_KEYS, "model.lattice")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, dict) or not gens_raw:
        raise SpecFileError("lattice generators must be a non empty object")
    gens = []
    for name, g in gens_raw.items():
        _require_keys(g, _GEN_KEYS, f"generator {name!r}")
        trans = g.get("translation", [])
        fiber = g.get("fiber", [])
        if not isinstance(trans, (list, tuple)) or len(trans) != model.k:
            raise SpecFileError(f"generator {name!r} needs {model.k} translation entries")
        if not isinstance(fiber, (list, tuple)) or len(fiber) != model.m:
            raise SpecFileError(f"generator {name!r} needs {model.m} fiber entries")
        t = tuple(_number(v, f"{name!r} translation") for v in trans)
        v = tuple(_complex_pair(z, f"{name!r} fiber") for z in fiber)
        gens.append((str(name), GroupElement(t, v)))

    relations = []
    for pair in data.get("relations", []):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SpecFileError(f"relation {pair!r} must be a [lhs, rhs] pair")
        lhs, rhs = pair
        relations.append((str(lhs), str(rhs)))
    names = {n for n, _ in gens}
    for lhs, rhs in relations:
        for word in (lhs, rhs):
            for name, _ in parse_word(word):
                if name not in names:
                    raise SpecFileError(f"relation references unknown generator {name!r}")
    return Lattice(model=model, generators=tuple(gens), relations=tuple(relations))


def spec_data(source):
    """Top level object of a problem given as a dict, JSON text, or file path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists():
            text = path.read_text()
        else:
            text = str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise SpecFileError(f"invalid JSON: {err}") from err
    elif isinstance(source, dict):
        data = source
    else:
        raise SpecFileError(f"cannot read a problem from {type(source)}")
    _require_keys(data, _TOP_KEYS, "problem")
    return data


def parse_problem(source, tolerances=None):
    """Load and validate a problem from a dict, JSON text, or file path."""
    data = spec_data(source)
    names = data.get("basis_names")
    if not isinstance(names, (list, tuple)) or not names:
        raise SpecFileError("basis_names must be a non empty list")
    if not all(isinstance(s, str) for s in names):
        raise SpecFileError("basis_names must be strings")
    dim = len(names)
    if "structure" not in data:
        raise SpecFileError("problem needs a structure list")

    tol = tolerances if tolerances is not None else parse_tolerances(data.get("tolerances"))
    table = _parse_structure(data["structure"], dim)
    algebra = validate_algebra(table, names=names, tolerances=tol)

    model = None
    lattice = None
    if "model" in data:
        model = _parse_model(data["model"], dim, tol)
        induced = model.induced_structure().astype(complex)
        diff = float(np.max(np.abs(induced - table.astype(complex))))
        if diff > tol.exact:
            raise SpecFileError(
                f"model induced structure differs from the table by {diff:.3e}"
            )
        if "lattice" in data["model"]:
            lattice = _parse_lattice(data["model"]["lattice"], model)

    name = str(data.get("name", "problem"))
    return Problem(
        name=name,
        algebra=algebra,
        model=model,
        lattice=lattice,
        tolerances=tol,
        raw=data,
    )
