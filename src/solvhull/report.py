"""Canonical JSON emission for reproducible reports.

The emitter is deliberately hand rolled: keys are sorted, floats are
printed with a fixed shortest-roundtrip format, complex numbers become
two element arrays, and non finite values are rejected. Two runs that
compute the same values therefore produce byte identical documents.
"""

import hashlib
import json

import numpy as np


def _fmt_float(x):
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("reports must not contain non finite numbers")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.append(f"[{_fmt_float(z.real)},{_fmt_float(z.imag)}]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        keys = list(obj.keys())
        for k in keys:
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {type(k)}")
        for i, k in enumerate(sorted(keys)):
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _emit(obj[k], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)} into a report")


def canonical_json(obj):
    """Serialize to deterministic JSON text."""
    out = []
    _emit(obj, out)
    return "".join(out)


def digest(text):
    """Hex digest identifying a canonical document."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
