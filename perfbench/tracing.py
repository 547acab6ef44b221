"""In-memory spans around the library's public functions.

The tracer replaces each traced function at every name the library's
own modules bind it to, so calls made through ``from .x import f``
are seen as well as calls through the defining module. Nothing under
``src/`` changes; the replacement lives only in the traced process.

A span is (operation id, span id, parent id, name, start ns, end ns).
Spans stay in memory until ``write`` puts them on disk at the end of
the run. Per operation the tracer sums self time per layer metric,
counts calls, and records the sizes that drive the work.
"""

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "op"


def _max(sizes, key, value):
    sizes[key] = max(sizes.get(key, 0), int(value))


def _live_steps(form):
    """Strictly upper entries of the connection that are ever nonzero."""
    reach = np.max(np.abs(form.psi_tensor), axis=0)
    return int(np.count_nonzero(np.triu(reach, 1)))


def _chains(sizes, args, chains):
    sizes["size.chains"] = sizes.get("size.chains", 0) + len(chains)


def _segments(sizes, args, result):
    _max(sizes, "size.segments", len(args[1]))


# (module, attribute, span name, size observer, index of a connection
# form argument or "result"). Span names double as metric stems: self
# time is reported as "<name>_ms". Observers get (sizes, args, result)
# and run after the function's own span closes; forms are sized when the
# operation ends.
TARGETS = (
    ("solvhull.algebra", "validate_algebra", "algebra.validate",
     lambda s, a, r: _max(s, "size.dim", r.dim), None),
    ("solvhull.algebra", "nilradical", "algebra.nilradical",
     lambda s, a, r: _max(s, "size.nilradical_dim", r.dim), None),
    ("solvhull.algebra", "semisimple_adjoint", "algebra.semisimple_adjoint", None, None),
    ("solvhull.splitting", "build_splitting", "splitting.build_splitting",
     lambda s, a, r: _max(s, "size.shadow_class", r.shadow_class), None),
    ("solvhull.envelope", "build_enveloping_rep", "envelope.build_enveloping_rep", None, None),
    ("solvhull.connection", "build_connection_form", "connection.build_connection_form",
     None, "result"),
    ("solvhull.integrals", "transport", "integrals.transport", _segments, 0),
    ("solvhull.integrals", "transport_series", "integrals.transport_series", None, 0),
    ("solvhull.integrals", "exp_iterated_integral", "integrals.exp_iterated_integral",
     None, None),
    ("solvhull.integrals", "iterated_integral", "integrals.iterated_integral", None, None),
    ("solvhull.integrals", "iterated_integral_quadrature", "integrals.quadrature", None, None),
    ("solvhull.monodromy", "closedness_residual", "monodromy.closedness_residual", None, 0),
    ("solvhull.monodromy", "entry_chains", "monodromy.entry_chains", _chains, 0),
    ("solvhull.monodromy", "entry_chain_value", "monodromy.entry_chain_value", None, None),
    ("solvhull.monodromy", "path_independence_residual",
     "monodromy.path_independence_residual", None, None),
    ("solvhull.monodromy", "word_monodromy", "monodromy.word_monodromy", None, None),
    ("solvhull.monodromy", "build_monodromy_rep", "monodromy.build_monodromy_rep", None, None),
    ("solvhull.matfuncs", "expm", "matfuncs.expm", None, None),
    ("solvhull.matfuncs", "expm_upper_bidiagonal", "matfuncs.expm_upper_bidiagonal",
     None, None),
    ("solvhull.groups", "SemidirectModel.loop_of", "groups.loop_of", None, None),
    ("solvhull.groups", "Lattice.path_of", "groups.path_of", None, None),
    ("solvhull.specfile", "parse_problem", "specfile.parse_problem", None, None),
    ("solvhull.report", "canonical_json", "report.canonical_json", None, None),
)

# Calls counted per operation, reported as "<name>_calls".
COUNTED = (
    "matfuncs.expm",
    "matfuncs.expm_upper_bidiagonal",
    "monodromy.entry_chains",
    "integrals.exp_iterated_integral",
)

LINALG = "solvhull.linalg"


def linalg_targets():
    """Every public function linalg defines when the run starts."""
    module = sys.modules[LINALG]
    return tuple(
        (LINALG, name, f"linalg.{name}", None, None)
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == LINALG
        and not name.startswith("_")
    )


def metric_of(name):
    """Layer metric a span's self time is added to."""
    if name.startswith("linalg."):
        return "linalg.ms"
    return f"{name}_ms"


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    spans holds (span id, parent id, name, start, end) tuples. Child
    intervals are clipped to the parent and merged before subtracting,
    so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0
        lo = hi = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


class Tracer:
    """Collects spans, self times, call counts and sizes per operation.

    ``install`` and ``uninstall`` may alternate, so that traced and
    untraced operations can interleave in one process.
    """

    def __init__(self):
        self.spans = []
        self.operations = []
        self.missing = []
        self._bindings = None
        self._stack = []
        self._next_id = 0
        self._op_id = None
        self._sizes = {}
        self._forms = {}

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def wrap(self, fn, name, observe=None, form_at=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((tracer._op_id, sid, parent, name, start, end))
            if tracer._op_id is not None:
                if observe is not None:
                    observe(tracer._sizes, args, result)
                if form_at is not None:
                    form = result if form_at == "result" else args[form_at]
                    tracer._forms[id(form)] = form
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _find_bindings(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "solvhull" or key.startswith("solvhull.")
        ]
        bindings = []
        for module_name, attr, name, observe, form_at in TARGETS + linalg_targets():
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, observe, form_at)
            places = [(owner, fn_name)] if owner_name else [
                (m, key) for m in modules for key, value in vars(m).items() if value is original
            ]
            bindings += [(obj, key, original, wrapper) for obj, key in places]
        return bindings

    def install(self):
        """Replace every traced function at each name that binds it."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for obj, key, _, wrapper in self._bindings:
            setattr(obj, key, wrapper)

    def uninstall(self):
        """Put every replaced function back."""
        for obj, key, original, _ in reversed(self._bindings or ()):
            setattr(obj, key, original)

    @contextlib.contextmanager
    def operation(self, key):
        """One operation, under a root span of its own."""
        self._op_id = op_id = self._new_id()
        self._sizes, self._forms = {}, {}
        self._stack.append(op_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((op_id, op_id, None, ROOT_SPAN, start, end))
            for form in self._forms.values():
                _max(self._sizes, "size.dim", form.psi_tensor.shape[0])
                _max(self._sizes, "size.r", form.r)
                _max(self._sizes, "size.live_steps", _live_steps(form))
            self.operations.append((op_id, key, self._sizes))
            self._op_id, self._forms = None, {}

    def operation_summaries(self):
        """Per operation: key, self time per layer metric, counts and sizes."""
        by_op = defaultdict(list)
        for op_id, *span in self.spans:
            by_op[op_id].append(span)
        out = []
        for op_id, key, sizes in self.operations:
            spans = by_op[op_id]
            names = {s[0]: s[2] for s in spans}
            layers = defaultdict(float)
            calls = {f"{name}_calls": 0 for name in COUNTED}
            for sid, self_ns in self_times(spans).items():
                name = names[sid]
                if name == ROOT_SPAN:
                    continue
                layers[metric_of(name)] += self_ns / 1e6
                if name in COUNTED:
                    calls[f"{name}_calls"] += 1
            out.append({"key": key, "layers_ms": dict(layers), "counts": {**calls, **sizes}})
        return out

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

