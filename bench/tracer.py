"""Spans and counters around the engine's layers, installed from outside.

``Tracer.install()`` wraps the public functions and methods of each
``diffident`` module.  Methods are patched on their class; a module-level
function is replaced in every ``diffident`` module that holds it, so calls
through names imported with ``from .x import f`` are wrapped too.

Each wrapped call is a span: name, start, end, parent and counters.  A
span's self time is its duration minus the time its child spans cover, and
each layer metric below totals self times, so no second is counted twice.
Spans are kept in memory and written out at the end; beyond
``KEEP_PER_NAME`` spans of one name only the totals are kept, because the
hot leaves (``multiply``, ``add_row``) run millions of times.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

KEEP_PER_NAME = 20_000

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "fileformat.parse": ("fileformat", "parse_algebra_file"),
    "fileformat.to_algebra": ("fileformat", "AlgebraFile.to_algebra"),
    "shipped.identify": ("shipped", "identify_shipped"),
    "algebra.multiply": ("algebra", "StructureAlgebra.multiply"),
    "algebra.lie_closure": ("algebra", "lie_closure"),
    "algebra.envelope": ("algebra", "envelope"),
    "algebra.expand": ("algebra", "Envelope.expand"),
    "linalg.sparse_init": ("linalg", "SparseRREF.__init__"),
    "linalg.add_row": ("linalg", "SparseRREF.add_row"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.left_kernel": ("linalg", "left_kernel"),
    **{
        f"linalg.Subspace.{m}": ("linalg", f"Subspace.{m}")
        for m in (
            "from_vectors",
            "zero",
            "full",
            "reduce",
            "member",
            "contains",
            "sum",
            "intersect",
            "image",
        )
    },
    "piengine.codim": ("piengine", "codim"),
    "piengine.identity_space": ("piengine", "identity_space"),
    "piengine.consequences_space": ("piengine", "consequences_space"),
    "piengine.pbw_normalize_word": ("piengine", "pbw_normalize_word"),
    "piengine.collapse_word": ("piengine", "collapse_word"),
    "piengine.substitute": ("piengine", "substitute"),
    "piengine.evaluate_poly": ("piengine", "evaluate_poly"),
    "piengine.is_identity": ("piengine", "is_identity"),
    "piengine.containment_check": ("piengine", "containment_check"),
    "families.ut2_spanning_set": ("families", "ut2_spanning_set"),
    "families.ut2_eps_spanning_set": ("families", "ut2_eps_spanning_set"),
    "structure.radical": ("structure", "radical"),
    "structure.wedderburn_malcev": ("structure", "wedderburn_malcev"),
    "exponent.exp_ordinary": ("exponent", "exp_ordinary"),
    "exponent.exp_differential": ("exponent", "exp_differential"),
    "exponent.lemma_bridge_check": ("exponent", "lemma_bridge_check"),
    "exponent.is_solvable": ("exponent", "is_solvable"),
    "exponent.classify_growth": ("exponent", "classify_growth"),
}

SUBSPACE_SPANS = tuple(n for n in TARGETS if n.startswith("linalg.Subspace.")) + (
    "linalg.rref",
    "linalg.left_kernel",
)

# per-layer metric -> (unit, what it totals)
LAYER_METRICS = {
    "fileformat.parse_s": ("s", "self time of parse_algebra_file"),
    "fileformat.to_algebra_s": ("s", "self time of AlgebraFile.to_algebra (associativity and Leibniz checks)"),
    "shipped.identify_s": ("s", "self time of identify_shipped"),
    "algebra.lie_closure_s": ("s", "self time of lie_closure"),
    "algebra.envelope_s": ("s", "self time of envelope"),
    "algebra.expand_calls": ("count", "calls of Envelope.expand"),
    "algebra.expand_s": ("s", "self time of Envelope.expand"),
    "algebra.envelope_dim": ("count", "sum of the envelope dims built"),
    "algebra.multiply_calls": ("count", "calls of StructureAlgebra.multiply"),
    "algebra.multiply_s": ("s", "self time of StructureAlgebra.multiply"),
    "linalg.rows_fed": ("count", "calls of SparseRREF.add_row"),
    "linalg.add_row_s": ("s", "self time of SparseRREF.add_row"),
    "linalg.rank": ("count", "sum of the final ranks of every SparseRREF"),
    "linalg.useful_row_frac": ("ratio", "linalg.rank / linalg.rows_fed"),
    "linalg.kernel_rows": ("count", "sum of the kernel rows of every SparseRREF"),
    "linalg.max_row_fill": ("count", "most nonzeros in one row fed to a SparseRREF"),
    "linalg.subspace_calls": ("count", "calls of Subspace methods, rref and left_kernel"),
    "linalg.subspace_s": ("s", "self time of Subspace methods, rref and left_kernel"),
    "piengine.codim_calls": ("count", "calls of codim"),
    "piengine.codim_s": ("s", "self time of codim: row generation outside multiply and add_row"),
    "piengine.prime_passes": ("count", "modular SparseRREF passes"),
    "piengine.exact_escalations": ("count", "exact passes inside a modular codim"),
    "piengine.identity_space_s": ("s", "self time of identity_space"),
    "piengine.consequences_s": ("s", "self time of consequences_space"),
    "piengine.pbw_normalize_calls": ("count", "calls of pbw_normalize_word"),
    "piengine.collapse_word_calls": ("count", "calls of collapse_word"),
    "piengine.substitute_calls": ("count", "calls of substitute"),
    "piengine.evaluate_poly_calls": ("count", "calls of evaluate_poly"),
    "piengine.evaluate_poly_s": ("s", "self time of evaluate_poly"),
    "piengine.is_identity_s": ("s", "self time of is_identity"),
    "families.spanning_set_s": ("s", "self time of ut2_spanning_set and ut2_eps_spanning_set"),
    "piengine.containment_s": ("s", "self time of containment_check"),
    "exponent.classify_s": ("s", "self time of classify_growth"),
    "exponent.is_solvable_s": ("s", "self time of is_solvable"),
    "structure.radical_s": ("s", "self time of radical"),
    "structure.wedderburn_calls": ("count", "calls of wedderburn_malcev"),
    "structure.wedderburn_s": ("s", "self time of wedderburn_malcev"),
    "exponent.exp_s": ("s", "self time of exp_ordinary and exp_differential"),
    "exponent.dfs_pruned": ("count", "sum of pruned_count over the exponent reports"),
    "exponent.bridge_s": ("s", "self time of lemma_bridge_check"),
}


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [id, name, start, child time, attrs]
        self.spans: list = []  # kept spans: (id, parent id, name, start, end, attrs)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.elided: Counter = Counter()
        self.max_row_fill = 0
        self.sparse: list = []  # per SparseRREF: [rank, kernel rows] after its last row
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span.  before(args, kwargs) returns the span's
        attributes; after(args, result) updates the counters and may return
        more attributes, such as the dimension of the envelope just built."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0, 0.0, before(args, kwargs) if before else None]
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, perf_counter())
                raise
            end = perf_counter()
            if after is not None:
                extra = after(args, result)
                if extra:
                    frame[4] = {**(frame[4] or {}), **extra}
            tracer._close(frame, parent, end)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _close(self, frame, parent, end: float) -> None:
        self.stack.pop()
        sid, name, start, child, attrs = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if parent is not None:
            parent[3] += duration
        if self.calls[name] <= KEEP_PER_NAME:
            self.spans.append((sid, parent[0] if parent else None, name, start, end, attrs))
        else:
            self.elided[name] += 1

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the engine out of the open span's self time."""
        if self.stack:
            self.stack[-1][3] += seconds

    def _enclosing(self, name: str):
        for frame in reversed(self.stack):
            if frame[1] == name:
                return frame
        return None

    # -- counters ----------------------------------------------------------

    def _codim_attrs(self, args, kwargs):
        # codim(alg, act, n, mode="exact", ...)
        mode = args[3] if len(args) > 3 else kwargs.get("mode", "exact")
        return {"n": args[2] if len(args) > 2 else kwargs.get("n"), "mode": mode}

    def _sparse_init(self, args, kwargs):
        prime = kwargs.get("prime", args[2] if len(args) > 2 else None)
        if prime is not None:
            self.counters["piengine.prime_passes"] += 1
        else:
            codim = self._enclosing("piengine.codim")
            if codim is not None and codim[4]["mode"] == "modular":
                self.counters["piengine.exact_escalations"] += 1
        args[0]._bench_serial = len(self.sparse)
        self.sparse.append([0, 0])
        return {"prime": prime}

    def _add_row(self, args, kwargs):
        fill = len(args[1]) if len(args) > 1 else len(kwargs["row"])
        if fill > self.max_row_fill:
            self.max_row_fill = fill
        return None

    def _add_row_done(self, args, _result):
        inst = args[0]
        self.sparse[inst._bench_serial] = [inst.rank, len(inst.kernel)]

    def _envelope_done(self, args, env):
        self.counters["algebra.envelope_dim"] += env.dim
        return {"dim": env.dim}

    def _exponent_done(self, args, rep):
        self.counters["exponent.dfs_pruned"] += rep.pruned_count
        return {"value": rep.value, "pruned": rep.pruned_count}

    def _codim_done(self, args, rank):
        return {"rank": rank}

    def _identity_space_done(self, args, rep):
        return {"n": rep.degree, "codim": rep.codim, "identity_dim": rep.identity_dim}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import diffident

        modules = [
            sys.modules[name]
            for name in sorted(sys.modules)
            if name.startswith("diffident.") and sys.modules[name] is not None
        ]
        hooks = {
            "piengine.codim": (self._codim_attrs, self._codim_done),
            "piengine.identity_space": (None, self._identity_space_done),
            "linalg.sparse_init": (self._sparse_init, None),
            "linalg.add_row": (self._add_row, self._add_row_done),
            "algebra.envelope": (None, self._envelope_done),
            "exponent.exp_ordinary": (None, self._exponent_done),
            "exponent.exp_differential": (None, self._exponent_done),
        }
        for name, (module, attr) in TARGETS.items():
            mod = getattr(diffident, module)
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, before, after)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, before, after))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, before, after)
            replaced = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"{module}.{attr} not found in any diffident module")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        s, c = self.self_s, self.calls
        rank = sum(r for r, _ in self.sparse)
        rows = c["linalg.add_row"]
        out = {
            "fileformat.parse_s": s["fileformat.parse"],
            "fileformat.to_algebra_s": s["fileformat.to_algebra"],
            "shipped.identify_s": s["shipped.identify"],
            "algebra.lie_closure_s": s["algebra.lie_closure"],
            "algebra.envelope_s": s["algebra.envelope"],
            "algebra.expand_calls": c["algebra.expand"],
            "algebra.expand_s": s["algebra.expand"],
            "algebra.envelope_dim": self.counters["algebra.envelope_dim"],
            "algebra.multiply_calls": c["algebra.multiply"],
            "algebra.multiply_s": s["algebra.multiply"],
            "linalg.rows_fed": rows,
            "linalg.add_row_s": s["linalg.add_row"],
            "linalg.rank": rank,
            "linalg.useful_row_frac": rank / rows if rows else 0.0,
            "linalg.kernel_rows": sum(k for _, k in self.sparse),
            "linalg.max_row_fill": self.max_row_fill,
            "linalg.subspace_calls": sum(c[n] for n in SUBSPACE_SPANS),
            "linalg.subspace_s": sum(s[n] for n in SUBSPACE_SPANS),
            "piengine.codim_calls": c["piengine.codim"],
            "piengine.codim_s": s["piengine.codim"],
            "piengine.prime_passes": self.counters["piengine.prime_passes"],
            "piengine.exact_escalations": self.counters["piengine.exact_escalations"],
            "piengine.identity_space_s": s["piengine.identity_space"],
            "piengine.consequences_s": s["piengine.consequences_space"],
            "piengine.pbw_normalize_calls": c["piengine.pbw_normalize_word"],
            "piengine.collapse_word_calls": c["piengine.collapse_word"],
            "piengine.substitute_calls": c["piengine.substitute"],
            "piengine.evaluate_poly_calls": c["piengine.evaluate_poly"],
            "piengine.evaluate_poly_s": s["piengine.evaluate_poly"],
            "piengine.is_identity_s": s["piengine.is_identity"],
            "families.spanning_set_s": s["families.ut2_spanning_set"]
            + s["families.ut2_eps_spanning_set"],
            "piengine.containment_s": s["piengine.containment_check"],
            "exponent.classify_s": s["exponent.classify_growth"],
            "exponent.is_solvable_s": s["exponent.is_solvable"],
            "structure.radical_s": s["structure.radical"],
            "structure.wedderburn_calls": c["structure.wedderburn_malcev"],
            "structure.wedderburn_s": s["structure.wedderburn_malcev"],
            "exponent.exp_s": s["exponent.exp_ordinary"] + s["exponent.exp_differential"],
            "exponent.dfs_pruned": self.counters["exponent.dfs_pruned"],
            "exponent.bridge_s": s["exponent.lemma_bridge_check"],
        }
        if out.keys() != LAYER_METRICS.keys():
            raise RuntimeError("layer metrics and LAYER_METRICS disagree")
        return out

    def write(self, path) -> None:
        """Kept spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
            totals = {
                name: {"calls": n, "self_s": self.self_s[name], "elided": self.elided[name]}
                for name, n in sorted(self.calls.items())
            }
            fh.write(json.dumps({"totals": totals}) + "\n")
