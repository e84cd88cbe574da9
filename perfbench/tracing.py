"""Spans around the public functions of weylift's layers, from outside it.

``Tracer.install`` replaces each traced function with a wrapper: module
functions in every weylift module that imported them, methods on their
class. A wrapper records a span (name, start, end, parent, job) in memory
and, for some layers, a work counter taken from the arguments or the
result. ``fields`` is not wrapped: it gets more than 10^5 calls a pass, so
a wrapper would cost more than the work it times. Its cost shows in the
``weyl.mul.*.Q`` rows against the ``weyl.mul.*.Fp`` rows.

Spans are written to a gzipped file when the run ends. A span's self
time is its duration minus the time its child spans cover.
Calls nest and the benchmark runs one thread, so children never overlap
and the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from math import comb


def _field(elt):
    return "Q" if elt.field.char == 0 else "Fp"


def _product(prefix, variant):
    """Namer for a binary product; None skips scaling by an int."""

    def namer(self, other, *rest, **kwargs):
        if isinstance(other, int):
            return None
        return f"{prefix}.{variant(self)}" if variant else prefix

    return namer


def _terms_out(tr, name, args, kwargs, out):
    tr.stats[name]["terms_out"] += out.num_terms()


def _max_terms_out(tr, name, args, kwargs, out):
    st = tr.stats[name]
    st["max_terms_out"] = max(st["max_terms_out"], out.num_terms())


def _letters_in(tr, name, args, kwargs, out):
    tr.stats[name]["letters_in"] += len(args[0])


def _waring(tr, name, args, kwargs, out):
    st = tr.stats[name]
    st["terms_out"] += len(out)
    if out:
        # dimension of the space of degree-d forms in g variables
        g, d = args[0].flavor.main_count, out[0].degree
        st["dims"] += comb(g + d - 1, d)


def _corrector(tr, name, args, kwargs, out):
    term = args[0]
    key = (tr.job, term.covector, term.degree)
    if key not in tr.seen_correctors:
        tr.seen_correctors.add(key)
        tr.stats[name]["distinct"] += 1


def _lift(tr, name, args, kwargs, out):
    cert = out[1]
    st = tr.stats[name]
    statuses = [entry.get("status") for entry in cert["primes"].values()]
    st["primes"] += len(statuses)
    st["primes_exact"] += statuses.count("exact")
    st["truncated"] += cert["representation"] == "truncated_haug"


#: (module, class or None, attribute, span name or namer, counter hook)
TARGETS = (
    ("cli", None, "run_command", "cli.run_command", None),
    ("grammar", None, "parse_element", "grammar.parse_element", None),
    ("grammar", None, "element_to_text", "grammar.element_to_text", None),
    ("approx", None, "approximate", "approx.approximate", None),
    ("approx", None, "deviation_hamiltonian", "approx.deviation_hamiltonian", None),
    ("approx", None, "symplectic_completion", "approx.symplectic_completion", None),
    ("approx", None, "waring_decompose", "approx.waring_decompose", _waring),
    ("approx", None, "corrector", "approx.corrector", _corrector),
    ("endo", "Endo", "compose", lambda self, *a, **k: f"endo.compose.{self.side}", None),
    ("endo", "Endo", "apply", lambda self, *a, **k: f"endo.apply.{self.side}", _max_terms_out),
    ("poly", "Poly", "__mul__", _product("poly.mul", None), _terms_out),
    ("poly", "Poly", "mul_truncated", "poly.mul_truncated", _terms_out),
    ("tame", None, "evaluate", lambda word, side, *a, **k: f"tame.evaluate.{side}", _letters_in),
    ("tame", None, "gen_endo", "tame.gen_endo", None),
    ("weyl", "WeylElt", "__mul__",
     _product("weyl.mul", lambda e: f"{e.flavor.kind}.{_field(e)}"), _terms_out),
    ("weyl", "WeylElt", "mul_truncated",
     lambda self, *a, **k: f"weyl.mul_truncated.{self.flavor.kind}", None),
    ("weyl", None, "pth_power", "weyl.pth_power", _max_terms_out),
    ("weyl", None, "is_central", "weyl.is_central", None),
    ("charp", None, "phi_p", "charp.phi_p", None),
    ("charp", None, "restrict_to_center", "charp.restrict_to_center", None),
    ("singlift", None, "lift", "singlift.lift", _lift),
    ("singlift", None, "lifted_commutation_check", "singlift.lifted_commutation_check", None),
    ("singlift", None, "hn_scan", "singlift.hn_scan", None),
    ("singlift", None, "conjugate_by_curve", "singlift.conjugate_by_curve", None),
    ("singlift", None, "pole_order", "singlift.pole_order", None),
    ("singlift", None, "position_reduction", "singlift.position_reduction", None),
)


class Tracer:
    """In-memory spans and counters for the traced passes of one run.

    Spans are kept column-wise in arrays, about 30 bytes each, since a pass
    of the approx workload records more than half a million of them.
    """

    def __init__(self):
        self.names = {}  # span name -> id
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack = []
        self.job = -1  # run number of the job being traced
        self.stats = defaultdict(lambda: defaultdict(int))
        self.seen_correctors = set()
        self._undo = []

    def _wrap(self, fn, namer, hook):
        names, stack, clock = self.names, self.stack, time.perf_counter
        name_id, start, end, parent, job_of = (
            self.name_id, self.start, self.end, self.parent, self.job_of
        )

        def wrapper(*args, **kwargs):
            name = namer(*args, **kwargs) if callable(namer) else namer
            if name is None:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(names.setdefault(name, len(names)))
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "weylift" or n.startswith("weylift.")]
        for mod_name, cls_name, attr, namer, hook in TARGETS:
            mod = sys.modules[f"weylift.{mod_name}"]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, namer, hook))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, namer, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def per_job_self(self):
        """{job run: summed self time of its spans}."""
        out = defaultdict(float)
        for job, own in zip(self.job_of, self.self_times()):
            out[job] += own
        return out

    def layer_values(self, passes):
        """{span name: {stat: value per pass}} for every recorded span name."""
        label = {i: name for name, i in self.names.items()}
        lift, approximate = self.names.get("singlift.lift"), self.names.get("approx.approximate")
        agg = defaultdict(lambda: defaultdict(float))
        rows = zip(self.name_id, self.start, self.end, self.parent, self.self_times())
        for nid, start, end, parent, own in rows:
            a = agg[label[nid]]
            a["calls"] += 1
            a["self_ms"] += own * 1000
            a["total_ms"] += (end - start) * 1000
            if nid == approximate and parent >= 0 and self.name_id[parent] == lift:
                agg["singlift.lift"]["approximate_calls"] += 1
        out = {}
        for name, a in agg.items():
            row = {k: v / passes for k, v in a.items()}
            st = self.stats.get(name, {})
            for key, value in st.items():
                row[key] = value if key.startswith("max_") else value / passes
            calls = row["calls"]
            if name == "approx.waring_decompose":
                row["terms_per_dim"] = st["terms_out"] / st["dims"] if st.get("dims") else 0.0
            if name == "approx.corrector":
                row["distinct_ratio"] = st["distinct"] / (calls * passes)
            if name == "singlift.lift":
                row["approximate_calls_per_lift"] = row.get("approximate_calls", 0) / calls
                row["prime_exact_ratio"] = st["primes_exact"] / st["primes"] if st.get("primes") else 0.0
                row["truncated_ratio"] = st["truncated"] / (calls * passes)
            out[name] = row
        return out

    def dump(self, path):
        """Write the spans, gzipped: a line of span names, then one
        tab-separated line per span (name id, start, end, parent, job run)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(sorted(self.names, key=self.names.get)) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.job_of):
                fh.write("%d\t%.7f\t%.7f\t%d\t%d\n" % row)
