"""Span tracer for the traced benchmark run.

It wraps catprob's public callables in place, under every name they are
bound to, so a call through `diagram.cond_exp` or `cli.make_dyadic` lands in
the same span as one through `finrv.cond_exp`.  Spans (name, start, end,
parent) stay in memory; self time is a span's duration minus the part its
child spans cover.  Work counters are computed from a call's arguments (or,
for constructors, from the built object) after its span has closed, so they
repeat exactly from run to run.  Nothing in the library is edited: `uninstall`
restores every patched attribute.
"""
import collections
import contextlib
import dataclasses
import functools
import importlib
import inspect
import time

#: Modules whose public functions and constructors get spans.  `jsonio` is
#: traced by the workloads themselves, around whole encode/decode steps, and
#: `scalar.coerce` is too hot to time, so it is only counted.
SPAN_LAYERS = ("finprob", "finrv", "finmeas", "diagram", "metcat", "sampling", "suites", "cli")
ALL_MODULES = ("scalar", "errors") + SPAN_LAYERS + ("jsonio",)
METHODS = (("diagram", "DyadicGround", "interval_average"),)

#: Spans reported with `.calls` and `.self_s`.
REPORTED_SPANS = (
    "diagram.FiltrationDiagram",
    "diagram.validate",
    "diagram.Martingale",
    "diagram.ConsistentMeasureFamily",
    "diagram.is_martingale",
    "diagram.make_dyadic",
    "diagram.dyadic_error",
    "diagram.DyadicGround.interval_average",
    "diagram.martingale_limit",
    "diagram.kolmogorov_extend",
    "diagram.second_moment_identity_report",
    "finrv.cond_exp",
    "finrv.l1_distance",
    "finrv.second_moment",
    "finrv.pullback",
    "finrv.FiniteRandomVariable",
    "finmeas.pushforward",
    "finmeas.tv_distance",
    "finmeas.rho",
    "finmeas.rn_derivative",
    "finmeas.FiniteMeasure",
    "finprob.FiniteProbSpace",
    "finprob.MeasurePreservingMap",
    "finprob.compose",
    "finprob.map_distance",
    "metcat.FinPseudometricSpace",
    "metcat.LipschitzMap",
    "metcat.product",
    "metcat.tensor",
    "metcat.coproduct",
    "metcat.coequalizer",
    "metcat.curry",
    "metcat.uncurry",
    "metcat.metric_reflection",
    "jsonio.encode",
    "jsonio.decode",
)

#: Layers reported as a whole (`<layer>.self_s`): the sum of the self times
#: of all their spans, reported or not.
LAYER_TOTALS = ("diagram", "finrv", "finmeas", "finprob", "metcat", "jsonio", "sampling", "suites", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _triple_atoms(args, kwargs):
    """Sum of the finest space's atoms over all triples i <= j <= k."""
    d = _arg(args, kwargs, 0, "d")
    below = {j: sum(1 for i in d.elements if d.le(i, j)) for j in d.elements}
    return sum(
        d.spaces[k].size * sum(below[j] for j in d.elements if d.le(j, k))
        for k in d.elements
    )


def _gray_steps(args, kwargs):
    """2^(k-1) for the k codomain atoms joined by a positive-mass conflict."""
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    verts = set()
    for a, w in zip(f.src.atoms, f.src.weights):
        if w != 0 and f.assign[a] != g.assign[a]:
            verts.update((f.assign[a], g.assign[a]))
    return 1 << (len(verts) - 1) if verts else 0


#: Work counters: span name -> (counter suffix, amount from (args, kwargs)).
#: For constructors args[0] is the finished object.
WORK = {
    "diagram.validate": ("triple_atoms", _triple_atoms),
    "finrv.cond_exp": ("atoms", lambda a, k: _arg(a, k, 1, "s").src.size),
    "finprob.FiniteProbSpace": ("atoms", lambda a, k: a[0].size),
    "finprob.MeasurePreservingMap": ("atoms", lambda a, k: a[0].src.size),
    "finprob.map_distance": ("gray_steps", _gray_steps),
    "metcat.FinPseudometricSpace": ("triples", lambda a, k: a[0].size ** 3),
    "metcat.LipschitzMap": ("pairs", lambda a, k: a[0].src.size ** 2),
}
COUNTERS = tuple("%s.%s" % (name, suffix) for name, (suffix, _) in WORK.items()) + (
    "jsonio.encode.bytes",
    "jsonio.decode.bytes",
    "scalar.coerce.calls",
)


def metric_catalogue():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in REPORTED_SPANS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out.extend((key, "bytes" if key.endswith(".bytes") else "count", "lower") for key in COUNTERS)
    out.extend((layer + ".self_s", "s", "lower") for layer in LAYER_TOTALS)
    out.extend(
        [
            ("diagram.dyadic_doubling_ratio", "ratio", "lower"),
            ("trace.overhead_frac", "fraction", "lower"),
            ("host.ref_loop_s", "s", "lower"),
            ("host.nproc", "count", "higher"),
        ]
    )
    return out


class NullProbe:
    """Stand-in for Tracer when tracing is off."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, key, amount):
        pass


class Tracer:
    def __init__(self):
        #: one (name, start_ns, end_ns, covered_until_ns, parent) per span;
        #: the parent's self time excludes [start, covered_until], which also
        #: holds the child's counter bookkeeping
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._plan = None
        self._saved = []

    # -- recording -------------------------------------------------------------

    def _traced(self, name, fn, work=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        now = time.perf_counter_ns
        key = None if work is None else "%s.%s" % (name, work[0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = now()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = now()
                stack.pop()
                spans[idx] = (name, t0, t1, t1, parent)
                raise
            t1 = now()
            stack.pop()
            if key is not None:
                counts[key] += work[1](args, kwargs)
            spans[idx] = (name, t0, t1, now(), parent)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of benchmark code that calls into a layer."""
        t0 = time.perf_counter_ns()
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, t1, parent)

    def count(self, key, amount):
        self.counts[key] += amount

    # -- patching --------------------------------------------------------------

    def _build_plan(self):
        """(owner, attribute, replacement) for every binding to patch."""
        package = importlib.import_module("catprob")
        modules = [package] + [importlib.import_module("catprob." + m) for m in ALL_MODULES]
        plan = []
        for layer in SPAN_LAYERS:
            mod = importlib.import_module("catprob." + layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isclass(obj):
                    if dataclasses.is_dataclass(obj) or "__init__" not in vars(obj):
                        continue
                    plan.append((obj, "__init__", self._traced(name, obj.__init__, WORK.get(name))))
                elif inspect.isfunction(obj):
                    wrapper = self._traced(name, obj, WORK.get(name))
                    plan.extend(
                        (m, bound, wrapper)
                        for m in modules
                        for bound, value in vars(m).items()
                        if value is obj
                    )
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module("catprob." + layer), cls_name)
            name = "%s.%s.%s" % (layer, cls_name, method)
            plan.append((cls, method, self._traced(name, getattr(cls, method))))
        scalar = importlib.import_module("catprob.scalar")
        coerce, counts = scalar.coerce, self.counts

        def counted_coerce(value, backend):
            counts["scalar.coerce.calls"] += 1
            return coerce(value, backend)

        plan.append((scalar, "coerce", counted_coerce))
        return plan

    def install(self):
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, replacement in self._plan:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Per-span calls and self time, layer self times and work counters."""
        covered = [0] * len(self.spans)
        for _, t0, _, t2, parent in self.spans:
            if parent >= 0:
                covered[parent] += t2 - t0
        calls = collections.Counter()
        self_ns = collections.Counter()
        layer_ns = collections.Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            own = t1 - t0 - covered[i]
            calls[name] += 1
            self_ns[name] += own
            layer_ns[name.split(".", 1)[0]] += own
        out = {}
        for name in REPORTED_SPANS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_ns[name] / 1e9
        for key in COUNTERS:
            out[key] = self.counts[key]
        for layer in LAYER_TOTALS:
            out[layer + ".self_s"] = layer_ns[layer] / 1e9
        return out

    def dump(self):
        """The raw spans, with times in ns relative to the first span."""
        base = self.spans[0][1] if self.spans else 0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[n], t0 - base, t1 - base, p] for n, t0, t1, _, p in self.spans],
        }
