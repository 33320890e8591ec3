"""Per-layer tracing of diffmonads from outside the program.

A :class:`Tracer` replaces public functions and methods of the library's
modules with wrappers, found by attribute name.  Span wrappers record
(name, start, end, parent, op) in memory; count wrappers only bump a counter,
because a span would cost more than the operation it measures.  Self time of
a span is its duration minus the time covered by its children; spans nest
strictly because the workloads run single-threaded.

Hooks whose target no longer exists (a renamed class, a removed method) are
reported as absent instead of failing the run, so that refactors of the
library can still be measured.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "diffmonads"
ELEMENT_MODULES = ("powerseries", "dividedpower", "zinbiel")
AXIOMS = ("CD.1", "CD.2", "CD.3", "CD.4", "CD.5", "CD.6", "CD.7",
          "dc.1", "dc.2", "dc.3", "dc.4", "dc.5", "dc.6",
          "monad.assoc", "monad.unit-left", "monad.unit-right",
          "du.1", "du.2")
COMMANDS = ("check", "derive", "mul", "compose", "dpow", "convert")
SCALAR_OPS = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
              "__truediv__", "__pow__", "inv")


@dataclass(frozen=True)
class Hook:
    """One wrapped target: ``module.Class.attr`` or ``module.function``.

    ``kind`` is "count" (counter only, nested calls of the same group are
    not counted again) or "span".  ``names`` are the span names the hook can
    produce; ``stats`` the statistics exported for each of them.  A
    ``split`` hook names its span from the call's arguments.
    """

    module: str
    target: str
    metric: str
    kind: str = "span"
    stats: tuple = ("calls", "self_s")
    names: tuple = ()
    split: object = None
    element: bool = False

    def span_names(self) -> tuple:
        return self.names or (self.metric,)


def _linear_split(args, kwargs) -> str:
    subs = args[1] if len(args) > 1 else kwargs["args"]
    linear = all(d == 1 for a in subs for d in a.degrees())
    return "linear" if linear else "nonlinear"


def _axiom_split(args, kwargs) -> str:
    return args[0] if args else kwargs["axiom"]


def _command_split(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


def _hooks() -> list[Hook]:
    hooks = [Hook("scalars", f"Scalar.{op}", "scalars.ops", "count",
                  ("calls",)) for op in SCALAR_OPS]
    hooks += [Hook("powerseries", f"MultiIndex.{op}",
                   "powerseries.key_products", "count", ("calls",))
              for op in ("make", "mul")]
    element_classes = {"powerseries": "SeriesElement",
                       "dividedpower": "DPElement", "zinbiel": "ZinElement"}
    for mod, cls in element_classes.items():
        hooks.append(Hook(mod, f"{cls}.substitute", f"{mod}.substitute",
                          names=(f"{mod}.substitute.linear",
                                 f"{mod}.substitute.nonlinear"),
                          split=_linear_split, element=True))
        hooks.append(Hook(mod, f"{cls}.partial_combinator",
                          f"{mod}.partial_combinator", element=True))
    hooks += [
        Hook("powerseries", "SeriesElement.__mul__", "powerseries.mul",
             element=True),
        Hook("dividedpower", "DPElement.__mul__", "dividedpower.mul",
             element=True),
        Hook("dividedpower", "DPElement.divided_power",
             "dividedpower.divided_power", element=True),
        Hook("zinbiel", "ZinElement.half_shuffle", "zinbiel.half_shuffle",
             element=True),
        Hook("generators", "random_element", "generators.random_element"),
        Hook("syntax", "parse_element", "syntax.parse_element"),
        Hook("syntax", "format_element", "syntax.format_element"),
        Hook("cdc", "compose", "cdc.compose"),
        Hook("cdc", "differentiate", "cdc.differentiate"),
        Hook("cdc", "run_axiom", "cdc.axiom", stats=("total_s",),
             names=tuple(f"cdc.axiom.{a}" for a in AXIOMS),
             split=_axiom_split),
        Hook("cdc", "make_theory", "cdc.make_theory", stats=("total_s",)),
        Hook("cli", "build_parser", "cli.build_parser", stats=("self_s",)),
        Hook("cli", "main", "cli.main", stats=("calls", "total_s"),
             names=tuple(f"cli.main.{c}" for c in COMMANDS),
             split=_command_split),
    ]
    return hooks


HOOKS = _hooks()
COUNTED = {h.metric for h in HOOKS if h.kind == "count"}


def _hook_metrics(hook: Hook) -> list[str]:
    return [f"{name}.{stat}" for name in hook.span_names()
            for stat in hook.stats]


def layer_metric_names(config_names) -> list[str]:
    """Every per-layer metric, in a stable order."""
    names: list[str] = []
    for hook in HOOKS:
        for m in _hook_metrics(hook):
            if m not in names:
                names.append(m)
    for mod in ELEMENT_MODULES:
        names += [f"{mod}.terms_out", f"{mod}.peak_support",
                  f"{mod}.max_degree"]
    names += [f"cdc.config.{c}.total_s" for c in config_names]
    names.append("trace.overhead_frac")
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".max_degree"):
        return "degree"
    if metric == "trace.overhead_frac":
        return "ratio"
    return "count"


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


@dataclass
class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    element_stats: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    op: int = -1
    _next_id: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        """Open a span; spans are stored as tuples once closed."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((span_id, name, parent, time.perf_counter_ns()))

    def end(self) -> None:
        """Close the innermost open span."""
        end = time.perf_counter_ns()
        sid, name, parent, start = self._stack.pop()
        self.spans.append((name, start, end, parent, self.op, sid))

    def _observe(self, module: str, result) -> None:
        coeffs = getattr(result, "coeffs", None)
        if coeffs is None:
            return
        stats = self.element_stats.setdefault(module, [0, 0, 0])
        stats[0] += len(coeffs)
        stats[1] = max(stats[1], len(coeffs))
        stats[2] = max([stats[2], *result.degrees()])

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, hook: Hook, fn):
        tracer = self
        split = hook.split
        base = hook.metric
        module = hook.module if hook.element else None

        def wrapper(*args, **kwargs):
            name = f"{base}.{split(args, kwargs)}" if split else base
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if module is not None:
                tracer._observe(module, result)
            return result

        return wrapper

    def _count_wrapper(self, hook: Hook, fn, depth: dict):
        counts = self.counts
        group = hook.metric

        def wrapper(*args, **kwargs):
            if depth[group]:
                return fn(*args, **kwargs)
            depth[group] = 1
            counts[group] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[group] = 0

        return wrapper

    def _wrap(self, hook: Hook, fn, depth: dict):
        if hook.kind == "count":
            return self._count_wrapper(hook, fn, depth)
        return self._span_wrapper(hook, fn)

    def install(self) -> None:
        depth: dict = defaultdict(int)
        missing: list = []
        for hook in HOOKS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{hook.module}")
            except ImportError:
                mod = None
            owner_name, _, attr = hook.target.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(hook)
            elif owner_name:
                self._patch_class(owner, raw, hook, depth)
            else:
                self._patch_function(raw, hook, depth)
        installed = {m for h in HOOKS if h not in missing
                     for m in _hook_metrics(h)}
        self.absent = sorted({m for h in missing for m in _hook_metrics(h)}
                             - installed)

    def _patch_class(self, cls, raw, hook: Hook, depth: dict) -> None:
        """Wrap a method and every alias of it (``__rmul__ = __mul__``)."""
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(hook, raw.__func__, depth))
        else:
            wrapped = self._wrap(hook, raw, depth)
        for name, value in list(vars(cls).items()):
            if value is raw:
                self._patches.append(_Patch(cls, name, raw))
                setattr(cls, name, wrapped)

    def _patch_function(self, fn, hook: Hook, depth: dict) -> None:
        """Wrap a function in every library module that imported it."""
        wrapped = self._wrap(hook, fn, depth)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or
                                   mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append(_Patch(mod, name, fn))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for p in reversed(self._patches):
            setattr(p.owner, p.attr, p.original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> [calls, total_ns, self_ns]."""
        child_ns: dict = defaultdict(int)
        for _, start, end, parent, _, _ in self.spans:
            child_ns[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0, 0])
        for name, start, end, _, _, sid in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[sid]
        return out

    def metrics(self, names: list[str], overhead_frac: float) -> dict:
        totals = self.span_totals()
        values: dict = {}
        for metric in names:
            if metric in self.absent:
                continue
            base, _, stat = metric.rpartition(".")
            if metric == "trace.overhead_frac":
                values[metric] = overhead_frac
            elif base in COUNTED:
                values[metric] = self.counts[base]
            elif stat in ("terms_out", "peak_support", "max_degree"):
                stats = self.element_stats.get(base, [0, 0, 0])
                values[metric] = stats[("terms_out", "peak_support",
                                        "max_degree").index(stat)]
            else:
                calls, total_ns, self_ns = totals.get(base, (0, 0, 0))
                values[metric] = {"calls": calls, "total_s": total_ns / 1e9,
                                  "self_s": self_ns / 1e9}[stat]
        return values

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op, id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
