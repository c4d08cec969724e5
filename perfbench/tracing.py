"""Spans and counters around qsdctl's layers, recorded from outside.

`Tracer.install` replaces every public function of the traced modules,
at every module attribute that binds it (`qsdctl.hjb.solve_qsd` as
well as `qsdctl.qsd.solve_qsd`, and the benchmark's own imports), by a
wrapper that records one span per call: name, start, end, parent span
and the request it belongs to.  `RunManifest.write` is wrapped the
same way.  Self time is a span's duration minus its children's.
Counters come from the returned objects (QSD iterations, policy
iteration sweeps, path jumps, ...) and from wrapping the decision rule
handed to `simulate_thinning` (proposals).  Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

# the layers, as module names under the package
TRACED_MODULES = ("modelfile", "generator", "qsd", "hjb", "asymptotics",
                  "simulate", "policies", "cli", "manifest")


def _jumps(result) -> int:
    return len(result.jumps)


# counters read from a returned value: span name -> (counter, reader)
RESULT_COUNTERS = {
    "qsd.solve_qsd": ("iterations", lambda r: r.iterations),
    "hjb.policy_iteration": ("sweeps", lambda r: len(r.trace.records)),
    "asymptotics.brute_force_control_opt": ("controls", lambda r: r.count),
    "asymptotics.optimize_extinction_rate": ("steps", lambda r: len(r.steps)),
    "simulate.simulate_markov": ("jumps", _jumps),
    "simulate.simulate_thinning": ("jumps", _jumps),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []
        self.reset()

    def reset(self):
        """Clear the aggregates (spans already recorded are kept)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        # (parent name id, name id) -> [calls, self seconds]
        self.edges = defaultdict(lambda: [0, 0.0])

    # -- installation ---------------------------------------------------
    def install(self, package, also=()):
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        owners = [m for name, m in sys.modules.items()
                  if name == package.__name__
                  or name.startswith(package.__name__ + ".")]
        for mod in owners + list(also):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        manifest = modules["manifest"].RunManifest
        self._undo.append((manifest, "write", manifest.write))
        manifest.write = self._wrap(manifest.write, "manifest.write")

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- recording --------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count_rule(self, args, kwargs):
        """Hand simulate_thinning a rule that counts its consultations."""
        args = list(args)
        policy = args[1] if len(args) > 1 else kwargs["policy"]
        rule = policy.rule

        def counted(t, history):
            with self._lock:
                self.counters["simulate.simulate_thinning.proposals"] += 1
            return rule(t, history)
        counted_policy = dataclasses.replace(policy, rule=counted)
        if len(args) > 1:
            args[1] = counted_policy
        else:
            kwargs["policy"] = counted_policy
        return args, kwargs

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        counter = RESULT_COUNTERS.get(name)
        counts_rule = name == "simulate.simulate_thinning"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_rule:
                args, kwargs = self._count_rule(args, kwargs)
            stack = self._stack()
            parent_span, parent_name = stack[-1][:2] if stack else (-1, -1)
            frame = [self._open(nid, parent_span), nid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                trace = getattr(e, "trace", None)
                if name == "hjb.policy_iteration" and trace is not None:
                    with self._lock:
                        self.counters[f"{name}.sweeps"] += len(trace.records)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._close(frame, parent_name, t0, t1)
                if stack:
                    stack[-1][2] += t1 - t0
            if counter is not None:
                key, read = counter
                with self._lock:
                    self.counters[f"{name}.{key}"] += read(result)
            return result
        return wrapper

    def _open(self, nid: int, parent_span: int) -> int:
        with self._lock:
            self.span_name.append(nid)
            self.span_parent.append(parent_span)
            self.span_request.append(self.request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            return len(self.span_name) - 1

    def _close(self, frame, parent_name: int, t0: float, t1: float):
        span, nid, child_s = frame
        own = (t1 - t0) - child_s
        with self._lock:
            self.span_start[span] = t0
            self.span_end[span] = t1
            self.calls[nid] += 1
            self.self_s[nid] += own
            edge = self.edges[(parent_name, nid)]
            edge[0] += 1
            edge[1] += own

    # -- reading ----------------------------------------------------------
    def by_name(self) -> tuple[dict, dict]:
        calls = {self.names[i]: c for i, c in self.calls.items()}
        own = {self.names[i]: s for i, s in self.self_s.items()}
        return calls, own

    def edge(self, parent: str, name: str) -> tuple[int, float]:
        if parent not in self._ids or name not in self._ids:
            return 0, 0.0
        c, s = self.edges.get((self._ids[parent], self._ids[name]), (0, 0.0))
        return c, s

    def write_spans(self, path):
        """One JSON object per line: span index, name, parent span index
        (-1 for none), request index, and start and end in seconds on
        the perf_counter clock."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "span": i, "name": self.names[self.span_name[i]],
                    "parent": self.span_parent[i],
                    "request": self.span_request[i],
                    "start": self.span_start[i],
                    "end": self.span_end[i]}) + "\n")

def layer_metrics(tracer: Tracer, rounds: int, load_self_s: float,
                  overhead_s: float, scale: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round, as name -> (value, unit),
    with self times multiplied by `scale`.  A ratio whose base is zero
    on a workload reads 0."""
    calls, own = tracer.by_name()
    own = {name: s * scale for name, s in own.items()}
    cnt = tracer.counters
    r = float(rounds)

    def per(x):
        return x / r

    def ratio(a, b):
        return a / b if b else 0.0

    out = {"modelfile.load.self_s": (load_self_s, "s")}

    def layer(name, with_calls=True, counters=()):
        if with_calls:
            out[f"{name}.calls"] = (per(calls.get(name, 0)), "count")
        out[f"{name}.self_s"] = (per(own.get(name, 0.0)), "s")
        for c in counters:
            out[f"{name}.{c}"] = (per(cnt.get(f"{name}.{c}", 0.0)), "count")

    layer("generator.build_generator")
    layer("qsd.solve_qsd", counters=("iterations",))
    for name in ("qsd.survival_profile", "qsd.conditional_evolution",
                 "qsd.truncation_sweep"):
        layer(name, with_calls=False)
    layer("hjb.policy_iteration", counters=("sweeps",))
    layer("hjb.evaluate_policy")
    layer("hjb.improve_policy")
    layer("asymptotics.brute_force_control_opt", with_calls=False,
          counters=("controls",))
    layer("asymptotics.optimize_extinction_rate", with_calls=False,
          counters=("steps",))
    attempts, _ = tracer.edge("asymptotics.optimize_extinction_rate",
                              "hjb.policy_iteration")
    steps = cnt.get("asymptotics.optimize_extinction_rate.steps", 0.0)
    out["asymptotics.optimize_extinction_rate.attempts"] = (per(attempts),
                                                            "count")
    out["asymptotics.optimize_extinction_rate.useful_ratio"] = (
        ratio(steps, attempts), "ratio")
    for name in ("asymptotics.limit_theorem_check",
                 "asymptotics.corollary_spot_check"):
        layer(name, with_calls=False)
    layer("simulate.simulate_markov", counters=("jumps",))
    _, under_cli = tracer.edge("cli.main", "simulate.simulate_markov")
    out["simulate.simulate_markov.under_cli.self_s"] = (per(under_cli * scale),
                                                         "s")
    layer("simulate.simulate_thinning", counters=("jumps", "proposals"))
    thin_jumps = cnt.get("simulate.simulate_thinning.jumps", 0.0)
    out["simulate.simulate_thinning.accept_ratio"] = (
        ratio(thin_jumps, cnt.get("simulate.simulate_thinning.proposals", 0.0)),
        "ratio")
    sim_s = (own.get("simulate.simulate_markov", 0.0)
             + own.get("simulate.simulate_thinning", 0.0))
    out["simulate.events_per_s"] = (
        ratio(cnt.get("simulate.simulate_markov.jumps", 0.0) + thin_jumps,
              sim_s), "1/s")
    for name in ("simulate.estimate_survival",
                 "simulate.estimate_conditional_law", "simulate.estimate_cost",
                 "cli.main", "manifest.write"):
        layer(name, with_calls=False)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
