"""Outside-in span tracer and the per-layer metrics computed from its spans.

The tracer replaces public functions in the namespace of the module that
*calls* them: ``from .optim import bfgs`` gives ``graybox.nullspace`` its own
binding, so wrapping ``graybox.optim.bfgs`` alone would miss every solver
call.  Spans (name, start, end, parent, request) live in flat arrays and are
written out once, at the end of the run.  Nothing inside the package changes.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns


def _bfgs_note(args, result):
    try:
        return result.iterations, result.f_best, result.status
    except AttributeError:
        return None


def _point_note(args, result):
    """Fingerprint of the evaluation point: the array arguments among the first two."""
    return hash(tuple(a.tobytes() for a in args[:2] if hasattr(a, "tobytes")))


# (module, attribute, span name, note taken from the arguments and the return
# value).  A wrap point whose attribute no longer exists is recorded as
# missing; the metrics that depend on it are then reported as null instead of
# failing the run.
WRAP_POINTS = (
    ("graybox.nullspace", "solve_nullspace", "nullspace.solve", None),
    ("graybox.nullspace", "solution_space", "nullspace.setup", None),
    ("graybox.nullspace", "structure_projector", "nullspace.setup", None),
    ("graybox.nullspace", "reduced_distance", "nullspace.f", _point_note),
    ("graybox.nullspace", "structure_distance_grad", "nullspace.g", _point_note),
    ("graybox.nullspace", "extract_realization", "nullspace.extract", None),
    ("graybox.nullspace", "bfgs", "nullspace.bfgs", _bfgs_note),
    ("graybox.lsq", "solve_lsq", "lsq.solve", None),
    ("graybox.lsq", "cost", "lsq.f", _point_note),
    ("graybox.lsq", "grad_theta", "lsq.g_theta", None),
    ("graybox.lsq", "grad_t", "lsq.g", _point_note),
    ("graybox.lsq", "eval_structure", "lsq.eval_structure", None),
    ("graybox.lsq", "bfgs", "lsq.bfgs", _bfgs_note),
    ("graybox.optim", "line_search_wolfe", "optim.line_search", None),
)

BFGS = ("nullspace.bfgs", "lsq.bfgs")
OPTIM = BFGS + ("optim.line_search",)
EVAL_KIND = {"nullspace.f": "f", "lsq.f": "f", "nullspace.g": "g", "lsq.g": "g"}

# name, unit, better.  Per-solve values are averages over every traced solve.
PER_LAYER = (
    ("nullspace.g_calls", "count/solve", "lower"),
    ("nullspace.g_us", "us", "lower"),
    ("nullspace.f_calls", "count/solve", "lower"),
    ("nullspace.f_us", "us", "lower"),
    ("nullspace.setup_us", "us", "lower"),
    ("nullspace.extract_calls", "count/solve", "lower"),
    ("nullspace.starts", "count/solve", "lower"),
    ("nullspace.best_start_share", "share", "higher"),
    ("nullspace.solve_s", "s", "lower"),
    ("nullspace.solve_share", "share", "lower"),
    ("optim.iters", "count/solve", "lower"),
    ("optim.max_iters_hits", "count/solve", "lower"),
    ("optim.reeval_share", "share", "lower"),
    ("optim.ls_calls", "count/solve", "lower"),
    ("optim.ls_trials_per_iter", "count/iter", "lower"),
    ("optim.self_s", "s", "lower"),
    ("lsq.f_calls", "count/solve", "lower"),
    ("lsq.f_us", "us", "lower"),
    ("lsq.g_calls", "count/solve", "lower"),
    ("lsq.g_us", "us", "lower"),
    ("lsq.eval_structure_calls", "count/solve", "lower"),
    ("lsq.solve_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit0", "share", "higher"),
    ("cli.exit3", "share", "lower"),
    ("cli.exit4", "share", "lower"),
    ("cli.exit_other", "share", "lower"),
    ("model.generate_us", "us", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


class Tracer:
    """Records nested spans of one thread; one request id per solve."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("i")
        self.notes: dict[int, object] = {}
        self.request = -1
        self._stack = [-1]
        self.live: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request_of.append(self.request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes."""
        self.live.add(name)
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        target = getattr(module, attr, None)
        if target is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        nid = self._id(name)
        self.live.add(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = target(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.notes[idx] = note(args, out)
            return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, target))

    def wrap_all(self, modules: dict) -> None:
        for module_name, attr, name, note in WRAP_POINTS:
            self.wrap(modules[module_name], attr, name, note)

    def unwrap(self) -> None:
        for module, attr, target in reversed(self._restore):
            setattr(module, attr, target)
        self._restore.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,request,name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.request_of[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.parent[i]}\n")


def layer_metrics(tr: Tracer, solves: int, exits: list[int], untraced_mean: float,
                  traced_mean: float, time_scale: float = 1.0) -> dict:
    """Per-layer metrics of the traced solves (request ids >= 0).

    Self time is a span's duration minus that of its direct children; spans
    of one thread nest, so the children never overlap.  Times are multiplied
    by ``time_scale``, the factor to nominal machine speed.
    """
    n = len(tr.start)
    names = [tr.names[i] for i in tr.name_id]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            child[tr.parent[i]] += dur[i]
    count: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    iters = max_hits = ls_trials = reeval = evals = 0
    best_iters = start_iters = 0
    starts_by_request: dict[int, list] = {}
    # (bfgs span, kind) -> point of the last such evaluation its line search made
    last_ls_point: dict[tuple[int, str], int] = {}
    for i in range(n):
        name = names[i]
        if tr.request_of[i] < 0 and name != "model.generate":
            continue
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur[i]
        self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]
        kind = EVAL_KIND.get(name)
        parent = tr.parent[i]
        if kind is not None:
            evals += 1
            pname = names[parent] if parent >= 0 else ""
            if pname in BFGS:
                reeval += tr.notes[i] == last_ls_point.get((parent, kind))
            elif pname == "optim.line_search":
                last_ls_point[(tr.parent[parent], kind)] = tr.notes[i]
                ls_trials += kind == "f"
        note = tr.notes.get(i)
        if name in BFGS and note is not None:
            iters += note[0]
            max_hits += note[2] == "max-iters"
            if name == "nullspace.bfgs":
                starts_by_request.setdefault(tr.request_of[i], []).append(note)
    for notes in starts_by_request.values():
        best_iters += min(notes, key=lambda note: note[1])[0]
        start_iters += sum(note[0] for note in notes)

    def c(name):
        return count.get(name, 0)

    def per_call_us(name):
        return total.get(name, 0) / c(name) / 1e3 if c(name) else 0.0

    lsq_g_ns = total.get("lsq.g", 0) + total.get("lsq.g_theta", 0)
    formulas = {
        "nullspace.g_calls": (("nullspace.g",), lambda: c("nullspace.g") / solves),
        "nullspace.g_us": (("nullspace.g",), lambda: per_call_us("nullspace.g")),
        "nullspace.f_calls": (("nullspace.f",), lambda: c("nullspace.f") / solves),
        "nullspace.f_us": (("nullspace.f",), lambda: per_call_us("nullspace.f")),
        "nullspace.setup_us": (("nullspace.setup",),
                               lambda: total.get("nullspace.setup", 0) / solves / 1e3),
        "nullspace.extract_calls": (("nullspace.extract",),
                                    lambda: c("nullspace.extract") / solves),
        "nullspace.starts": (("nullspace.bfgs",), lambda: c("nullspace.bfgs") / solves),
        "nullspace.best_start_share": (("nullspace.bfgs",),
                                       lambda: best_iters / start_iters if start_iters else 0.0),
        "nullspace.solve_s": (("nullspace.solve",),
                              lambda: total.get("nullspace.solve", 0) / solves / 1e9),
        "nullspace.solve_share": (("nullspace.solve", "cli.main"),
                                  lambda: total.get("nullspace.solve", 0) / total["cli.main"]),
        "optim.iters": (BFGS, lambda: iters / solves),
        "optim.max_iters_hits": (BFGS, lambda: max_hits / solves),
        "optim.reeval_share": (BFGS + ("nullspace.f", "nullspace.g", "lsq.f", "lsq.g"),
                               lambda: reeval / evals if evals else 0.0),
        "optim.ls_calls": (("optim.line_search",), lambda: c("optim.line_search") / solves),
        "optim.ls_trials_per_iter": (BFGS + ("optim.line_search", "nullspace.f", "lsq.f"),
                                     lambda: ls_trials / iters if iters else 0.0),
        "optim.self_s": (OPTIM, lambda: sum(self_ns.get(s, 0) for s in OPTIM) / solves / 1e9),
        "lsq.f_calls": (("lsq.f",), lambda: c("lsq.f") / solves),
        "lsq.f_us": (("lsq.f",), lambda: per_call_us("lsq.f")),
        "lsq.g_calls": (("lsq.g",), lambda: c("lsq.g") / solves),
        "lsq.g_us": (("lsq.g", "lsq.g_theta"),
                     lambda: lsq_g_ns / c("lsq.g") / 1e3 if c("lsq.g") else 0.0),
        "lsq.eval_structure_calls": (("lsq.eval_structure",),
                                     lambda: c("lsq.eval_structure") / solves),
        "lsq.solve_s": (("lsq.solve",), lambda: total.get("lsq.solve", 0) / solves / 1e9),
        "cli.self_s": (("cli.main",), lambda: self_ns["cli.main"] / solves / 1e9),
        "cli.exit0": ((), lambda: exits.count(0) / len(exits)),
        "cli.exit3": ((), lambda: exits.count(3) / len(exits)),
        "cli.exit4": ((), lambda: exits.count(4) / len(exits)),
        "cli.exit_other": ((), lambda: sum(e not in (0, 3, 4) for e in exits) / len(exits)),
        "model.generate_us": (("model.generate",), lambda: per_call_us("model.generate")),
        "trace.overhead_share": ((), lambda: (traced_mean - untraced_mean) / untraced_mean),
    }
    values = {}
    for name, unit, _ in PER_LAYER:
        needs, formula = formulas[name]
        value = formula() if all(s in tr.live for s in needs) else None
        if value is not None and unit in ("s", "us"):
            value *= time_scale
        values[name] = (value, unit)
    return values
