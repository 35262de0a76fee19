"""Per-layer tracing of the bridgestate package from outside its source.

``Tracer.install()`` replaces every module-level function of each package
module (the layers) with a wrapper that records a span (id, parent, name,
start, end) and rebinds the wrapper in every ``bridgestate`` module that
imported the same function object, so calls through any binding are seen.
Two methods of ``LaurentPolynomial`` are wrapped to count instances and
multiplications only; a span per polynomial operation would swamp the run.
``uninstall()`` puts every original object back.

Spans stay in memory and each process writes its own file when it ends:
the run process from ``Tracer.write``, and forked pool workers from a
multiprocessing finaliser, so worker spans carry the parent process's open
span as their parent.  ``layer_metrics`` turns the files of one command
into the per-layer metrics, using self times derived from the span tree.
"""

import functools
import json
import os
import pickle
import resource
import sys
import time
import types
from collections import Counter
from multiprocessing import util as mp_util

LAYERS = (
    "continued_fractions",
    "surfaces",
    "state_matrices",
    "laurent",
    "invariants",
    "checks",
    "census",
    "cli",
)

# Self-time metric for each layer's functions; a function not listed under
# its layer lands in the layer's first metric.
SELF_TIME_GROUPS = {
    "continued_fractions": {"continued_fractions.enumerate_s": ()},
    "surfaces": {"surfaces.essential_surfaces_s": ()},
    "state_matrices": {"state_matrices.build_s": ()},
    "laurent": {},  # frac() and laurent() only: no metric of their own
    "invariants": {
        "invariants.full_report_s": (),
        "invariants.det_s": ("_det_scaled",),
        "invariants.minor_signature_s": (
            "_minor_signature", "state_signature_minors"),
        "invariants.oracle_s": (
            "state_polynomial_oracle", "_cofactor_det",
            "characteristic_matrix", "oracle_size_bound"),
        "invariants.symmetric_signature_s": ("symmetric_signature",),
    },
    "checks": {
        "checks.fast_s": (),
        "checks.oracle_s": ("_check_surface_oracle", "check_negative_control"),
        "checks.invariance_s": (
            "check_transformation_invariance", "apply_random_transformations",
            "permuted_state_matrix", "random_expansion"),
        "checks.multiset_s": ("invariant_multiset", "_surface_key"),
        "checks.presentations_s": ("_check_presentations",),
    },
    "census": {
        "census.render_s": (),
        "census.report_to_dict_s": (
            "report_to_dict", "poly_to_dict", "poly_coeffs_2k"),
        "census.rows_s": ("census_rows", "census_row", "_census_row_star"),
    },
    "cli": {"cli.self_s": ()},
}

MATRIX_BUILDERS = (
    "state_matrix", "standard_state_matrix", "flip_normal",
    "flip_orientation", "gl_matrix",
)


def metric_for(qualname: str):
    """The self-time metric a wrapped function's self time counts toward."""
    layer, func = qualname.split(".", 1)
    groups = SELF_TIME_GROUPS[layer]
    for metric, funcs in groups.items():
        if func in funcs:
            return metric
    return next(iter(groups), None)


def _count_expansions(tracer, args, result):
    tracer.counts["continued_fractions.expansions"] += len(result)
    tracer.counts["continued_fractions.terms"] += sum(len(e.terms) for e in result)


def _count_det_steps(tracer, args, result):
    tracer.counts["invariants.det_steps"] += len(args[0])


def _count_result_bytes(tracer, args, result):
    if tracer.in_worker:
        tracer.counts["census.pool_result_bytes"] += len(
            pickle.dumps(result, pickle.HIGHEST_PROTOCOL))


HOOKS = {
    "continued_fractions.enumerate_expansions": _count_expansions,
    "invariants._det_scaled": _count_det_steps,
    "census._census_row_star": _count_result_bytes,
}


def own_peak_rss_kb() -> int:
    """Peak RSS of this process's own address space (VmHWM).

    ``ru_maxrss`` of a freshly exec'd process also counts the address space
    it replaced, i.e. the launching process's peak, so it is not used."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder for one command run; see the module docstring."""

    def __init__(self, run_id: str, out_prefix: str):
        self.run_id = run_id
        self.out_prefix = out_prefix
        self.names = []
        self.saved = []
        self._reset(in_worker=False)
        self.stack = [0]

    def _reset(self, in_worker: bool):
        self.pid = os.getpid()
        self.in_worker = in_worker
        self.spans = []
        self.counts = Counter()
        self.next_id = self.pid << 32

    def _after_fork(self):
        # The open stack is kept: its top is the span that forked the worker.
        self._reset(in_worker=True)
        mp_util.Finalize(None, self.write, exitpriority=10)

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, fn, qualname):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1]
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.spans.append((sid, parent, name_id, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every layer function and rebind it wherever it is bound."""
        import bridgestate.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bridgestate" or name.startswith("bridgestate.")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules["bridgestate." + layer]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__):
                    replacements[id(obj)] = self._span_wrapper(
                        obj, f"{layer}.{name}")
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self.saved.append((module, name, obj))
                    setattr(module, name, wrapper)

        poly = sys.modules["bridgestate.laurent"].LaurentPolynomial
        post_init = self._count_wrapper(
            poly.__post_init__, "laurent.poly_constructed")
        mul = self._count_wrapper(poly.__mul__, "laurent.mul_calls")
        for name, wrapper in (("__post_init__", post_init),
                              ("__mul__", mul), ("__rmul__", mul)):
            self.saved.append((poly, name, vars(poly)[name]))
            setattr(poly, name, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self):
        """Restore every attribute ``install`` replaced."""
        while self.saved:
            owner, name, obj = self.saved.pop()
            setattr(owner, name, obj)

    # -- output -------------------------------------------------------------

    def write(self):
        """Write this process's spans and counts to its own file."""
        path = f"{self.out_prefix}.{self.pid}.json"
        record = {
            "run_id": self.run_id,
            "pid": self.pid,
            "worker": self.in_worker,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "maxrss_kb": own_peak_rss_kb(),
        }
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# span-tree analysis


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  ``spans`` holds (id, parent, name, start,
    end) tuples.  Children in the parent's own process run one after
    another; children in pool workers (another pid in the id's high bits)
    may overlap each other, so their coverage is an interval union."""
    covered = {}
    spread = set()
    for sid, parent, _name, start, end in spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
        if parent and sid >> 32 != parent >> 32:
            spread.add(parent)
    if spread:
        children = {}
        for sid, parent, _name, start, end in spans:
            if parent in spread:
                children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        if sid in spread:
            covered_here = 0.0
            reach = start
            for c_start, c_end in sorted(children[sid]):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered_here += hi - lo
                    reach = hi
        else:
            covered_here = covered.get(sid, 0.0)
        out[sid] = (end - start) - covered_here
    return out


def read_trace_files(paths) -> list:
    """Records written by ``Tracer.write``, spans rebuilt with names."""
    records = []
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        names = rec["names"]
        rec["spans"] = [(sid, parent, names[n], start, end)
                        for sid, parent, n, start, end in rec["spans"]]
        records.append(rec)
    return records


def layer_metrics(records, surfaces: int, jobs: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced command from its processes' records.

    ``surfaces`` is the number of surfaces the command reported or checked,
    ``jobs`` its pool size (1: no pool) and ``output_bytes`` what it wrote.
    """
    spans = [s for rec in records for s in rec["spans"]]
    own = self_times(spans)
    out = {m: 0.0 for groups in SELF_TIME_GROUPS.values() for m in groups}
    calls, own_by_name = Counter(), Counter()
    for sid, _parent, name, _start, _end in spans:
        calls[name] += 1
        own_by_name[name] += own[sid]
    for name, seconds in own_by_name.items():
        metric = metric_for(name)
        if metric is not None:
            out[metric] += seconds
    counts = Counter()
    for rec in records:
        counts.update(rec["counts"])
    for key in ("continued_fractions.expansions", "continued_fractions.terms",
                "invariants.det_steps", "laurent.poly_constructed",
                "laurent.mul_calls", "census.pool_result_bytes"):
        out[key] = counts[key]
    out["invariants.det_calls"] = calls["invariants._det_scaled"]
    out["invariants.det_calls_per_surface"] = (
        calls["invariants._det_scaled"] / surfaces)
    out["invariants.oracle_calls"] = calls["invariants.state_polynomial_oracle"]
    out["state_matrices.built"] = sum(
        calls["state_matrices." + f] for f in MATRIX_BUILDERS)
    checked = calls["checks._check_surface_fast"]
    out["checks.oracle_coverage"] = (
        calls["checks._check_surface_oracle"] / checked if checked else 0.0)
    out["census.output_bytes"] = output_bytes
    out["census.pool_busy_frac"] = out["census.worker_peak_rss_mb"] = 0

    workers = [rec for rec in records if rec["worker"]]
    if workers:
        # a worker's top spans have the forking process's span as parent
        busy = sum(end - start for rec in workers
                   for sid, parent, _n, start, end in rec["spans"]
                   if sid >> 32 != parent >> 32)
        rows_wall = sum(end - start for rec in records if not rec["worker"]
                        for _sid, _p, name, start, end in rec["spans"]
                        if name == "census.census_rows")
        out["census.pool_busy_frac"] = busy / (jobs * rows_wall)
        out["census.worker_peak_rss_mb"] = max(
            rec["maxrss_kb"] for rec in workers) / 1024
    return out
