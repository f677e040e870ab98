"""In-memory span tracer wrapped around the library's public functions.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the traced pass runs and written out once at the end.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover.

Wrapping happens where the caller looks the function up: ``ramsey`` and
``containers`` call ``require_verdict`` through their own module globals, so
patching ``janson.require_verdict`` alone would miss those calls.
:meth:`Tracer.install` therefore replaces the function in every
``jcontainers`` module that holds it, each site with its own wrapper that
also counts the calls made through that site.

Generator functions (``independent_sets``) get one span from creation to
exhaustion whose covered time is only the time spent inside the generator
(its ``busy`` time), so the consumer's loop body is not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter


def _hook_min_lambda(tracer, args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    # the trivial shortcut (an edge of size <= 1) returns before the memo
    if h.edges and all(e.bit_count() >= 2 for e in h.edges):
        tracer.counters["janson.cache_lookups"] += 1


def _hook_exact(tracer, args, kwargs, result):
    tracer.counters["janson.exact_supports"] += result.iterations


def _hook_fw(tracer, args, kwargs, result):
    tracer.counters["janson.fw_iterations"] += result.iterations


def _hook_verdict(tracer, args, kwargs, result):
    tracer.counters["janson.verdict." + result.answer.lower()] += 1


def _hook_copies(tracer, args, kwargs, result):
    tracer.counters["copies.copy_edges"] += len(result.hyper.edges)


def _hook_pipeline(tracer, args, kwargs, result):
    tracer.counters["containers.emitted"] += len(result.containers)
    tracer.counters["containers.oracle_incomplete"] += len(result.incomplete)
    tracer.counters["containers.violations"] += len(result.violations)


def _hook_hardcover(tracer, args, kwargs, result):
    tracer.counters["containers.violations"] += len(result.violations)


def _record_search(tracer, args, kwargs, result=None):
    tracer.searches.append((args, kwargs))


# (module, function, result hook, exception hook, counter for calls made
# through ramsey's own lookup site)
TRACED = (
    ("janson", "min_lambda_exact", _hook_exact, None, None),
    ("janson", "min_lambda_fw", _hook_fw, None, None),
    ("janson", "dual_lower_bound", None, None, None),
    ("janson", "min_lambda", _hook_min_lambda, None, None),
    ("janson", "is_janson", _hook_verdict, None, None),
    ("janson", "require_verdict", None, None, "ramsey.janson_queries"),
    ("measures", "lambda_p_pairwise", None, None, None),
    ("copies", "induced_copy_hypergraph", _hook_copies, None, "ramsey.copy_builds"),
    ("copies", "extension_hypergraph", None, None, None),
    ("ramsey", "check_event_bad", None, None, None),
    ("ramsey", "check_event_bad_prime", None, None, None),
    ("ramsey", "check_event_inductive", None, None, None),
    ("ramsey", "find_bad_coloring", _record_search, _record_search, None),
    ("containers", "hardcover_family", _hook_hardcover, None, None),
    ("containers", "minimal_members", None, None, None),
    ("containers", "uniform_container_oracle", None, None, None),
    ("containers", "non_janson_containers", _hook_pipeline, None, None),
    ("containers", "extension_containers", _hook_pipeline, None, None),
    ("containers", "containment_table", None, None, None),
    ("containers", "conditional_prob", None, None, None),
    ("containers", "in_cover", None, None, None),
    ("hypercore", "restrict_edges", None, None, None),
    ("hypercore", "independent_sets", None, None, None),
)

MODULES = ("hypercore", "measures", "janson", "copies", "containers", "ramsey", "fileio", "cli")


class Tracer:
    """Span store plus named counters; inactive until :meth:`start`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.busy: dict[int, float] = {}  # generator spans only
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.searches: list[tuple[tuple, dict]] = []  # find_bad_coloring arguments
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int, start: float | None = None) -> int:
        idx = len(self.starts)
        self.name_of.append(nid)
        self.starts.append(self.clock() if start is None else start)
        self.ends.append(0.0)
        self.parents.append(self.stack[-1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None):
        self.ends[idx] = self.clock() if end is None else end
        self.stack.pop()

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, orig, result_hook, error_hook, site_counter):
        nid = self.name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(orig):

            @functools.wraps(orig)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from orig(*args, **kwargs)
                    return
                idx = tracer.open(nid)
                tracer.stack.pop()  # the consumer runs between resumptions
                busy = 0.0
                it = orig(*args, **kwargs)
                try:
                    while True:
                        t = tracer.clock()
                        tracer.stack.append(idx)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.stack.pop()
                            busy += tracer.clock() - t
                        yield item
                finally:
                    it.close()
                    tracer.ends[idx] = tracer.clock()
                    tracer.busy[idx] = busy

            return gen_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if site_counter is not None:
                tracer.counters[site_counter] += 1
            idx = tracer.open(nid)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                if error_hook is not None:
                    error_hook(tracer, args, kwargs)
                raise
            tracer.close(idx)
            if result_hook is not None:
                result_hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace each traced function in every module that holds it."""
        modules = [sys.modules[f"jcontainers.{m}"] for m in MODULES if f"jcontainers.{m}" in sys.modules]
        for mod_name, func_name, result_hook, error_hook, site_counter in TRACED:
            home = sys.modules[f"jcontainers.{mod_name}"]
            orig = getattr(home, func_name)
            for mod in modules:
                if getattr(mod, func_name, None) is orig:
                    counter = site_counter if mod.__name__.endswith(".ramsey") else None
                    wrapped = self._wrap(
                        f"{mod_name}.{func_name}", orig, result_hook, error_hook, counter
                    )
                    setattr(mod, func_name, wrapped)
                    self._patched.append((mod, func_name, orig))

    def count_search_nodes(self):
        """Replay every recorded colouring search, after the traced pass and
        outside any timing, under a profile hook that counts the calls of
        the search's own backtracking function (``backtrack``, nested in
        ``find_bad_coloring``): one call per search node, for searches that
        finish and for those stopped by their budget.  Counting during the
        traced pass would slow the search three- to fivefold."""
        budget_error = sys.modules["jcontainers.errors"].BudgetError
        search = sys.modules["jcontainers.ramsey"].find_bad_coloring
        search = getattr(search, "__wrapped__", search)
        codes = {c for c in search.__code__.co_consts if getattr(c, "co_name", None) == "backtrack"}
        nodes = 0

        def hook(frame, event, arg):
            nonlocal nodes
            if event == "call" and frame.f_code in codes:
                nodes += 1

        for args, kwargs in self.searches:
            sys.setprofile(hook)
            try:
                search(*args, **kwargs)
            except budget_error:
                pass
            finally:
                sys.setprofile(None)
        self.counters["ramsey.search_nodes"] += nodes
        self.searches.clear()

    def uninstall(self):
        for mod, func_name, orig in reversed(self._patched):
            setattr(mod, func_name, orig)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: covered time minus the union of its children's cover."""
        count = len(self.starts)
        children: list[list[int]] = [[] for _ in range(count)]
        for idx in range(count):
            parent = self.parents[idx]
            if parent >= 0:
                children[parent].append(idx)
        out = [0.0] * count
        for idx in range(count):
            start, end = self.starts[idx], self.ends[idx]
            own = self.busy.get(idx, end - start)
            intervals = []
            generator_cover = 0.0
            for child in children[idx]:
                if child in self.busy:
                    generator_cover += self.busy[child]
                    continue
                lo, hi = max(start, self.starts[child]), min(end, self.ends[child])
                if hi > lo:
                    intervals.append((lo, hi))
            covered = generator_cover
            if intervals:
                intervals.sort()
                cur_lo, cur_hi = intervals[0]
                for lo, hi in intervals[1:]:
                    if lo > cur_hi:
                        covered += cur_hi - cur_lo
                        cur_lo, cur_hi = lo, hi
                    else:
                        cur_hi = max(cur_hi, hi)
                covered += cur_hi - cur_lo
            out[idx] = max(own - covered, 0.0)
        return out

    def summary(self) -> dict:
        """Per span name: [calls, self seconds]; plus the counters."""
        per_name: dict[str, list] = {name: [0, 0.0] for name in self.names}
        for idx, self_s in enumerate(self.self_times()):
            entry = per_name[self.names[self.name_of[idx]]]
            entry[0] += 1
            entry[1] += self_s
        return {"spans": per_name, "counters": dict(self.counters)}

    def write(self, path):
        """Spans as [name, start, end, parent, busy-or-null] rows, times in
        seconds from the first span."""
        base = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w") as fh:
            fh.write('{"names": ' + json.dumps(self.names) + ', "spans": [\n')
            for idx in range(len(self.starts)):
                row = [
                    self.name_of[idx],
                    round(self.starts[idx] - base, 9),
                    round(self.ends[idx] - base, 9),
                    self.parents[idx],
                    self.busy.get(idx),
                ]
                fh.write(("," if idx else "") + json.dumps(row) + "\n")
            fh.write("]}\n")


def merge_summaries(parts) -> dict:
    """Sum span summaries gathered in several processes."""
    spans: dict[str, list] = {}
    counters: Counter = Counter()
    for part in parts:
        for name, (calls, self_s) in part["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        counters.update(part["counters"])
    return {"spans": spans, "counters": dict(counters)}
