"""In-memory span tracer installed around ergmax's public functions.

The tracer never edits the package's source.  It rebinds each listed
function in every ``ergmax`` module that holds it (``count_triangles``,
say, is bound in ``graph``, ``stats``, ``exact`` and ``lp``) and
replaces the listed methods on their class, then restores the originals.

Three kinds of probe exist, because the hot primitives run millions of
times and one stored span each would not fit in memory:

* ``span``: full spans (name, start, end, parent span, job id) are kept
  in memory and written out when the run ends; the boundaries around
  solver and export calls.
* ``timed``: calls, total and self time are aggregated in place.
* ``counted``: calls only; ``pair_of`` is too cheap to time.

Self time is a probe's duration minus the part of it covered by the
spans of the timed probes it called.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

# (metric prefix, module, attribute, class or None, kind)
PROBES = (
    ("cli.main", "ergmax.cli", "main", None, "span"),
    ("reporting.run_experiment", "ergmax.reporting", "run_experiment", None, "span"),
    ("reporting.report_json_dict", "ergmax.reporting", "report_json_dict", None, "span"),
    ("exact.branch_and_bound", "ergmax.exact", "branch_and_bound", None, "span"),
    ("local_search.first_improve", "ergmax.local_search", "first_improve", None, "span"),
    ("lp.build_maxmin", "ergmax.lp", "build_maxmin", None, "span"),
    ("lp.build_minmax_distance", "ergmax.lp", "build_minmax_distance", None, "span"),
    ("lp.lp_string", "ergmax.lp", "lp_string", None, "span"),
    ("lp.to_json", "ergmax.lp", "to_json", "ConstraintSystem", "span"),
    ("lp.export_lp", "ergmax.lp", "export_lp", None, "span"),
    ("graph.graph_metrics", "ergmax.graph", "graph_metrics", None, "span"),
    ("graph.adjacency", "ergmax.graph", "adjacency", "Graph", "timed"),
    ("graph.count_triangles", "ergmax.graph", "count_triangles", None, "timed"),
    ("graph.is_connected", "ergmax.graph", "is_connected", None, "timed"),
    ("graph.total_hop_count", "ergmax.graph", "total_hop_count", None, "timed"),
    ("stats.eval_hamiltonian", "ergmax.stats", "eval_hamiltonian", None, "timed"),
    ("space.admits", "ergmax.space", "admits", "SampleSpace", "timed"),
    ("graph.pair_of", "ergmax.graph", "pair_of", None, "counted"),
)


class Tracer:
    """Collects spans and per-probe aggregates while installed."""

    def __init__(self) -> None:
        self.job: int | None = None
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name, *_ in PROBES}
        # work counts summed by WORK
        self.work: dict[str, int] = {}
        self._frames: list[list[float]] = []  # per open probe: [child_s]
        self._open_spans: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- probes ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, keep_span: bool) -> Callable:
        agg = self.stats[name]
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        work = self.work
        record = WORK.get(name)
        clock = time.perf_counter

        def probe(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if keep_span:
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append((span_id, name, 0.0, 0.0, parent, self.job))
                open_spans.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if keep_span:
                    open_spans.pop()
                    spans[span_id] = (span_id, name, start, end, parent, self.job)
            if record is not None:
                record(work, result)
            return result

        return probe

    def _counted(self, name: str, fn: Callable) -> Callable:
        agg = self.stats[name]

        def probe(*args, **kwargs):
            agg[0] += 1
            return fn(*args, **kwargs)

        return probe

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "ergmax" or key.startswith("ergmax.")]
        for name, module_name, attr, cls_name, kind in PROBES:
            home = sys.modules[module_name]
            if cls_name is not None:
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._swap(owner, attr, self._wrap(name, original, kind))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapped)

    def _wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        if kind == "counted":
            return self._counted(name, fn)
        return self._timed(name, fn, keep_span=kind == "span")

    def _swap(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def span_records(self) -> list[dict[str, Any]]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job}
            for i, name, start, end, parent, job in self.spans
        ]


def _add(work: dict[str, int], key: str, amount: int) -> None:
    work[key] = work.get(key, 0) + amount


def _record_lp(work: dict[str, int], cs: Any) -> None:
    _add(work, "lp.rows", len(cs.rows))
    _add(work, "lp.variables", len(cs.variables))


# work counts carried by the results of some probes: bnb nodes, local
# search toggle evaluations (both ``nodes_explored``), LP system size
WORK: dict[str, Callable[[dict[str, int], Any], None]] = {
    "exact.branch_and_bound": lambda work, r: _add(work, "exact.nodes", r.nodes_explored),
    "local_search.first_improve": lambda work, r: _add(
        work, "local_search.evaluations", r.nodes_explored
    ),
    "lp.build_maxmin": _record_lp,
    "lp.build_minmax_distance": _record_lp,
}
