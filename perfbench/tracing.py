"""In-memory spans for the traced benchmark run.

Spans are recorded from outside the program: the traced run replaces the
public functions each layer exports with wrappers, at the place where the
calling module looks them up (``cli.local_search``, ``pipeline.build``,
...), so the program's own call path is timed without editing it.  Every
span carries its name, start, end, parent, instance id and the phase of
the run it belongs to (``setup``, ``pass`` or ``probe``); spans stay in
memory and are written out once the run ends.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    instance: str
    phase: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.instance = ""
        self.phase = ""
        self.searches: list[tuple] = []  # (instance, graph, cfg.t, cactus, trace)
        self._open: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext(None)
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._open[-1] if self._open else -1
        sp = Span(name, time.perf_counter(), 0.0, parent, self.instance, self.phase)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def child_time(self, prefix: str = "") -> list[float]:
        """Per span: summed duration of its direct children named prefix*."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0 and sp.name.startswith(prefix):
                covered[sp.parent] += sp.duration
        return covered

    def self_times(self) -> list[float]:
        covered = self.child_time()
        return [sp.duration - c for sp, c in zip(self.spans, covered)]

    def missing(self, names) -> list[str]:
        """The names among ``names`` that no span outside set-up carries."""
        seen = {sp.name for sp in self.spans if sp.phase != "setup"}
        return [name for name in names if name not in seen]

    def dump(self, path) -> None:
        rows = [
            {
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "instance": sp.instance,
                "phase": sp.phase,
                "info": sp.info,
            }
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


def _search_name(args, kwargs) -> str:
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    t = 2 if cfg is None else cfg.t
    return f"local_search.ls{t}"


def install(tracer: Tracer):
    """Wrap each layer's public entry points; returns a function that undoes it."""
    cli = importlib.import_module("cactus_forge.cli")
    pipeline = importlib.import_module("cactus_forge.pipeline")
    analyzer = importlib.import_module("cactus_forge.analyzer")
    search = importlib.import_module("cactus_forge.local_search")
    from cactus_forge.errors import BudgetExceededError

    def on_build(sp, args, kwargs, result):
        # Inside verify_corpus the build call is the first thing a row does,
        # so it names the instance every later span of the row belongs to.
        tracer.instance = sp.instance = args[0].label()

    def on_search(sp, args, kwargs, result):
        c, trace = result
        g = args[0]
        sp.info = {
            "n": g.n,
            "delta": c.delta,
            "ceiling": (g.n - g.comp_count) // 2,
            "examined": trace.moves_examined,
            "moves": len(trace.moves_applied),
        }
        tracer.searches.append((sp.instance, g, int(sp.name[-1]), c, trace))

    def on_verify(sp, args, kwargs, result):
        sp.info = {"n": args[0].n, "optimal": bool(result[0])}

    def on_analyze(sp, args, kwargs, result):
        sp.info = {"components": len(result.components)}

    def on_oracle(sp, args, kwargs, result):
        sp.info = {"nodes": result.nodes_explored, "exact": bool(result.exhausted)}

    targets = [
        (pipeline, "build", "generators.build", on_build),
        (cli, "load_instance", "plane_graph.parse", None),
        (cli, "cactus_from_triples", "cactus.from_triples", None),
        (search, "greedy_initial", "local_search.greedy", None),
        (pipeline, "greedy_initial", "local_search.greedy", None),
        (cli, "local_search", _search_name, on_search),
        (pipeline, "local_search", _search_name, on_search),
        (analyzer, "verify_local_optimality", "local_search.verify", on_verify),
        (cli, "analyze_cactus", "analyzer.analyze", on_analyze),
        (pipeline, "analyze_cactus", "analyzer.analyze", on_analyze),
        (pipeline, "exact_beta_faces", "oracle.exact", on_oracle),
    ]

    def wrap(fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label) as sp:
                try:
                    result = fn(*args, **kwargs)
                except BudgetExceededError as exc:
                    sp.info = {"nodes": exc.result.nodes_explored, "budget_hit": True}
                    raise
            if observe is not None:
                observe(sp, args, kwargs, result)
            return result

        return traced

    missing = [f"{m.__name__}.{attr}" for m, attr, _, _ in targets if not hasattr(m, attr)]
    if missing:
        # A span that is never recorded would read as zero time, i.e. as a gain.
        raise RuntimeError(f"cannot trace {', '.join(missing)}: not found where its caller looks it up")
    saved = []
    for module, attr, name, observe in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrap(original, name, observe))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer(True)

    def plain():
        return None

    def traced():
        with tracer.span("calibrate"):
            return plain()

    start = time.perf_counter()
    for _ in range(samples):
        plain()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    wrapped = time.perf_counter() - start
    return max(wrapped - bare, 0.0) / samples
