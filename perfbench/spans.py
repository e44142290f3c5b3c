"""In-memory spans around calls into panelbayes' public layer functions.

The program itself is not edited: `Tracer.install` replaces each listed
function, in every loaded panelbayes module that holds a reference to it, by
a wrapper that records a span (name, start, end, parent), and
`Tracer.uninstall` puts the originals back. Spans are kept in memory and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager


# (module, attribute, span name); "Class.method" attributes are patched on the class.
LAYER_FUNCTIONS = [
    ("panelbayes.model", "PanelDataset.from_csv", "model.from_csv"),
    ("panelbayes.model", "PanelDataset.to_csv", "model.to_csv"),
    ("panelbayes.datagen", "gen_panel", "datagen.gen_panel"),
    ("panelbayes.datagen", "partition", "datagen.partition"),
    ("panelbayes.sampler", "run_chain", "sampler.run_chain"),
    ("panelbayes.sampler", "summarize", "sampler.summarize"),
    ("panelbayes.sampler", "draws_to_csv", "sampler.draws_to_csv"),
    ("panelbayes.priors", "posterior_to_priorset", "priors.posterior_to_priorset"),
    ("panelbayes.priors", "save_priors", "priors.save_priors"),
    ("panelbayes.experiment", "run_study", "experiment.run_study"),
    ("panelbayes.experiment", "execute_run", "experiment.execute_run"),
    ("panelbayes.experiment", "write_tables", "experiment.write_tables"),
    ("panelbayes.spindex", "load_returns", "spindex.load_returns"),
    ("panelbayes.spindex", "series_to_panel", "spindex.series_to_panel"),
    ("panelbayes.spindex", "two_stage_fit", "spindex.two_stage_fit"),
    ("panelbayes.spindex", "write_comparison_csv", "spindex.write_comparison_csv"),
]


class Tracer:
    """Records spans and the chains that `run_chain` returns while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.chains: list[dict] = []  # run_chain arguments by name, plus "samples"
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self._origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "experiment.execute_run":
            def span_name(run_id, *args, **kwargs):
                return f"{name}.{run_id}"
        else:
            def span_name(*args, **kwargs):
                return name

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name(*args, **kwargs)):
                result = fn(*args, **kwargs)
            if name == "sampler.run_chain":
                call = dict(signature.bind(*args, **kwargs).arguments)
                self.chains.append({**call, "samples": result})
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS wherever panelbayes refers to it."""
        for module_name, attr, name in LAYER_FUNCTIONS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "panelbayes" and not mod_name.startswith("panelbayes."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layers(self) -> dict[str, dict]:
        """Calls, total and self seconds per span name (self = minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            d = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child_time[s["id"]]
        return out
