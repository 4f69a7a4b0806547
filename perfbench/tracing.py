"""Spans around the public functions of each posetdim module.

The tracer replaces each listed function by a timing wrapper in every
posetdim module that holds it by name (``posetdim.cli.verify`` and
``posetdim.sat.verify`` are the same object as ``posetdim.realizer.verify``),
and puts the originals back on exit.  Spans stay in memory until the pass
ends.  A layer's self time is the duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: layer -> (module, function names).  Each name is wrapped wherever it is
#: bound to the same function object.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "poset.construct": (
        "posetdim.poset",
        (
            "boolean_lattice",
            "multiset_grid",
            "standard_example",
            "chain",
            "antichain",
            "product",
            "subposet",
            "from_relation_pairs",
            "block_decomposition_iso",
        ),
    ),
    "realizer.upper_bound": ("posetdim.realizer", ("upper_bound_realizer",)),
    "realizer.compose": ("posetdim.realizer", ("compose_product",)),
    "realizer.transport": ("posetdim.realizer", ("transport",)),
    "realizer.verify": ("posetdim.realizer", ("verify",)),
    "formats.poset_text": ("posetdim.formats", ("serialize_poset", "parse_poset")),
    "formats.realizer_text": (
        "posetdim.formats",
        ("serialize_realizer", "parse_realizer"),
    ),
    "sat.encode": ("posetdim.sat", ("encode_bdim_sat",)),
    "sat.dimacs": ("posetdim.sat", ("to_dimacs", "varmap_sidecar")),
    "sat.solve": ("posetdim.sat", ("internal_sat_solve",)),
    "sat.check_model": ("posetdim.sat", ("check_model",)),
    "sat.external": ("posetdim.sat", ("run_external_solver",)),
    "sat.decode": ("posetdim.sat", ("decode_model",)),
    "sat.search": ("posetdim.sat", ("search_realizer",)),
    "search.exact": ("posetdim.search", ("exact_dim", "exact_bdim")),
    "bounds.signatures": (
        "posetdim.bounds",
        ("signature_map", "signature_collision"),
    ),
    "cli": ("posetdim.cli", ("main",)),
}


def _count(layer: str, args: tuple, result) -> dict[str, int]:
    """Work counted at the layer boundary, from arguments and results."""
    if layer == "realizer.verify":
        return {"pairs": result.pairs_checked}
    if layer == "sat.encode":
        return {"clauses": len(result.clauses)}
    if layer == "sat.solve":
        return {"conflicts": result.conflicts}
    if layer == "sat.dimacs":
        return {"bytes": len(result)}
    if layer.startswith("formats."):
        text = result if isinstance(result, str) else args[0]
        return {"bytes": len(text)}
    return {}


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": fn.__name__,
                "layer": layer,
                "job": tracer.job,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "counts": {},
                "start": time.perf_counter(),
            }
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            span["counts"] = _count(layer, args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name.startswith("posetdim")]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def layer_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, int], float]:
    """(self seconds per layer, counts per layer.counter, seconds covered by
    top-level spans)."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    covered = 0.0
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        self_s[span["layer"]] += duration - child_time[i]
        for key, value in span["counts"].items():
            counts[f"{span['layer']}.{key}"] += value
        if span["parent"] is None:
            covered += duration
    return dict(self_s), dict(counts), covered
