"""The module -> layer map, its coverage check, and profile aggregation.

A *layer* is a group of ``src/repro`` modules whose host cost the
benchmark reports as one line.  The map is explicit on purpose: a module
that matches no rule (or two) fails ``run.py --check-layers``, so new
code cannot vanish into an "other" bucket.

Rules are paths relative to ``src/repro``; one ending in ``/`` covers a
whole package, anything else names one file.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

#: reported layers, in stack order (top of the stack first)
LAYER_RULES: Dict[str, Tuple[str, ...]] = {
    "serve": ("serve/",),
    "workloads": ("workloads/",),
    "aging": ("aging/",),
    # rng.py / __init__.py: the seeded-RNG factory and package glue the
    # experiment setup pulls in
    "harness": ("harness/", "rng.py", "__init__.py"),
    # errors.py is the POSIX error vocabulary of the VFS contract
    "vfs": ("vfs/", "errors.py"),
    "core.filesystem": ("core/__init__.py", "core/filesystem.py",
                        "core/layout.py", "core/numa_policy.py",
                        "core/rewrite.py"),
    "core.journal": ("core/journal.py",),
    "core.allocator": ("core/allocator.py",),
    "fs": ("fs/__init__.py", "fs/ext4dax.py", "fs/nova.py", "fs/pmfs.py",
           "fs/splitfs.py", "fs/strata.py", "fs/xfsdax.py",
           "fs/common/__init__.py", "fs/common/base.py",
           "fs/common/inode.py"),
    "fs.dirindex": ("fs/common/dirindex.py",),
    "fs.freespace": ("fs/common/freespace.py",),
    "mmu": ("mmu/",),
    # params.py is the PM cost model (pm_read_ns / pm_write_ns / persist_ns)
    "pm": ("pm/", "params.py"),
    # engine.py selects which implementation of these structures is built
    "structures": ("structures/", "engine.py"),
    "clock": ("clock.py",),
    "snapshot": ("snapshot/",),
    "obs": ("obs/",),
}

#: modules no workload may execute in its timed region; a call into one
#: fails the traced pass instead of being reported
OFFLINE_RULES: Tuple[str, ...] = ("analysis/", "crashmon/", "faults/",
                                  "cli.py", "__main__.py")

#: the benchmark's own driver loops, reported like a layer so the shares
#: still sum to 1
BENCH_LAYER = "bench"
OFFLINE_LAYER = "offline"

LAYERS: Tuple[str, ...] = tuple(LAYER_RULES) + (BENCH_LAYER,)

_HERE = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(_HERE)),
                        "src", "repro")


def _matches(rel: str, rule: str) -> bool:
    return rel.startswith(rule) if rule.endswith("/") else rel == rule


def layers_of(rel: str) -> List[str]:
    """Every layer whose rules match *rel* (a path under ``src/repro``)."""
    found = [layer for layer, rules in LAYER_RULES.items()
             if any(_matches(rel, rule) for rule in rules)]
    if any(_matches(rel, rule) for rule in OFFLINE_RULES):
        found.append(OFFLINE_LAYER)
    return found


def source_modules(src_root: str = SRC_ROOT) -> List[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out.append(os.path.relpath(path, src_root).replace(os.sep, "/"))
    return out


def check_coverage(modules: Iterable[str]) -> List[str]:
    """One problem line per module mapped to no layer or to several."""
    problems = []
    for rel in modules:
        found = layers_of(rel)
        if not found:
            problems.append(f"{rel}: maps to no layer")
        elif len(found) > 1:
            problems.append(f"{rel}: maps to {', '.join(found)}")
    return problems


def layer_of_file(filename: str) -> str:
    """Layer of a code object's file; ``""`` for code outside the repo
    (stdlib, generated ``<string>`` code), which is charged to callers."""
    path = os.path.abspath(filename)
    if path.startswith(SRC_ROOT + os.sep):
        rel = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
        found = layers_of(rel)
        if len(found) != 1:
            raise RuntimeError(f"layer map does not cover {rel}: {found}")
        return found[0]
    if path.startswith(_HERE + os.sep):
        return BENCH_LAYER
    return ""


def aggregate_profile(stats) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer totals.

    Returns ``{layer: {"self_s", "calls", "entries"}}``.  Code outside
    the repo — builtins, C methods, stdlib Python — has no layer of its
    own: its self time and calls are charged to whichever layer called
    it, transitively, split by call count where several layers call the
    same helper.  ``entries`` counts calls whose caller is in another
    layer (through outside code or not).
    """
    # own_layer[code]: the repo layer of a code object, "" when outside
    own_layer: Dict[object, str] = {}
    callers: Dict[object, List[Tuple[object, int]]] = {}
    for entry in stats:
        code = entry.code
        own_layer[code] = "" if isinstance(code, str) else layer_of_file(
            code.co_filename)
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((code, sub.callcount))

    # Fractions keep the split exact, so call counts repeat bit for bit
    # whatever order the profiler lists its entries in
    def owners(code, seen=frozenset()) -> Dict[str, Fraction]:
        """``{layer: weight}`` (weights sum to 1) that *code* is charged to."""
        layer = own_layer.get(code)
        if layer:
            return {layer: Fraction(1)}
        if code in seen:           # recursion among outside helpers
            return {}
        mix: Dict[str, Fraction] = {}
        for caller, count in callers.get(code, ()):
            for layer, weight in owners(caller, seen | {code}).items():
                mix[layer] = mix.get(layer, 0) + weight * count
        total = sum(mix.values())
        # no repo caller at all: the profiler's own enable/disable frames
        return {layer: w / total for layer, w in mix.items()} if total \
            else {}

    out = {layer: {"self_s": 0.0, "calls": Fraction(0),
                   "entries": Fraction(0)}
           for layer in LAYERS + (OFFLINE_LAYER,)}
    for entry in stats:
        layer = own_layer[entry.code]
        own = owners(entry.code)
        if layer:
            out[layer]["self_s"] += entry.inlinetime
            out[layer]["calls"] += entry.callcount
        for sub in entry.calls or ():
            callee_layer = own_layer.get(sub.code, "")
            for caller_layer, weight in own.items():
                if not callee_layer:
                    # outside callee: this edge's share of its self time
                    # and calls belongs to the caller's layer(s)
                    out[caller_layer]["self_s"] += \
                        float(weight) * sub.inlinetime
                    out[caller_layer]["calls"] += weight * sub.callcount
                elif caller_layer != callee_layer:
                    out[callee_layer]["entries"] += weight * sub.callcount
    return {layer: {k: float(v) for k, v in row.items()}
            for layer, row in out.items()}
