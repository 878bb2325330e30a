"""Spans around calls into kgrerank's public functions, recorded from outside.

The tracer replaces each target function with a wrapper that records one
span per call: name, start, end, its own id, the id of the span that caused
it and a query id. Spans are kept in memory and written once, at exit.
Nothing inside the program is edited: a function imported by name into other
kgrerank modules is replaced there too, and methods are replaced on their
class.

A target that no longer exists is listed as absent instead of raising, so
the benchmark keeps running after a later change deletes or renames it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

# (module, attribute path, span name). Every backend's ``select`` is added by
# ``install``, because backends are found by looking, not by name.
TARGETS = (
    ("kgrerank.kg", "load_kg", "kg.load_kg"),
    ("kgrerank.kg", "build_cooccurrence", "kg.build_cooccurrence"),
    ("kgrerank.embeddings", "train", "embeddings.train"),
    ("kgrerank.embeddings", "EmbeddingTable.score_candidates", "embeddings.score_candidates"),
    ("kgrerank.embeddings", "EmbeddingTable.save", "embeddings.save"),
    ("kgrerank.embeddings", "EmbeddingTable.load", "embeddings.load"),
    ("kgrerank.ranking", "rank_query", "ranking.rank_query"),
    ("kgrerank.instructions", "build_sample", "instructions.build_sample"),
    ("kgrerank.instructions", "rc_sample_neighbors", "instructions.rc_sample_neighbors"),
    ("kgrerank.instructions", "InstructionWriter.write", "instructions.write"),
    ("kgrerank.discriminator", "remote_request", "discriminator.remote_request"),
    ("kgrerank.evaluation", "evaluate", "evaluation.evaluate"),
    ("kgrerank.cli", "main", "cli.main"),
)

# The untraced run times only this, for setup_s: a run makes 2 to 4 calls of
# several seconds each, so two clock reads per call cost nothing measurable.
COARSE = ("kg.load_kg",)


def _query_id(args) -> str | None:
    """A stable id for the completion query an argument list is about."""
    for arg in args:
        q = getattr(arg, "source_query", None) or getattr(arg, "query", None) or arg
        if all(hasattr(q, a) for a in ("known", "relation", "direction", "gold")):
            return f"{q.direction}:{q.known}:{q.relation}:{q.gold}"
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, id, parent, query id, arg)
        self.absent: list[str] = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name: str, keep_arg=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool worker's first span belongs to the span open on the main thread
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            qid = _query_id(args)
            if qid is None and parent is not None:
                qid = parent[1]
            span_id = next(tracer._ids)
            stack.append((span_id, qid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                arg = keep_arg(args, kwargs) if keep_arg else None
                tracer.spans.append(
                    (name, start, end, span_id, parent[0] if parent else None, qid, arg)
                )

        return traced

    def install(self, names=None, keep_args=None) -> None:
        """Wrap the targets whose span name is in ``names`` (all when None)."""
        keep_args = keep_args or {}
        targets = list(TARGETS)
        disc = sys.modules.get("kgrerank.discriminator") or importlib.import_module("kgrerank.discriminator")
        for cls_name, cls in sorted(vars(disc).items()):
            if inspect.isclass(cls) and cls.__module__ == disc.__name__ and "select" in vars(cls):
                targets.append((disc.__name__, f"{cls_name}.select", "discriminator.select"))
        for module_name, path, name in targets:
            if names is not None and name not in names:
                continue
            try:
                module = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, name, keep_args.get(name)))
            else:
                replacement = self._wrap(raw, name, keep_args.get(name))
            self._patch(owner, attr, raw, replacement)
            if owner is module:  # also where other modules imported it by name
                for other_name, other in list(sys.modules.items()):
                    if other_name.startswith("kgrerank") and other is not module:
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                self._patch(other, key, raw, replacement)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"absent": self.absent, "spans": self.spans}, f)


def self_times(spans, name: str) -> list[float]:
    """Duration of each ``name`` span minus the part its children cover.

    Children running on other threads may overlap, so the covered part is
    the union of the children's intervals, clipped to the parent.
    """
    children: dict = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[1], s[2]))
    out = []
    for s in spans:
        if s[0] != name:
            continue
        covered, reach = 0.0, s[1]
        for lo, hi in sorted(children.get(s[3], ())):
            lo, hi = max(lo, reach), min(hi, s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out
