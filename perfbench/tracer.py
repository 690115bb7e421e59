"""Outside-in span tracer for germtower.

The tracer wraps public functions of the germtower modules from outside:
it replaces every module attribute (and class attribute) that refers to a
traced function with a wrapper that records one span per call.  No file of
the program changes.  A span is ``(name, start_ns, end_ns, parent)``, where
``parent`` is the position of the enclosing span in the same list, or -1.
Spans stay in memory until the caller writes them out.

Counts are taken at the same boundaries, after the span has ended, so their
bookkeeping is not charged to the span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# (span name, module, attribute): one row per traced function.  A function
# is patched wherever a germtower module holds a reference to it.
FUNCTIONS = (
    ("pipeline.config", "germtower.pipeline", "config_from_json"),
    ("pipeline.run", "germtower.pipeline", "run_pipeline"),
    ("tower.build", "germtower.tower", "build_tower"),
    ("bisemigroup.expand", "germtower.bisemigroup", "expand_sum_product"),
    ("germs.classify", "germtower.germs", "classify_germ"),
    ("sheaves.attach", "germtower.sheaves", "attach_sections"),
    ("sheaves.shift", "germtower.sheaves", "shift"),
    ("sheaves.split_project", "germtower.sheaves", "endo_split"),
    ("sheaves.split_project", "germtower.sheaves", "emergent_project"),
    ("sheaves.inject", "germtower.sheaves", "inject_singularity"),
    ("blowup.levels", "germtower.blowup", "generate_levels"),
    ("blowup.deform", "germtower.blowup", "deform"),
    ("blowup.blow_up", "germtower.blowup", "blow_up"),
    ("blowup.lift", "germtower.blowup", "time_space_lift"),
    ("blowup.desingularize", "germtower.blowup", "desingularize"),
    ("cuspidal.compactify", "germtower.cuspidal", "compactify"),
    ("cuspidal.bistring", "germtower.cuspidal", "bistring_modulus"),
)

# (span name, module, class, attribute, is a staticmethod)
METHODS = (
    ("germs.build", "germtower.germs", "Germ", "from_coeffs", True),
    ("sheaves.validate", "germtower.sheaves", "Semisheaf", "__post_init__", False),
    ("sheaves.section_at", "germtower.sheaves", "Semisheaf", "section_at", False),
    ("pipeline.serialize", "germtower.pipeline", "Report", "json_text", False),
)


class Tracer:
    """Spans and counts of one op, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts: Counter = Counter()
        self.germs: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, exc)`` counts."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            pos = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(pos)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if after is not None:
                    after(result, exc)

        return traced

    def _counters(self) -> dict:
        counts = self.counts

        def count(key, size=None):
            def after(result, exc):
                if exc is None:
                    counts[key] += 1 if size is None else size(result)

            return after

        def built(result, exc):
            if exc is None:
                counts["germs.built"] += 1
                self.germs.append(result)

        def run(result, exc):
            stage = getattr(exc, "stage", None)
            if stage is not None:
                counts["pipeline.rejected"] += 1
                counts[f"pipeline.rejected.{stage}"] += 1

        return {
            "tower.build": count("tower.classes", lambda t: sum(t.config.multiplicity)),
            "bisemigroup.expand": count("bisemigroup.terms", len),
            "germs.build": built,
            "germs.classify": count("germs.classify_calls"),
            "sheaves.validate": count("sheaves.built"),
            "sheaves.section_at": count("sheaves.section_at_calls"),
            "cuspidal.compactify": count("cuspidal.modes", lambda e: len(e.modes)),
            "pipeline.serialize": count(
                "pipeline.report_bytes", lambda text: len(text.encode("utf-8"))
            ),
            "pipeline.run": run,
        }

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every loaded germtower module."""
        import germtower.cli  # noqa: F401  (loads every layer)

        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "germtower" or key.startswith("germtower.")
        ]
        counters = self._counters()
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original, counters.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for name, module, cls_name, attr, static in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            original = raw.__func__ if static else raw
            traced = self.wrap(name, original, counters.get(name))
            self._patch(cls, attr, staticmethod(traced) if static else traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def finish_counts(self) -> dict:
        """The op's counts, with the distinct germs among those built."""
        counts = dict(self.counts)
        counts["germs.distinct"] = len(set(self.germs))
        self.germs.clear()
        return counts


def summarize(names: list[str], spans: list[list[int]]) -> tuple[dict, dict]:
    """Inclusive and self time in seconds per span name.

    Self time is a span's duration minus the part its direct children
    cover; in one thread, children of one span never overlap.
    """
    child = [0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for pos, (name_id, start, end, parent) in enumerate(spans):
        inclusive[names[name_id]] += end - start
        own[names[name_id]] += end - start - child[pos]
    scale = 1e-9
    return (
        {k: v * scale for k, v in inclusive.items()},
        {k: v * scale for k, v in own.items()},
    )
