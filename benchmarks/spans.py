"""In-memory span tracer for the boxdistill benchmark.

Functions are wrapped at their *caller's* module attribute: ``from .geometry
import bev_iou`` binds ``bev_iou`` inside ``anchors``, so the assignment's
calls are intercepted at ``anchors.bev_iou``, not at ``geometry.bev_iou``.
Nothing inside ``src/`` changes; :meth:`Tracer.restore` puts the original
functions back.

A span records (id, name, start, end, parent, run). ``run`` is the id of the
root span the call happened under (a ``build_dataset``, ``train_on_dataset``
or ``evaluate_params`` call). Leaf functions, which have no traced callees and
run up to millions of times per pass, are not recorded one by one: their call
count and time fold into the span that called them. A span's self time is its
duration minus the time of its traced children, leaves included, so the self
times of a root's subtree sum to the root's duration.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("geometry", "anchors", "sim", "xgd", "cld", "evaluation", "experiments")

# (caller module, attribute, span name, leaf). The span name is
# "<defining module>.<function>"; bev_iou also names its caller.
HOOKS = (
    # roots: called by the benchmark itself
    ("anchors", "build_anchor_grid", "anchors.build_anchor_grid", False),
    ("experiments", "build_dataset", "experiments.build_dataset", False),
    ("experiments", "train_on_dataset", "experiments.train_on_dataset", False),
    ("experiments", "evaluate_params", "experiments.evaluate_params", False),
    # dataset build
    ("experiments", "generate_scene", "sim.generate_scene", False),
    ("experiments", "assign_targets", "anchors.assign_targets", False),
    ("experiments", "teacher_predict", "sim.teacher_predict", False),
    ("sim", "bev_iou", "geometry.bev_iou.sim", True),
    ("anchors", "bev_iou", "geometry.bev_iou.anchors", True),
    ("sim", "encode_deltas", "anchors.encode_deltas", True),
    # training step
    ("experiments", "train", "sim.train", False),
    ("sim", "student_forward", "sim.student_forward", True),
    ("sim", "total_loss_and_grad", "sim.total_loss_and_grad", False),
    ("sim", "positive_target_deltas", "anchors.positive_target_deltas", True),
    ("sim", "decode_deltas", "anchors.decode_deltas", True),
    ("sim", "gate_decisions", "xgd.gate_decisions", True),
    ("sim", "positive_component_update", "xgd.positive_component_update", True),
    ("sim", "gate_keep_rates", "xgd.gate_keep_rates", True),
    ("sim", "xgd_loss", "xgd.xgd_loss", False),
    ("sim", "xgd_loss_grad", "xgd.xgd_loss_grad", False),
    ("xgd", "iou3d", "geometry.iou3d", True),
    ("xgd", "iou3d_grad_fd", "geometry.iou3d_grad_fd", True),
    ("xgd", "decode_deltas", "anchors.decode_deltas", True),
    ("sim", "unified_distribution", "cld.unified_distribution", True),
    ("sim", "cld_loss", "cld.cld_loss", True),
    ("sim", "cld_grad", "cld.cld_grad", False),
    ("cld", "unified_distribution", "cld.unified_distribution", True),
    # evaluation
    ("experiments", "student_forward", "sim.student_forward", True),
    ("experiments", "replace_outputs", "sim.replace_outputs", True),
    ("experiments", "evaluate_outputs", "evaluation.evaluate_outputs", False),
    ("evaluation", "decode_and_nms", "evaluation.decode_and_nms", False),
    ("evaluation", "decode_deltas", "anchors.decode_deltas", True),
    ("evaluation", "bev_iou", "geometry.bev_iou.evaluation", True),
    ("evaluation", "evaluate_class", "evaluation.evaluate_class", False),
    ("evaluation", "iou3d", "geometry.iou3d", True),
)

# Exact counts taken at a span boundary: span name -> (counter, f(args, result)).
COUNTERS = {
    "xgd.gate_decisions": ("xgd.positives", lambda args, out: len(args[0])),
    "evaluation.decode_and_nms": ("evaluation.detections", lambda args, out: len(out)),
}


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "child_s", "leaves")

    def __init__(self, span_id: int, name: str, parent: "Span | None"):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = span_id if parent is None or parent.parent is None else parent.run
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Wraps the functions in :data:`HOOKS` while installed; one per traced pass."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"boxdistill.{m}") for m in {h[0] for h in HOOKS}}
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # The sentinel is the parent of every root; it is never reported.
        self.stack = [Span(-1, "<untraced>", None)]
        self._originals: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, leaf in HOOKS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            wrap = self._leaf if leaf else self._span
            setattr(module, attr, wrap(original, name, COUNTERS.get(name)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _leaf(self, fn, name, counter):
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            top = stack[-1]
            top.child_s += dt
            entry = top.leaves.get(name)
            if entry is None:
                top.leaves[name] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return leaf

    def _span(self, fn, name, counter):
        stack = self.stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            record = Span(len(spans), name, parent)
            spans.append(record)
            stack.append(record)
            record.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record.end = clock()
                stack.pop()
                parent.child_s += record.end - record.start
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return span

    def totals(self, runs: set[int] | None = None) -> dict[str, list]:
        """name -> [calls, self seconds], over all spans or the given runs."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if runs is not None and span.run not in runs:
                continue
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.self_s
            for name, (n, s) in span.leaves.items():
                out[name][0] += n
                out[name][1] += s
        return dict(out)

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is self.stack[0] and s.name == name]

    def layer_self_s(self, runs: set[int]) -> dict[str, float]:
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, (_, s) in self.totals(runs).items():
            shares[name.split(".", 1)[0]] += s
        return shares

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": None if s.parent is self.stack[0] else s.parent.id,
                            "run": s.run,
                            "start": s.start - self.t0,
                            "end": s.end - self.t0,
                            "self_s": s.self_s,
                            "leaves": s.leaves,
                        }
                    )
                    + "\n"
                )
