"""Span recording around tacd's public functions, installed from outside.

Each target is replaced by a wrapper in every ``tacd.*`` module namespace
that binds it (``from .x import f`` copies the name, so patching only the
defining module would miss callers), or on its class for methods. Spans go
to an in-memory list; per-name aggregates (calls, inclusive and self time,
plus the counters a layer already returns) are kept on the fly.

Spans inside process-pool children are out of reach: a fork inherits the
wrappers, but the child's recorder is switched off, so a pooled
``run_case`` appears as one span covering the whole pool phase.
"""
from __future__ import annotations

import csv
import functools
import os
import sys
import time

# (metric prefix, module, attribute path). The prefix names the layer.
TARGETS = [
    ("cli.main", "tacd.cli", "main"),
    ("config.load_config", "tacd.config", "load_config"),
    ("runner.run_case", "tacd.runner", "run_case"),
    ("runner.simulate_run", "tacd.runner", "simulate_run"),
    ("runner.evaluate_rmse", "tacd.runner", "evaluate_rmse"),
    ("runner.fusion_study", "tacd.runner", "fusion_study"),
    ("scenario.generate_scenario", "tacd.scenario", "generate_scenario"),
    ("clock.build_state_space", "tacd.clock", "build_state_space"),
    ("thermal.skew_from_temperature", "tacd.thermal", "skew_from_temperature"),
    ("netcomm.GsfVbFilter.step", "tacd.netcomm", "GsfVbFilter.step"),
    ("netcomm.KalmanBaseline.step", "tacd.netcomm", "KalmanBaseline.step"),
    ("netcomm.build_measurement", "tacd.netcomm", "build_measurement"),
    ("netcomm.gsf_predict", "tacd.netcomm", "gsf_predict"),
    ("netcomm.gsf_update", "tacd.netcomm", "gsf_update"),
    ("netcomm.vb_refine", "tacd.netcomm", "vb_refine"),
    ("fusion.pareto_beta", "tacd.fusion", "pareto_beta"),
    ("fusion.fuse_skew", "tacd.fusion", "fuse_skew"),
    # The filter method through which the fused skew is fed back.
    ("fusion.condition_on_skew", "tacd.netcomm", "GsfVbFilter.condition_on_skew"),
    ("bclb.bclb_trajectory", "tacd.bclb", "bclb_trajectory"),
    ("report.emit_csv", "tacd.report", "emit_csv"),
]

SPAN_COLUMNS = ["id", "name", "start_ns", "end_ns", "parent", "run"]


class _Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "extra")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Recorder:
    """In-memory span log and per-name aggregates for one process."""

    def __init__(self, keep_spans: int = 200_000):
        self.keep_spans = keep_spans
        self.enabled = True
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.stats = {name: _Stat() for name, _, _ in TARGETS}
        self._stack: list[list] = []  # [span id, start_ns, child_ns]
        self._next_id = 0
        self.run_index = -1

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers keep their bindings)."""
        self.spans.clear()
        self.dropped_spans = 0
        for stat in self.stats.values():
            stat.clear()
        self._next_id = 0

    def disable(self) -> None:
        self.enabled = False

    def _wrap(self, name: str, fn, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stat.calls += 1
                stat.incl_ns += dur
                stat.self_ns += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(self.spans) < self.keep_spans:
                    self.spans.append((span_id, name, frame[1], end, parent, self.run_index))
                else:
                    self.dropped_spans += 1
            if after is not None:
                after(stat, out)
            return out

        return wrapper

    def install(self) -> None:
        """Patch every target wherever a tacd module binds it."""
        import importlib

        import tacd.cli  # noqa: F401  (imports every module the CLI reaches)

        hooks = {
            "runner.simulate_run": self._run_scope,
            "report.emit_csv": self._emit_csv_scope,
        }
        afters = {
            "scenario.generate_scenario": _after_scenario,
            "netcomm.gsf_update": _after_gsf_update,
            "netcomm.vb_refine": _after_vb_refine,
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "tacd" or n.startswith("tacd.")]
        for name, mod_name, attr in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *cls_path, leaf = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, afters.get(name))
            if name in hooks:
                wrapped = hooks[name](wrapped)
            if cls_path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        os.register_at_fork(after_in_child=self.disable)

    def _run_scope(self, wrapped):
        """Tag spans under simulate_run(cfg, run_index) with the run index."""

        @functools.wraps(wrapped)
        def scope(*args, **kwargs):
            prev = self.run_index
            self.run_index = kwargs.get("run_index", args[1] if len(args) > 1 else -1)
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.run_index = prev

        return scope

    def _emit_csv_scope(self, wrapped):
        """Count the rows handed to emit_csv and the bytes it wrote."""
        stat = self.stats["report.emit_csv"]

        @functools.wraps(wrapped)
        def scope(rows, *args, **kwargs):
            counted = [0]

            def counting(it):
                for row in it:
                    counted[0] += 1
                    yield row

            out = wrapped(counting(rows), *args, **kwargs)
            if self.enabled:
                stat.add("rows", counted[0])
                stat.add("bytes", os.path.getsize(out))
            return out

        return scope

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SPAN_COLUMNS)
            writer.writerows(self.spans)

    def summary(self) -> dict:
        """Per-name aggregates; shares are of the summed root (cli.main) time."""
        return {
            "root_ns": self.stats["cli.main"].incl_ns,
            "spans": len(self.spans) + self.dropped_spans,
            "missing": self.missing,
            "stats": {
                name: {"calls": s.calls, "incl_ns": s.incl_ns, "self_ns": s.self_ns, **s.extra}
                for name, s in self.stats.items()
            },
        }


def _after_scenario(stat, out) -> None:
    stat.add("periods", getattr(out, "horizon", 0))


def _after_gsf_update(stat, out) -> None:
    stat.add("underflow", int(bool(getattr(out, "underflow", False))))
    stat.add("spd_repairs", int(getattr(out, "spd_repairs", 0)))


def _after_vb_refine(stat, out) -> None:
    stat.add("dof_clamped", int(bool(getattr(out, "dof_clamped", False))))
