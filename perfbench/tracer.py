"""Spans around calls into topicsim's layers, recorded from outside the package.

`install(tracer)` replaces chosen topicsim functions and methods, in every
topicsim module that holds them, with wrappers that record a span (name,
start, end, parent) plus a few counts per call. Nothing under `src/`
changes. A target that no longer exists is listed in `tracer.absent` and
its metrics read 0; the traced run does not fail because of it.

`layer_metrics(spans)` turns the spans of one workload run into the
per-layer metrics listed in BENCHMARK.json.

Run as a script, this file is the traced stand-in for `python -m
topicsim.cli`: `python perfbench/tracer.py SPANS.json -- <cli args>`
installs the wrappers, runs the subcommand and writes its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

MiB = float(1 << 20)
LAYERS = ("classification", "population", "simulator", "denoiser", "reidentify", "cli")
CLI_STAGES = ("generate", "simulate", "denoise", "reidentify")


def now() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span list for one process; written out once at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.recording = True  # wrappers pass calls straight through when False
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": now(), "end": None, "parent": parent,
                           "pid": os.getpid(), "attrs": {}})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = now()
        self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans written by a subprocess, hanging its roots under `parent`."""
        base = len(self.spans)
        for s in spans:
            s = dict(s)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            self.spans.append(s)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "absent": self.absent}), encoding="utf-8")


# --- per-call counts, taken after the span has ended ---------------------


def _generate_attrs(args, kwargs, result, cpu0):
    t = os.times()
    users = result
    return {
        "users": len(users),
        "visits": sum(len(u.visited_domains) for u in users),
        "cpu_s": t.user + t.system + t.children_user + t.children_system - cpu0,
    }


def _path_mb(path) -> float:
    return os.path.getsize(path) / MiB


def _engine_attrs(args, kwargs, result, cpu0):
    engine = args[0]
    nbytes = sum(v.nbytes for v in vars(engine).values() if isinstance(v, np.ndarray))
    return {"state_mb": nbytes / MiB}


def _match_attrs(args, kwargs, result, cpu0, default_block):
    a, b = args[0], args[1]
    block = kwargs.get("block", args[2] if len(args) > 2 else default_block)
    n_a, n_b, width = a.shape[0], b.shape[0], a.shape[1]
    itemsize = np.result_type(a, b).itemsize
    return {
        "pairs": n_a * n_b,
        "gflop": 2.0 * n_a * n_b * width / 1e9,
        "block_mb": min(block, n_a) * n_b * itemsize / MiB,
    }


# (span name, module, attribute path, counts taken from (args, kwargs, result, cpu0))
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("classification.synthesize", "topicsim.classification", "synthesize_skewed_classification", None),
    ("classification.prevalence", "topicsim.classification", "prevalence", None),
    ("population.generate", "topicsim.population", "generate_population", _generate_attrs),
    ("population.write", "topicsim.population", "write_population",
     lambda a, k, r, c: {"file_mb": _path_mb(a[1] if len(a) > 1 else k["path"])}),
    ("population.read", "topicsim.population", "read_population", None),
    ("simulator.run_scenario", "topicsim.simulator", "run_scenario",
     lambda a, k, r, c: {"api_calls": int(np.prod(r.topics.shape[:3]))}),
    ("simulator.write_log", "topicsim.simulator", "ObservationLog.write_ndjson",
     lambda a, k, r, c: {"file_mb": _path_mb(a[1] if len(a) > 1 else k["path"])}),
    ("simulator.write_truth", "topicsim.simulator", "ObservationLog.write_truth_ndjson",
     lambda a, k, r, c: {"file_mb": _path_mb(a[1] if len(a) > 1 else k["path"])}),
    ("denoiser.trajectory", "topicsim.denoiser", "denoise_site_trajectory", None),
    ("denoiser.engine_init", "topicsim.denoiser", "MultiShotEngine.__init__", _engine_attrs),
    ("denoiser.observe", "topicsim.denoiser", "MultiShotEngine.observe_epoch",
     lambda a, k, r, c: {"slots": int(np.count_nonzero(np.asarray(a[2] if len(a) > 2 else k["call_topics"]) >= 0))}),
    ("denoiser.genuine_matrix", "topicsim.denoiser", "MultiShotEngine.genuine_matrix", None),
    ("reidentify.run", "topicsim.reidentify", "run_reidentification", None),
    ("reidentify.match", "topicsim.reidentify", "_argmax_match", "match"),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, counts) -> Callable:
    if counts == "match":
        default_block = inspect.signature(fn).parameters.get("block")
        default_block = default_block.default if default_block is not None else 1024
        counts = functools.partial(_match_attrs, default_block=default_block)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        t = os.times()
        cpu0 = t.user + t.system + t.children_user + t.children_system
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counts is not None:
            tracer.spans[idx]["attrs"].update(counts(args, kwargs, result, cpu0))
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target wherever topicsim's modules refer to it."""
    importlib.import_module("topicsim.cli")  # imports every layer module
    modules = [m for n, m in sys.modules.items() if n == "topicsim" or n.startswith("topicsim.")]
    for name, module_name, attr_path, counts in TARGETS:
        owner = sys.modules.get(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.absent.append(f"{module_name}.{attr_path}")
            continue
        wrapped = _wrap(tracer, name, fn, counts)
        setattr(owner, attr, wrapped)
        if not owner_path:  # module function: also replace names imported elsewhere
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)


# --- metrics from spans ---------------------------------------------------


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _uncovered(spans: list[dict], start: float, end: float) -> float:
    """Time in [start, end] that no root span covers."""
    covered, reach = 0.0, start
    for lo, hi in sorted((s["start"], s["end"]) for s in spans if s["parent"] is None):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(spans: list[dict], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of one workload run whose process(es) ran from start to end."""
    own = _self_times(spans)

    def of(name):
        return [(s, own[i]) for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s, _ in of(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s, _ in of(name))

    def attr_max(name, key):
        return max([s["attrs"].get(key, 0) for s, _ in of(name)], default=0)

    state_by_pid: dict[int, float] = {}
    for s, _ in of("denoiser.engine_init"):
        state_by_pid[s["pid"]] = state_by_pid.get(s["pid"], 0.0) + s["attrs"]["state_mb"]

    gen_s, match_s, gflop = total("population.generate"), total("reidentify.match"), attr_sum("reidentify.match", "gflop")
    m = {
        "classification.synthesize_s": total("classification.synthesize"),
        "classification.prevalence_s": total("classification.prevalence"),
        "population.generate_s": gen_s,
        "population.generate_cpu_s": attr_sum("population.generate", "cpu_s"),
        "population.users_per_s": attr_sum("population.generate", "users") / gen_s if gen_s else 0.0,
        "population.visits": attr_sum("population.generate", "visits"),
        "population.write_s": total("population.write"),
        "population.read_s": total("population.read"),
        "population.file_mb": attr_max("population.write", "file_mb"),
        "simulator.run_scenario_s": total("simulator.run_scenario"),
        "simulator.run_scenario_calls": len(of("simulator.run_scenario")),
        "simulator.api_calls": attr_sum("simulator.run_scenario", "api_calls"),
        "simulator.write_log_s": total("simulator.write_log"),
        "simulator.write_truth_s": total("simulator.write_truth"),
        "simulator.log_mb": attr_max("simulator.write_log", "file_mb"),
        "simulator.truth_mb": attr_max("simulator.write_truth", "file_mb"),
        "denoiser.observe_s": total("denoiser.observe"),
        "denoiser.observe_calls": len(of("denoiser.observe")),
        "denoiser.slots": attr_sum("denoiser.observe", "slots"),
        "denoiser.genuine_matrix_s": total("denoiser.genuine_matrix"),
        "denoiser.genuine_matrix_calls": len(of("denoiser.genuine_matrix")),
        "denoiser.score_s": sum(o for _, o in of("denoiser.trajectory")),
        "denoiser.state_mb": max(state_by_pid.values(), default=0.0),
        "reidentify.match_s": match_s,
        "reidentify.match_calls": len(of("reidentify.match")),
        "reidentify.pairs": attr_sum("reidentify.match", "pairs"),
        "reidentify.gflop": gflop,
        "reidentify.gflop_per_s": gflop / match_s if match_s else 0.0,
        "reidentify.self_s": sum(o for _, o in of("reidentify.run")),
        "reidentify.block_mb": attr_max("reidentify.match", "block_mb"),
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = total(f"cli.{stage}")
        m[f"cli.{stage}_rss_mb"] = attr_max(f"cli.{stage}", "rss_mb")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(own[i] for i, s in enumerate(spans) if s["name"].split(".")[0] == layer)
    m["trace.uncovered_s"] = _uncovered(spans, start, end)
    return m


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <topicsim cli args>")
    tracer = Tracer()
    install(tracer)
    from topicsim.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
