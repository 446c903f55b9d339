"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each listed function with a timing wrapper in
every ``edchan.*`` namespace that binds it: ``cli`` does
``from .cpcheck import is_cp``, so patching ``edchan.cpcheck`` alone would
miss the calls made from ``cli``. A span is (name, start, end, parent index,
op id, info), kept in memory and written out when the run ends. A recursive
function (``canonical_dumps``) gets one span per outermost call.

Run as a script, this executes one traced CLI op in a fresh interpreter and
writes its spans to a file, so the cold-start workload can be traced too:

    python3 bench/tracing.py SPANS_OUT OP_ID -- CLI_ARGS...
"""

from __future__ import annotations

import functools
import json
import sys
import time

# The public functions of each layer (the modules of src/edchan).
LAYERS = {
    "matcore": ("matexp", "integral_of_exp", "is_psd"),
    "channel": ("EDMap.to_linear_map", "invert", "compose", "apply",
                "is_trace_preserving"),
    "cpcheck": ("choi", "is_cp", "is_cp_ed", "kraus_from_choi", "ball_decompose",
                "explicit_kraus_ed", "is_trace_nonincreasing", "is_positive_ed_dg1",
                "is_positive_sampled"),
    "dynamics": ("gkls_superop", "semigroup_at", "semigroup_trajectory",
                 "build_td_trajectory", "propagator", "is_cp_divisible",
                 "trajectory_observables"),
    "jsonio": ("edmap_from_dict", "semigroup_spec_from_dict",
               "generator_table_from_dict", "trajectory_from_dict",
               "canonical_dumps", "observables_to_csv"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _matrix_side(args):
    return len(args[0])


def _choi_side(args):
    return args[0].d_in * args[0].d_out


# Spans of these functions record the matrix side of the call, summed into
# <name>.n_sum.
SIZED = {
    "matcore.matexp": _matrix_side,
    "matcore.integral_of_exp": _matrix_side,
    "cpcheck.choi": _choi_side,
    "cpcheck.is_cp": _choi_side,
}
SAMPLER = "cpcheck.is_positive_sampled"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        import edchan.cli  # noqa: F401  (loads every layer)

        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "edchan" or name.startswith("edchan."))]
        for mod, fns in LAYERS.items():
            module = sys.modules[f"edchan.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(module, cls_name)
                    orig = getattr(cls, attr)
                    self._patch(cls, attr, self._wrap(name, orig))
                    continue
                orig = getattr(module, fn)
                wrapper = self._wrap(name, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        size = SIZED.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(spans[i][0] == name for i in stack):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                    size(args) if size else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == SAMPLER:
                span[5] = [result.samples_used, int(result.witness is not None)]
            return result

        return wrapper

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1,
                               s[4], s[5]])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)


def summarize(spans) -> dict:
    """Per-layer metrics: calls, busy and self seconds, matrix sides, samples."""
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (0, "count")
        metrics[f"{name}.busy_s"] = (0.0, "s")
        metrics[f"{name}.self_s"] = (0.0, "s")
    for name in SIZED:
        metrics[f"{name}.n_sum"] = (0, "count")
    metrics[f"{SAMPLER}.samples"] = (0, "count")
    metrics[f"{SAMPLER}.witnesses"] = (0, "count")

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def add(key, amount):
        value, unit = metrics[key]
        metrics[key] = (value + amount, unit)

    for s, children in zip(spans, child_time):
        name, duration = s[0], s[2] - s[1]
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", duration)
        add(f"{name}.self_s", duration - children)
        if name in SIZED:
            add(f"{name}.n_sum", s[5])
        elif name == SAMPLER:
            add(f"{SAMPLER}.samples", s[5][0])
            add(f"{SAMPLER}.witnesses", s[5][1])
    return metrics


def child_main(argv) -> int:
    """Run one CLI op under the tracer and write its spans (see module doc)."""
    spans_out, op_id = argv[0], int(argv[1])
    cli_argv = argv[3:] if argv[2] == "--" else argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    import edchan.cli

    try:
        return edchan.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
