"""Spans taken from outside the program.

`install` replaces each name a layer exposes, where its caller looks it
up, by a wrapper that records a span (name, start, end, parent) and a few
counts; `Tracer.restore` puts the original objects back.  Spans are kept
in memory and written when the run ends.  A span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

LAYERS = ("basis", "operators", "noise", "integrator", "diagnostics", "cli")

# report functions the CLI handlers reach through `lans_alpha.cli.dg`
_REPORTS = (
    "ito_balance_report",
    "moment_report",
    "exp_moment_report",
    "ou_variance_comparison",
    "bismut_elworthy",
    "invariant_stats",
    "strong_convergence_study",
)


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_return=None):
        """`fn` recording a span per call; `on_return(args, result)` updates counts."""
        clock, spans, ids, stack_of = self.clock, self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end))
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None, replace=None) -> None:
        """Replace `owner.attr` by its traced wrapper (or by `replace(wrapper)`)."""
        original = owner.__dict__[attr]
        traced = self.wrap(name, original, on_return)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced if replace is None else replace(traced))

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    def restore(self) -> None:
        """Put every patched name back to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TracedGenerator:
    """Proxy around a numpy Generator whose draws are traced."""

    __slots__ = ("_gen", "_draw")

    def __init__(self, gen, draw):
        self._gen = gen
        self._draw = draw

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _rows(c) -> int:
    return c.shape[0] if c.ndim == 2 else 1


def install(tracer: Tracer) -> None:
    """Wrap the public names of every layer where the program looks them up."""
    from lans_alpha import basis, cli, diagnostics, integrator

    counts = tracer.counts
    chunk = integrator._NOISE_CHUNK

    def tensor(args, result):
        counts["basis.grid_tensor_bytes"] += result.nbytes

    for attr in ("mode_values", "mode_curls", "mode_gradients"):
        tracer.patch(basis.Basis, attr, "basis.grid_tensor", tensor)
    tracer.patch(cli, "build_basis", "basis.build")

    def nonlinear(args, result):
        b = args[0]
        counts["operators.nonlinear.members"] += _rows(args[1])
        # one curl and two velocity passes over the (modes x grid) tensors
        counts["operators.nonlinear.bytes"] += 5 * 8 * b.mode_count * b.grid_size**2

    tracer.patch(integrator, "nonlinear_coeffs", "operators.nonlinear", nonlinear)
    tracer.patch(integrator, "linearized_nonlinear_coeffs", "operators.linearized")
    for owner in (integrator, diagnostics):
        tracer.patch(owner, "alpha_energy", "operators.reduce")
    tracer.patch(integrator, "alpha_dissipation", "operators.reduce")

    tracer.patch(cli, "make_noise", "noise.make")

    def draws(args, result):
        counts["noise.draws"] += result.size

    draw = tracer.wrap("noise.draw", lambda gen, *a, **k: gen.standard_normal(*a, **k), draws)
    for owner in (integrator, diagnostics):
        tracer.patch(
            owner, "substream", "noise.substream",
            replace=lambda traced: lambda seed, member=0: _TracedGenerator(traced(seed, member), draw),
        )

    def stepped(args, result):
        counts["integrator.steps"] += 1
        counts["integrator.member_steps"] += _rows(args[1])

    kernel = integrator.StepKernel
    tracer.patch(kernel, "__init__", "integrator.kernel")
    tracer.patch(kernel, "step", "integrator.step", stepped)
    tracer.patch(kernel, "step_variation", "integrator.step_variation")

    def noise_block(members, cfg, spec):
        if spec.sigma > 0:
            block = members * min(chunk, cfg.num_steps()) * spec.basis.mode_count * 8
            counts["noise.chunk_bytes"] = max(counts["noise.chunk_bytes"], block)

    def ensemble_block(args, result):
        noise_block(args[4], args[3], args[2])

    def single_path(args, result):
        noise_block(1, args[3], args[2])

    for owner in (cli, diagnostics):
        tracer.patch(owner, "run_ensemble", "integrator.run_ensemble")
        tracer.patch(owner, "integrate", "integrator.loop", single_path)
    tracer.patch(integrator, "_run_ensemble_block", "integrator.loop", ensemble_block)

    for attr in _REPORTS:
        tracer.patch(diagnostics, attr, "diagnostics.report")

    def csv_written(args, result):
        counts["cli.csv_bytes"] += os.path.getsize(args[0])

    tracer.patch(cli, "parse_config", "cli.parse")
    tracer.patch(cli, "run", "cli.run")
    tracer.patch(cli, "write_csv", "cli.write_csv", csv_written)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def by_name(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, _, start, end in spans:
        a = agg[name]
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += own[sid]
    return dict(agg)


# every metric layer_metrics returns, with its unit
UNITS = {
    "basis.grid_tensor_s": "s",
    "basis.grid_tensor_mb": "MB",
    "operators.nonlinear.calls": "count",
    "operators.nonlinear.s": "s",
    "operators.nonlinear.us_per_member": "us",
    "operators.nonlinear.mb_per_call": "MB",
    "operators.linearized.calls": "count",
    "operators.linearized.s": "s",
    "operators.reduce.s": "s",
    "noise.substreams": "count",
    "noise.substream_s": "s",
    "noise.draws": "count",
    "noise.draw_s": "s",
    "noise.chunk_mb": "MB",
    "integrator.steps": "count",
    "integrator.member_steps": "count",
    "integrator.step.self_s": "s",
    "integrator.loop.self_s": "s",
    "integrator.us_per_step": "us",
    "diagnostics.reduce_s": "s",
    "cli.parse_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.accounted_share": "ratio",
}


def layer_metrics(spans, counts, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced workload run."""
    agg = by_name(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    nl_calls = get("operators.nonlinear", "calls")
    steps = counts.get("integrator.steps", 0.0)
    loop_self = get("integrator.loop", "self_s") + get("integrator.run_ensemble", "self_s")
    m = {
        "basis.grid_tensor_s": get("basis.grid_tensor", "s"),
        "basis.grid_tensor_mb": counts.get("basis.grid_tensor_bytes", 0.0) / 1e6,
        "operators.nonlinear.calls": nl_calls,
        "operators.nonlinear.s": get("operators.nonlinear", "s"),
        "operators.nonlinear.us_per_member": ratio(
            get("operators.nonlinear", "s"), counts.get("operators.nonlinear.members", 0.0), 1e6
        ),
        "operators.nonlinear.mb_per_call": ratio(
            counts.get("operators.nonlinear.bytes", 0.0), nl_calls, 1e-6
        ),
        "operators.linearized.calls": get("operators.linearized", "calls"),
        "operators.linearized.s": get("operators.linearized", "s"),
        "operators.reduce.s": get("operators.reduce", "s"),
        "noise.substreams": get("noise.substream", "calls"),
        "noise.substream_s": get("noise.substream", "s"),
        "noise.draws": counts.get("noise.draws", 0.0),
        "noise.draw_s": get("noise.draw", "s"),
        "noise.chunk_mb": counts.get("noise.chunk_bytes", 0.0) / 1e6,
        "integrator.steps": steps,
        "integrator.member_steps": counts.get("integrator.member_steps", 0.0),
        "integrator.step.self_s": get("integrator.step", "self_s")
        + get("integrator.step_variation", "self_s"),
        "integrator.loop.self_s": loop_self,
        "integrator.us_per_step": ratio(loop_self, steps, 1e6),
        "diagnostics.reduce_s": get("diagnostics.report", "self_s"),
        "cli.parse_s": get("cli.parse", "s"),
        "cli.write_csv_s": get("cli.write_csv", "s"),
        "cli.csv_bytes": counts.get("cli.csv_bytes", 0.0),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, a in agg.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += a["self_s"]
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    m["trace.wall_s"] = wall_s
    m["trace.accounted_share"] = ratio(sum(layer_self.values()), wall_s)
    return m


def write_spans(spans, path: str) -> None:
    """One span per line: id, name, parent id (-1 for a root), start, end."""
    with open(path, "w") as fh:
        fh.write("id,name,parent,start,end\n")
        fh.writelines(
            f"{sid},{name},{-1 if parent is None else parent},{start!r},{end!r}\n"
            for sid, name, parent, start, end in spans
        )
