"""Spans around calls into shearwave's layers, recorded from outside.

The package imports its collaborators by name (``from .spectral import
compose``), so a wrapper only takes effect where the name is looked up:
each entry of PATCH_SITES names one such module attribute.  A span is one
call into a layer's public function.  Its self time is its duration minus
the durations of the spans it directly encloses.

numpy's FFT entry points are counted and timed too, but as a counter on
the innermost open span rather than as spans of their own, so a layer's
self time keeps the transforms it makes directly.
"""

import importlib
import time
from collections import defaultdict

# (module, attribute looked up at call time, span name)
PATCH_SITES = (
    ("shearwave.lagrangian", "compose", "spectral.compose"),
    ("shearwave.timestepper", "compose", "spectral.compose"),
    ("shearwave.diagnostics", "compose", "spectral.compose"),
    ("shearwave.lagrangian", "invert_diffeo", "spectral.invert_diffeo"),
    ("shearwave.timestepper", "rhs_u_form", "eulerian.rhs"),
    ("shearwave.timestepper", "rhs_m_form", "eulerian.rhs"),
    ("shearwave.timestepper", "spray_rhs", "lagrangian.spray_rhs"),
    ("shearwave.timestepper", "to_eulerian", "lagrangian.to_eulerian"),
    ("shearwave.timestepper", "make_record", "diagnostics.make_record"),
    (
        "shearwave.timestepper",
        "transported_density_invariant",
        "diagnostics.transported_density_invariant",
    ),
    ("shearwave.timestepper", "run", "timestepper.run"),
    ("shearwave.cli", "run", "timestepper.run"),
    ("shearwave.cli", "cmd_run", "cli.cmd_run"),
    ("shearwave.cli", "load_config", "config.load_config"),
    ("shearwave.cli", "write_snapshot_csv", "reporting.write_snapshot_csv"),
    ("shearwave.cli", "write_diagnostics_csv", "reporting.write_diagnostics_csv"),
    ("shearwave.cli", "write_run_json", "reporting.write_run_json"),
    ("shearwave.cli", "waterfall_plot", "svgplot.waterfall_plot"),
    ("shearwave.cli", "line_plot", "svgplot.line_plot"),
)

# The package calls np.fft.fft/ifft today; the real transforms are wrapped
# too so that a move to them is still counted.
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft")

# Spans that close before the diagnostics record at this simulated time
# count as early; the Lagrangian workload takes a snapshot there.
EARLY_T = 0.15


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "ffts", "sim_t")

    def __init__(self, name, start, parent, sim_t):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.ffts = 0
        self.sim_t = sim_t

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records closed spans in memory; install() patches, restore() undoes it."""

    def __init__(self):
        self.spans = []
        self.fft_s = 0.0
        self.missing = []
        self._open = []
        self._sim_t = 0.0
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name == "diagnostics.make_record":
                # its first argument is the snapshot time; later spans are after it
                tracer._sim_t = float(args[0])
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, time.perf_counter(), parent, tracer._sim_t)
            tracer._open.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)

        return traced

    def _wrap_fft(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.fft_s += time.perf_counter() - start
                if tracer._open:
                    tracer._open[-1].ffts += 1

        return traced

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        originals = {}
        for module_name, attr, name in PATCH_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            # one wrapper per function, shared by every module that names it
            key = (id(fn), name)
            if key not in originals:
                originals[key] = self._wrap(name, fn)
            self._patch(module, attr, originals[key])
        fft = importlib.import_module("numpy.fft")
        for attr in FFT_ENTRY_POINTS:
            self._patch(fft, attr, self._wrap_fft(getattr(fft, attr)))

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def layer_metrics(self):
        """Per-layer figures of one traced repetition, keyed by metric name."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        early_calls = defaultdict(int)
        early_s = defaultdict(float)
        ffts = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
            busy[span.name] += span.duration
            self_s[span.name] += span.self_s
            ffts[span.name] += span.ffts
            if span.sim_t < EARLY_T - 1e-9:
                early_calls[span.name] += 1
                early_s[span.name] += span.duration

        def ms_per_call(total, count):
            return 1e3 * total / count if count else 0.0

        def layer_busy(prefix):
            return sum(v for k, v in busy.items() if k.startswith(prefix))

        inv, comp = "spectral.invert_diffeo", "spectral.compose"
        rhs, spray = "eulerian.rhs", "lagrangian.spray_rhs"
        rec, tdi = "diagnostics.make_record", "diagnostics.transported_density_invariant"
        return {
            "spectral.invert_diffeo.calls": calls[inv],
            "spectral.invert_diffeo.ms_per_call": ms_per_call(busy[inv], calls[inv]),
            "spectral.invert_diffeo.early_ms_per_call": ms_per_call(
                early_s[inv], early_calls[inv]
            ),
            "spectral.compose.calls": calls[comp],
            "spectral.compose.ms_per_call": ms_per_call(busy[comp], calls[comp]),
            "spectral.fft.calls_per_rhs": ffts[rhs] / calls[rhs] if calls[rhs] else 0.0,
            "spectral.fft.busy_s": self.fft_s,
            "eulerian.rhs.calls": calls[rhs],
            "eulerian.rhs.ms_per_call": ms_per_call(busy[rhs], calls[rhs]),
            "eulerian.rhs.busy_s": busy[rhs],
            "lagrangian.spray_rhs.ms_per_call": ms_per_call(busy[spray], calls[spray]),
            "lagrangian.spray_rhs.self_ms_per_call": ms_per_call(
                self_s[spray], calls[spray]
            ),
            "lagrangian.to_eulerian.ms_per_call": ms_per_call(
                busy["lagrangian.to_eulerian"], calls["lagrangian.to_eulerian"]
            ),
            "timestepper.run.self_s": self_s["timestepper.run"],
            "timestepper.rhs_calls": calls[rhs] + calls[spray],
            "diagnostics.make_record.calls": calls[rec],
            "diagnostics.make_record.ms_per_call": ms_per_call(busy[rec], calls[rec]),
            "diagnostics.transported_density_invariant.ms_per_call": ms_per_call(
                busy[tdi], calls[tdi]
            ),
            "reporting.busy_s": layer_busy("reporting."),
            "svgplot.busy_s": layer_busy("svgplot."),
            "config.load_config.ms": 1e3 * busy["config.load_config"],
            "cli.cmd_run.self_s": self_s["cli.cmd_run"],
        }
