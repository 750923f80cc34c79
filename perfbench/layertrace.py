"""Outside-in tracing of the fsrv layers.

The tracer wraps module-level functions and methods of the program from the
outside, so no program file changes. A module-level function is replaced in
every `fsrv` module that holds it, because several modules import it by name
(`integrate`, `scaled_convolution`, `pdf_numeric`, `parse_seed_spec`).

A span records name, start, end, parent and op id. A light wrapper only
tallies calls and self time; it serves functions called up to millions of
times per pass, where a span record each would swamp the run. A leaf wrapper
is a light wrapper for functions that make no wrapped calls, with the least
overhead. Self time is a wrapper's duration minus the time of the wrapped
calls made inside it.
"""

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "seeds", "numerics", "marginal", "limits", "joint_predict", "simulate")

#: Span records kept per op for the trace file, from the first traced pass.
SPAN_RECORDS_PER_OP = 2_000

#: (metric, unit, better). Count metrics do not depend on the machine and
#: must repeat exactly from pass to pass.
METRICS = (
    ("numerics.integrand_evals", "count", "lower"),
    ("numerics.integrate_calls", "count", "lower"),
    ("numerics.evals_per_value", "count", "lower"),
    ("numerics.convolution_calls", "count", "lower"),
    ("numerics.pieces_per_convolution", "count", "lower"),
    ("numerics.certificate_evals", "count", "lower"),
    ("numerics.certificate_s", "s", "lower"),
    ("numerics.grid_s", "s", "lower"),
    ("numerics.nonconvergence_errors", "count", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("seeds.pdf_calls", "count", "lower"),
    ("seeds.breakpoints_calls", "count", "lower"),
    ("seeds.self_s", "s", "lower"),
    ("marginal.pdf_numeric_s", "s", "lower"),
    ("marginal.closed_s", "s", "lower"),
    ("marginal.self_s", "s", "lower"),
    ("limits.pdf_limit_numeric_s", "s", "lower"),
    ("limits.pdf_sum_s", "s", "lower"),
    ("limits.closed_s", "s", "lower"),
    ("limits.self_s", "s", "lower"),
    ("joint_predict.normalization_s", "s", "lower"),
    ("joint_predict.joint_pdf_calls", "count", "lower"),
    ("joint_predict.predict_s", "s", "lower"),
    ("joint_predict.predict_calls", "count", "lower"),
    ("joint_predict.known_defects", "count", "lower"),
    ("joint_predict.self_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.bytes_out", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("simulate.draw_s", "s", "lower"),
    ("simulate.paths_per_s", "1/s", "higher"),
    ("simulate.reduce_s", "s", "lower"),
    ("simulate.recursion_steps", "count", "lower"),
    ("simulate.sample_path_calls", "count", "lower"),
    ("simulate.sample_path_s", "s", "lower"),
    ("simulate.serialize_s", "s", "lower"),
    ("simulate.ratio_excluded", "fraction", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("trace.wrapped_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [span id or None, name, seconds in wrapped children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # inclusive time of spans not nested in their own name
        self.open = Counter()
        self.tally = Counter()
        self.leaf_cells = {}  # name -> [calls, seconds]
        self.records = []
        self.dropped = 0
        self.recording = True
        self.next_id = 0
        self.op = None
        self.command = None
        self.op_first_id = 0
        self.missing = []
        self._patches = []

    def begin_op(self, key: str, command: str | None) -> None:
        self.op, self.command, self.op_first_id = key, command, self.next_id

    def reset(self) -> None:
        """Clear per-pass tallies; span records keep accumulating."""
        for table in (self.calls, self.self_s, self.outer_s, self.tally):
            table.clear()
        for cell in self.leaf_cells.values():
            cell[:] = [0, 0.0]

    # ------------------------------------------------------------ wrappers

    def run_span(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        sid = self.next_id
        self.next_id = sid + 1
        frame = [sid, name, 0.0]
        stack.append(frame)
        depth = self.open[name]
        self.open[name] = depth + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.open[name] = depth
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            if not depth:
                self.outer_s[name] += dur
            if parent is not None:
                parent[2] += dur
            if self.recording:
                if sid - self.op_first_id < SPAN_RECORDS_PER_OP:
                    self.records.append({"id": sid, "name": name, "start": t0, "end": t1,
                                         "parent": parent[0] if parent else None, "op": self.op})
                else:
                    self.dropped += 1

    def span(self, name):
        def make(fn):
            def wrapped(*args, **kwargs):
                return self.run_span(name, fn, args, kwargs)
            return wrapped
        return make

    def light(self, name, tally=None):
        """Wrapper that tallies calls and self time only. `tally(args)`, if
        given, returns (counter name, amount) to add per call."""
        stack, calls, self_s, counts = self.stack, self.calls, self.self_s, self.tally

        def make(fn):
            def wrapped(*args, **kwargs):
                frame = [None, name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    calls[name] += 1
                    self_s[name] += dur - frame[2]
                    if stack:
                        stack[-1][2] += dur
                    if tally is not None:
                        key, amount = tally(args)
                        counts[key] += amount
            return wrapped
        return make

    def leaf(self, name):
        """Cheapest wrapper, for functions that make no wrapped calls and are
        called millions of times: seed densities."""
        stack, cell = self.stack, self.leaf_cells.setdefault(name, [0, 0.0])

        def make(fn):
            def wrapped(*args):
                t0 = perf_counter()
                value = fn(*args)
                dur = perf_counter() - t0
                cell[0] += 1
                cell[1] += dur
                if stack:
                    stack[-1][2] += dur
                return value
            return wrapped
        return make

    # ------------------------------------------------------------- patching

    def patch_function(self, module, attr, make) -> None:
        """Replace module.attr, and every other binding of the same function
        object in an fsrv module, with make(original)."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fsrv" or mod_name.startswith("fsrv.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, make) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapper = classmethod(make(raw.__func__))
        else:
            wrapper = make(raw)
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        from fsrv import cli, joint_predict, limits, marginal, numerics, seeds, simulate
        from fsrv.errors import NonConvergenceError

        fn, meth, span, light = self.patch_function, self.patch_method, self.span, self.light

        fn(cli, "main", span("cli.main"))
        # parse_seed_spec includes the table CSV load
        fn(seeds, "parse_seed_spec", span("cli.parse"))
        for attr in ("_csv_table", "_dumps", "_emit"):
            fn(cli, attr, self._emit_span)

        fn(numerics, "integrate", lambda f: self._integrate_span(f, NonConvergenceError))
        fn(numerics, "scaled_convolution", span("numerics.convolution"))
        meth(numerics.DensityCurve, "from_function", span("numerics.from_function"))

        for cls in (seeds.Exponential, seeds.UniformUnit, seeds.StandardNormal, seeds.Tabulated):
            meth(cls, "pdf", self.leaf("seeds.pdf"))
        meth(seeds.Tabulated, "breakpoints", light("seeds.breakpoints"))

        fn(marginal, "pdf_numeric", span("marginal.pdf_numeric"))
        for attr in ("pdf_exponential_closed", "pdf_uniform_closed", "pdf_normal_closed"):
            fn(marginal, attr, light("marginal.closed"))

        fn(limits, "pdf_limit_numeric", span("limits.pdf_limit_numeric"))
        fn(limits, "pdf_sum", span("limits.pdf_sum"))
        for attr in ("pdf_limit_exponential_closed", "pdf_limit_uniform_closed",
                     "pdf_sum_exponential_closed"):
            fn(limits, attr, light("limits.closed"))

        fn(joint_predict, "joint_normalization_check", span("joint_predict.normalization"))
        fn(joint_predict, "joint_pdf", light("joint_predict.joint_pdf"))
        fn(joint_predict, "predict", span("joint_predict.predict"))
        fn(joint_predict, "prediction_curve", span("joint_predict.prediction_curve"))

        run_cls = simulate.SimulationRun
        fn(simulate, "run_simulation",
           self._tallied_span("simulate.draw", lambda a: ("simulate.paths_drawn", a[0].n_paths)))
        # one recursion step per member: the summary pass walks the horizon
        meth(run_cls, "summary",
             self._tallied_span("simulate.reduce",
                                lambda a: ("simulate.recursion_steps", a[0].config.horizon)))
        fn(simulate, "ratio_stats", self._ratio_span)
        fn(simulate, "ks_distance", span("simulate.reduce"))
        for attr in ("values_at", "sums_at"):
            meth(run_cls, attr, light("simulate.recursion",
                                      lambda a: ("simulate.recursion_steps", a[1])))
        fn(simulate, "sample_path", light("simulate.sample_path"))
        meth(run_cls, "summary_json", span("simulate.serialize"))

    def _emit_span(self, fn):
        """CLI formatting and writing. `_dumps` recurses into itself; only
        the outermost call is a span. Emit time of `simulate` commands also
        counts as simulation serialization."""
        def wrapped(*args, **kwargs):
            if self.stack and self.stack[-1][1] == "cli.emit":
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return self.run_span("cli.emit", fn, args, kwargs)
            finally:
                if self.command == "simulate":
                    self.tally["simulate.serialize_s"] += perf_counter() - t0
        return wrapped

    def _integrate_span(self, fn, nonconvergence):
        tally, stack = self.tally, self.stack

        def wrapped(f, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            parent = stack[-1][1] if stack else None
            t0 = perf_counter()
            try:
                return self.run_span("numerics.integrate", fn, (counted,) + args, kwargs)
            except nonconvergence:
                tally["numerics.nonconvergence_errors"] += 1
                raise
            finally:
                tally["numerics.integrand_evals"] += evals
                if parent == "numerics.from_function":
                    tally["numerics.certificate_evals"] += evals
                    tally["numerics.certificate_s"] += perf_counter() - t0
                elif parent == "numerics.convolution":
                    tally["numerics.convolution_pieces"] += 1
        return wrapped

    def _tallied_span(self, name, tally):
        def make(fn):
            def wrapped(*args, **kwargs):
                key, amount = tally(args)
                self.tally[key] += amount
                return self.run_span(name, fn, args, kwargs)
            return wrapped
        return make

    def _ratio_span(self, fn):
        def wrapped(*args, **kwargs):
            stats = self.run_span("simulate.reduce", fn, args, kwargs)
            self.tally["simulate.ratio_excluded"] += stats.n_excluded
            self.tally["simulate.ratio_attempted"] += stats.n_used + stats.n_excluded
            return stats
        return wrapped

    # -------------------------------------------------------------- results

    def pass_metrics(self, values: int) -> dict:
        """Per-layer metrics of the pass since the last reset()."""
        c, s, o, k = self.calls.copy(), self.self_s.copy(), self.outer_s, self.tally
        for name, (calls, seconds) in self.leaf_cells.items():
            c[name] += calls
            s[name] += seconds

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "numerics.integrand_evals": k["numerics.integrand_evals"],
            "numerics.integrate_calls": c["numerics.integrate"],
            "numerics.evals_per_value": ratio(k["numerics.integrand_evals"], values),
            "numerics.convolution_calls": c["numerics.convolution"],
            "numerics.pieces_per_convolution": ratio(k["numerics.convolution_pieces"],
                                                     c["numerics.convolution"]),
            "numerics.certificate_evals": k["numerics.certificate_evals"],
            "numerics.certificate_s": k["numerics.certificate_s"],
            "numerics.grid_s": o["numerics.from_function"] - k["numerics.certificate_s"],
            "numerics.nonconvergence_errors": k["numerics.nonconvergence_errors"],
            "seeds.pdf_calls": c["seeds.pdf"],
            "seeds.breakpoints_calls": c["seeds.breakpoints"],
            "marginal.pdf_numeric_s": s["marginal.pdf_numeric"],
            "marginal.closed_s": s["marginal.closed"],
            "limits.pdf_limit_numeric_s": s["limits.pdf_limit_numeric"],
            "limits.pdf_sum_s": s["limits.pdf_sum"],
            "limits.closed_s": s["limits.closed"],
            "joint_predict.normalization_s": o["joint_predict.normalization"],
            "joint_predict.joint_pdf_calls": c["joint_predict.joint_pdf"],
            "joint_predict.predict_s": o["joint_predict.predict"],
            "joint_predict.predict_calls": c["joint_predict.predict"],
            "cli.parse_s": o["cli.parse"],
            "cli.emit_s": o["cli.emit"],
            "cli.bytes_out": k["cli.bytes_out"],
            "simulate.draw_s": o["simulate.draw"],
            "simulate.paths_per_s": ratio(k["simulate.paths_drawn"], o["simulate.draw"]),
            "simulate.reduce_s": o["simulate.reduce"],
            "simulate.recursion_steps": k["simulate.recursion_steps"],
            "simulate.sample_path_calls": c["simulate.sample_path"],
            "simulate.sample_path_s": s["simulate.sample_path"],
            "simulate.serialize_s": s["simulate.serialize"] + k["simulate.serialize_s"],
            "simulate.ratio_excluded": ratio(k["simulate.ratio_excluded"],
                                             k["simulate.ratio_attempted"]),
            "trace.wrapped_calls": sum(c.values()),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for name, v in s.items() if name.startswith(layer + "."))
        return m

    def write(self, path, header: dict) -> None:
        doc = dict(header, time_unit="s", clock="perf_counter", dropped=self.dropped,
                   spans=self.records)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
