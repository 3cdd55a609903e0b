"""Trace wrappers for the traced run: spans around every public library
function, counters on CycloNum arithmetic, and the cyclo unit-cost probe.

``install`` replaces each public function of each rigidconn module at
every import site (``transforms.fourier_global`` is also patched where
``adk`` imported it) and wraps ``CycloNum.__add__``/``__mul__``/``inv``
with counters by cyclotomic level.  ``uninstall`` puts every original
object back, so with tracing off the library is untouched.

A span is (name, start, end, parent, operation id).  Spans live in
compact arrays while the run lasts and are written out when it ends.
Self time is a span's duration minus the part its child spans cover,
accumulated as spans close.  Library calls made outside an operation
(the reference checks) are not recorded.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import random
import statistics
import time
from fractions import Fraction

MODULES = [
    "cyclo", "radicals", "puiseux", "linalg", "formal", "rigidity",
    "transforms", "adk", "enumerate", "stokes", "cli",
]
LEGS = ("transforms.finite_to_inf", "transforms.inf_to_inf", "transforms.inf_to_finite")
_CYCLO_METHODS = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul", "inv": "inv"}
PROBE_LEVELS = (1, 6, 12)
_SAMPLES_PER_LEVEL = 32
_PROBE_BATCHES = 5
_PROBE_BATCH_S = 0.004

perf = time.perf_counter


def library_modules():
    return [importlib.import_module("rigidconn")] + [
        importlib.import_module("rigidconn." + m) for m in MODULES
    ]


def public_functions():
    """{function: 'module.name'} for every public function defined in a
    rigidconn module."""
    out = {}
    for m in MODULES:
        mod = importlib.import_module("rigidconn." + m)
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[obj] = f"{m}.{name}"
    return out


def snapshot():
    """Identity snapshot of every rigidconn module attribute and of the
    CycloNum class dictionary."""
    from rigidconn.cyclo import CycloNum

    snap = {}
    for mod in library_modules():
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
    for name, obj in vars(CycloNum).items():
        snap[("CycloNum", name)] = obj
    return snap


class Tracer:
    def __init__(self, max_spans: int):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.sp_name = array.array("i")
        self.sp_parent = array.array("i")
        self.sp_op = array.array("i")
        self.sp_start = array.array("d")
        self.sp_end = array.array("d")
        self.stack: list = []
        self.agg: list = []  # per name: [calls, total_s, self_s]
        self.active = False
        self.op = -1
        self.max_spans = max_spans
        self.patches: list = []
        # counters read by the per-layer metrics
        self.cyclo_counts: dict = {}  # (op, level) -> calls
        self.cyclo_samples: dict = {}  # (op, level) -> [operands]
        self.rig_calls = self.rig2 = 0
        self.leg_seen: set = set()
        self.leg_repeats = 0
        self.reduce_steps = self.stuck_steps = self.twist_candidates = 0
        self.cert_bytes: list[int] = []
        self.candidates = 0

    @property
    def full(self) -> bool:
        return len(self.sp_start) >= self.max_spans

    def name_id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.agg.append([0, 0.0, 0.0])
        return self.index[name]

    # -- spans ------------------------------------------------------------

    def enter(self, idx: int):
        start = perf()
        sid = len(self.sp_start)
        self.sp_name.append(idx)
        self.sp_start.append(start)
        self.sp_end.append(0.0)
        self.sp_parent.append(self.stack[-1][3] if self.stack else -1)
        self.sp_op.append(self.op)
        frame = [idx, start, 0.0, sid]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf()
        self.stack.pop()
        dur = end - frame[1]
        self.sp_end[frame[3]] = end
        a = self.agg[frame[0]]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1][0]] if self.stack else None

    def root(self, name: str, op: int):
        """Context manager for a benchmark-side root span."""
        return _Root(self, self.name_id(name), op)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, f, name: str):
        idx = self.name_id(name)
        hook = _HOOKS.get(name)
        tracer = self
        if inspect.isgeneratorfunction(f):
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return f(*args, **kwargs)
                return tracer._traced_gen(f(*args, **kwargs), idx, hook)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return f(*args, **kwargs)
            frame = tracer.enter(idx)
            try:
                res = f(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer, args, res)
            return res

        return wrapper

    def _traced_gen(self, gen, idx, hook):
        try:
            while True:
                frame = self.enter(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                if hook is not None:
                    hook(self, (), item)
                yield item
        finally:
            gen.close()

    def _count(self, f, op: str):
        tracer = self

        def counted(*args):
            res = f(*args)
            if tracer.active:
                key = (op, res.level)
                tracer.cyclo_counts[key] = tracer.cyclo_counts.get(key, 0) + 1
                s = tracer.cyclo_samples.setdefault(key, [])
                if len(s) < _SAMPLES_PER_LEVEL:
                    s.append(args)
            return res

        return counted

    def install(self):
        from rigidconn.cyclo import CycloNum

        wrappers = {f: self._wrap(f, name) for f, name in public_functions().items()}
        for mod in library_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for attr, op in _CYCLO_METHODS.items():
            orig = vars(CycloNum)[attr]
            self.patches.append((CycloNum, attr, orig))
            setattr(CycloNum, attr, self._count(orig, op))

    def uninstall(self):
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path_prefix: str) -> dict:
        """Write the spans: a JSON header and the five arrays, raw, in
        the header's order."""
        cols = [
            ("name", self.sp_name), ("start", self.sp_start), ("end", self.sp_end),
            ("parent", self.sp_parent), ("op", self.sp_op),
        ]
        header = {
            "spans": len(self.sp_start),
            "names": self.names,
            "columns": [[c, a.typecode, a.itemsize] for c, a in cols],
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path_prefix + ".bin", "wb") as fh:
            for _, a in cols:
                a.tofile(fh)
        return header


class _Root:
    __slots__ = ("tracer", "idx", "op", "frame")

    def __init__(self, tracer, idx, op):
        self.tracer, self.idx, self.op = tracer, idx, op

    def __enter__(self):
        self.tracer.op = self.op
        self.tracer.active = True
        self.frame = self.tracer.enter(self.idx)

    def __exit__(self, *exc):
        self.tracer.exit(self.frame)
        self.tracer.active = False
        return False


# -- hooks: counts measured where the work happens ------------------------


def _hook_rig(tr: Tracer, args, res):
    tr.rig_calls += 1
    tr.rig2 += res == 2


def _hook_leg(tr: Tracer, args, res):
    key = repr(args)
    if key in tr.leg_seen:
        tr.leg_repeats += 1
    else:
        tr.leg_seen.add(key)


def _hook_reduce_step(tr: Tracer, args, res):
    from rigidconn.adk import Stuck

    tr.reduce_steps += 1
    tr.stuck_steps += isinstance(res, Stuck)


def _hook_twist(tr: Tracer, args, res):
    if tr.parent_name() == "adk.reduce_step":
        tr.twist_candidates += 1


def _hook_print_cert(tr: Tracer, args, res):
    tr.cert_bytes.append(len(res.encode()))


def _hook_candidate(tr: Tracer, args, item):
    tr.candidates += 1


_HOOKS = {
    "rigidity.rig_index": _hook_rig,
    "adk.reduce_step": _hook_reduce_step,
    "transforms.twist_global": _hook_twist,
    "cli.print_certificate": _hook_print_cert,
    "enumerate.enumerate_candidates": _hook_candidate,
    **{leg: _hook_leg for leg in LEGS},
}


# -- cyclo unit-cost probe -------------------------------------------------


def _synthetic_operands(op: str, level: int, rng) -> list:
    """Operands at `level` when the run produced none there: small
    rational combinations of roots of unity, like the workloads' inputs."""
    from rigidconn.cyclo import CycloNum

    def elem():
        x = CycloNum.from_rational(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])))
        if level > 1:
            x = x * CycloNum.zeta(level, rng.randrange(1, level)) + CycloNum.zeta(level, rng.randrange(level))
        return x

    out = []
    while len(out) < 8:
        a = elem()
        if op == "inv":
            if not a.is_zero():
                out.append((a,))
        else:
            out.append((a, elem()))
    return out


def probe_cyclo(samples: dict, levels, seed: int) -> dict:
    """Median time per call, in microseconds, of add/mul/inv at each
    level, on operands sampled from the run at that level (synthetic when
    the run had none).  Call with the counting wrappers removed."""
    from rigidconn.cyclo import CycloNum

    fns = {op: vars(CycloNum)[m] for m, op in _CYCLO_METHODS.items() if not m.startswith("__r")}
    rng = random.Random(f"probe:{seed}")
    unit, source = {}, {}
    for op, fn in fns.items():
        for level in sorted(levels):
            operands = samples.get((op, level))
            source[(op, level)] = "run" if operands else "synthetic"
            operands = operands or _synthetic_operands(op, level, rng)
            per_batch = []
            for _ in range(_PROBE_BATCHES):
                n, t0 = 0, perf()
                while True:
                    for args in operands:
                        fn(*args)
                    n += len(operands)
                    dt = perf() - t0
                    if dt >= _PROBE_BATCH_S:
                        break
                per_batch.append(dt / n)
            unit[(op, level)] = statistics.median(per_batch) * 1e6
    return {"unit_us": unit, "source": source}


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tr: Tracer, probe: dict, tower_size: int) -> dict:
    agg = {name: tr.agg[i] for name, i in tr.index.items()}

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def total_s(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    layer_self = {m: 0.0 for m in MODULES}
    for name, (_, _, s) in agg.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += s
    span_total = sum(a[1] for n, a in agg.items() if n.startswith("bench."))
    bench_self = sum(a[2] for n, a in agg.items() if n.startswith("bench."))

    counts = tr.cyclo_counts
    unit = probe["unit_us"]
    computed = sum(c * unit[key] for key, c in counts.items()) * 1e-6
    runs = calls("adk.run_adk")
    legs = sum(calls(l) for l in LEGS)
    m = {
        "cyclo.add.calls": sum(c for (op, _), c in counts.items() if op == "add"),
        "cyclo.mul.calls": sum(c for (op, _), c in counts.items() if op == "mul"),
        "cyclo.inv.calls": sum(c for (op, _), c in counts.items() if op == "inv"),
        "cyclo.max_level": max((lv for _, lv in counts), default=1),
        "cyclo.angle_exact.calls": calls("cyclo.angle_exact"),
        "cyclo.angle_exact.self_s": self_s("cyclo.angle_exact"),
        "cyclo.computed_s": computed,
    }
    for op in ("add", "mul", "inv"):
        for lv in PROBE_LEVELS:
            m[f"cyclo.{op}_us.L{lv}"] = unit[(op, lv)]
    m.update({
        "radicals.cmul.calls": calls("radicals.cmul"),
        "radicals.cinv.calls": calls("radicals.cinv"),
        "radicals.croot.calls": calls("radicals.croot"),
        "radicals.tower_size": tower_size,
        "puiseux.solve_series.calls": calls("puiseux.solve_series"),
        "puiseux.solve_series.self_s": self_s("puiseux.solve_series"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.jordan_blocks.calls": calls("linalg.jordan_blocks"),
        "linalg.jordan_blocks.self_s": self_s("linalg.jordan_blocks"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "formal.hom_h0.self_s": self_s("formal.hom_h0"),
        "formal.hom_irregularity.self_s": self_s("formal.hom_irregularity"),
        "formal.monodromy_exponents.calls": calls("formal.monodromy_exponents"),
        "rigidity.rig_index.calls": calls("rigidity.rig_index"),
        "rigidity.rig_index.self_s": self_s("rigidity.rig_index"),
        "rigidity.rig2_ratio": tr.rig2 / tr.rig_calls if tr.rig_calls else 0.0,
        "transforms.legs.calls": legs,
        "transforms.legs.self_s": sum(self_s(l) for l in LEGS),
        "transforms.legs.repeat_ratio": tr.leg_repeats / legs if legs else 0.0,
        "transforms.fourier_global.self_s": self_s("transforms.fourier_global"),
        "transforms.middle_convolution.self_s": self_s("transforms.middle_convolution"),
        "transforms.twist_global.calls": calls("transforms.twist_global"),
        "transforms.dr_mc_oracle.self_s": self_s("transforms.dr_mc_oracle"),
        "transforms.tuple_formal_data.self_s": self_s("transforms.tuple_formal_data"),
        "adk.run_adk.self_s": self_s("adk.run_adk"),
        "adk.twist_candidates_per_run": tr.twist_candidates / runs if runs else 0.0,
        "adk.candidate_yield": (
            (tr.reduce_steps - tr.stuck_steps) / tr.twist_candidates if tr.twist_candidates else 0.0
        ),
        "adk.replay_certificate.self_s": self_s("adk.replay_certificate"),
        "enumerate.candidates.self_s": self_s("enumerate.enumerate_candidates"),
        "enumerate.candidates_per_s": (
            tr.candidates / total_s("enumerate.enumerate_candidates") if tr.candidates else 0.0
        ),
        "stokes.order_arcs.calls": calls("stokes.order_arcs"),
        "stokes.order_arcs.self_s": self_s("stokes.order_arcs"),
        "cli.print_certificate.self_s": self_s("cli.print_certificate"),
        "cli.parse_certificate.self_s": self_s("cli.parse_certificate"),
        "cli.certificate_bytes": statistics.mean(tr.cert_bytes) if tr.cert_bytes else 0.0,
    })
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    m["trace.span_total_s"] = span_total
    m["trace.bench_self_s"] = bench_self
    m["trace.self_share"] = sum(layer_self.values()) / span_total if span_total else 0.0
    return m
