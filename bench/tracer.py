"""Span tracer that times curvedks from outside the package.

install() replaces each target function with a timing wrapper in every
curvedks module namespace (or class) that binds it, so a call is traced
whichever import path the caller used; uninstall() puts the original objects
back. Spans (name, start, end, parent, pass id) and counters are kept in
memory; the caller writes them out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute, span name). A dotted attribute is a method of a class
# defined in that module. The underscored ones are the lattice-sum back ends:
# hooking them is the only way to see from outside which path a call took.
TARGETS = [
    ("curvedks.domain", "CartesianGrid.meshes", "domain.CartesianGrid.meshes"),
    ("curvedks.geometry", "ConformalFactor.on_grid", "geometry.ConformalFactor.on_grid"),
    ("curvedks.profiles", "ScaledCauchyProfile.on_grid", "profiles.ScaledCauchyProfile.on_grid"),
    ("curvedks.potential", "newtonian_potential", "potential.newtonian_potential"),
    ("curvedks.potential", "lattice_potential", "potential.lattice_potential"),
    ("curvedks.potential", "estimate_tail", "potential.estimate_tail"),
    ("curvedks.potential", "_direct_convolve", "potential._direct_convolve"),
    ("curvedks.potential", "_fft_convolve", "potential._fft_convolve"),
    ("curvedks.stationary", "DensityField.__init__", "stationary.DensityField"),
    ("curvedks.stationary", "DensityField.to_csv", "stationary.DensityField.to_csv"),
    ("curvedks.stationary", "reduced_residual", "stationary.reduced_residual"),
    ("curvedks.stationary", "default_test_bank", "stationary.default_test_bank"),
    ("curvedks.energy", "free_energy", "energy.free_energy"),
    ("curvedks.energy", "log_hls_deficit", "energy.log_hls_deficit"),
    ("curvedks.energy", "lambda_scan", "energy.lambda_scan"),
    ("curvedks.virial", "potential_gradient", "virial.potential_gradient"),
    ("curvedks.virial", "_grad_kernel_ffts", "virial._grad_kernel_ffts"),
    ("curvedks.virial", "assemble_virial", "virial.assemble_virial"),
    ("curvedks.virial", "WeightedEllipticProblem.build", "virial.WeightedEllipticProblem.build"),
    ("curvedks.virial", "solve_aux_pde", "virial.solve_aux_pde"),
    ("curvedks.sphere", "nonexistence_certificate", "sphere.nonexistence_certificate"),
    ("curvedks.sphere", "obstruction_integral", "sphere.obstruction_integral"),
    ("curvedks.sphere", "transport_to_sphere", "sphere.transport_to_sphere"),
    ("curvedks.sphere", "kw_residual", "sphere.kw_residual"),
    ("curvedks.flow", "flow_step", "flow.flow_step"),
    ("curvedks.flow", "flux_divergence", "flow.flux_divergence"),
    ("curvedks.flow", "cfl_bound", "flow.cfl_bound"),
    ("curvedks.flow", "diagnostics_to_csv", "flow.diagnostics_to_csv"),
    ("curvedks.cli", "main", "cli.main"),
]


def _grid_arg(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments["grid"]


def _count_direct(tracer, fn, idx, args, kwargs, result):
    tracer.count("potential.direct_pairs", _grid_arg(fn, args, kwargs).n ** 4)


def _count_fft(kind):
    def hook(tracer, fn, idx, args, kwargs, result):
        grid = _grid_arg(fn, args, kwargs)
        tracer.count("potential.fft_cells", (2 * grid.n) ** 2)
        tracer.kernels.add((tracer.pass_id, kind, grid.n, grid.h))
    return hook


def _count_gradient_path(tracer, fn, idx, args, kwargs, result):
    # potential_gradient has its direct pair loop inline; a call that never
    # fetched the FFT kernels took it
    if not tracer.has_child(idx, "virial._grad_kernel_ffts"):
        rho = inspect.signature(fn).bind(*args, **kwargs).arguments["rho"]
        tracer.count("potential.direct_pairs", rho.grid.n ** 4)


def _count_solve(tracer, fn, idx, args, kwargs, result):
    tracer.count("virial.solve_aux_pde.iterations", result.iterations)
    trace = result.residual_trace
    rel = trace[-1] / trace[0] if trace and trace[0] > 0 else 0.0
    tracer.count_max("virial.solve_aux_pde.final_rel_residual", rel)


HOOKS = {
    "potential._direct_convolve": _count_direct,
    "potential._fft_convolve": _count_fft("log"),
    "virial._grad_kernel_ffts": _count_fft("grad"),
    "virial.potential_gradient": _count_gradient_path,
    "virial.solve_aux_pde": _count_solve,
}


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "curvedks" or k.startswith("curvedks."))]


def bindings() -> dict:
    """Identity snapshot of every curvedks module and class attribute."""
    snap = {}
    for mod in _package_modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = id(val)
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for ckey, cval in vars(val).items():
                    snap[(mod.__name__, f"{key}.{ckey}")] = id(cval)
    return snap


class Tracer:
    """Records spans and counters for calls into curvedks while installed."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, pass_id]
        self.counts: dict = defaultdict(float)   # (pass_id, name) -> sum
        self.maxima: dict = defaultdict(float)   # (pass_id, name) -> max
        self.kernels: set = set()                # (pass_id, kind, n, h) of FFT sums
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []             # targets not found at install

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- counters -----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[(self.pass_id, name)] += value

    def count_max(self, name: str, value: float) -> None:
        key = (self.pass_id, name)
        self.maxima[key] = max(self.maxima[key], value)

    def has_child(self, idx: int, name: str) -> bool:
        return any(s[0] == name and s[3] == idx for s in self.spans[idx + 1:])

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.pass_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, fn, idx, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for modname, attr, name in TARGETS:
            *cls_path, key = attr.split(".")
            owner = sys.modules.get(modname)
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or key not in vars(owner):
                # renamed or removed by a later change: its metrics read 0
                self.missing.append(f"{modname}.{attr}")
                continue
            original = vars(owner)[key]
            if cls_path:   # a method is bound once, on its class
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(original.__func__, name))
                else:
                    patched = self._wrap(original, name)
                self._patches.append((owner, key, original))
                setattr(owner, key, patched)
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                for k, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, k, original))
                        setattr(mod, k, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def record(self) -> dict:
        """Spans and counters as plain lists, ready to be written as JSON."""
        return {"spans": self.spans,
                "counts": [[p, name, v] for (p, name), v in self.counts.items()],
                "maxima": [[p, name, v] for (p, name), v in self.maxima.items()],
                "kernels": sorted(list(k) for k in self.kernels),
                "missing": sorted(set(self.missing))}


def layer_values(record: dict, n_passes: int) -> dict:
    """Per-pass busy time, self time and call count of each span name, plus counters.

    `record` is what Tracer.record() returned.

    `<name>.s` sums only the outermost span of a name, so a function that
    re-enters itself is not counted twice; `<name>.self_s` subtracts the
    time of direct child spans.
    """
    spans = record["spans"]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    busy, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_time[name] += dur[i] - child_time[i]
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += dur[i]
    out = {}
    for name in calls:
        out[f"{name}.s"] = busy[name] / n_passes
        out[f"{name}.self_s"] = self_time[name] / n_passes
        out[f"{name}.calls"] = calls[name] / n_passes
    for _, name, v in record["counts"]:
        out[name] = out.get(name, 0.0) + v / n_passes
    for _, name, v in record["maxima"]:
        out[name] = max(out.get(name, 0.0), v)
    out["potential.kernel_builds"] = len(record["kernels"]) / n_passes
    return out
