"""Per-layer trace taken from outside the package.

The tracer replaces every module binding of the public functions listed in
LAYERS (``from .x import y`` gives each importing module a binding of its
own) and the two SciPy eigensolvers the solver calls with wrappers that
record spans in memory.  A span is (request id, layer, parent span, start,
end, observed size); self time is a span's duration minus that of its child
spans.  ``uninstall`` puts every original object back.
"""
from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "dickelab"
MODULES = ("cli", "compare", "solver", "model", "observables", "sas", "surface", "dataset")

# layer -> (defining module, public functions); "Class.method" wraps a method
LAYERS = {
    "cli": ("cli", ["main"]),
    "compare.sweep": ("compare", ["fidelity_curve", "spectrum_dataset", "figure_data",
                                  "verify_table"]),
    "compare.variational": ("compare", ["variational_energy", "variational_vector",
                                        "fidelity"]),
    "solver.converge": ("solver", ["converge_ground"]),
    "solver.lowest_eigenpairs": ("solver", ["lowest_eigenpairs"]),
    "model.basis": ("model", ["build_sector_basis"]),
    "model.assembly": ("model", ["build_hamiltonian"]),
    "observables": ("observables", ["eigen_observables", "grid_observables", "embed_grid",
                                    "joint_distribution_exact"]),
    "sas.closed_form": ("sas", ["coherent_observables", "sas_observables",
                                "table_closed_forms_sas", "table_closed_forms_coherent",
                                "sas_coefficients_at", "photon_number_coherent",
                                "default_nu_max"]),
    "sas.oracle": ("sas", ["build_sas_state", "state_observables"]),
    "sas.distributions": ("sas", ["joint_distribution_sas", "marginal_photon",
                                  "marginal_excited"]),
    "surface": ("surface", ["energy_surface", "critical_points", "minimum_energy",
                            "lambda_statistics", "f_function", "k_ratio",
                            "sas_energy_surface", "sas_energy_at_critical",
                            "coherent_sas_overlap", "normal_odd_state", "normal_odd_energy",
                            "numeric_gradient", "surface_gradient", "classify_critical"]),
    "dataset.render": ("dataset", ["Dataset.render"]),
}
# layer -> (SciPy module, function); patched on the SciPy module and on any
# package module that imported the function itself
EIGENSOLVERS = {
    "solver.eigsh": ("scipy.sparse.linalg", "eigsh"),
    "solver.eigh": ("scipy.linalg", "eigh"),
}

# the layers each workload must reach; zero calls there means a wrapped name
# stopped being the one the program calls
REQUIRED = {
    "scan_small": ["cli", "compare.sweep", "compare.variational", "solver.converge",
                   "solver.lowest_eigenpairs", "solver.eigsh", "solver.eigh", "model.basis",
                   "model.assembly", "observables", "sas.closed_form", "sas.oracle",
                   "surface", "dataset.render"],
    "scan_large_n": ["cli", "compare.variational", "solver.converge",
                     "solver.lowest_eigenpairs", "solver.eigsh", "model.basis",
                     "model.assembly", "observables", "dataset.render"],
    "closed_form_tables": ["cli", "compare.sweep", "sas.closed_form", "sas.distributions",
                           "surface", "dataset.render"],
}


class TraceError(Exception):
    pass


def _matrix_size(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    return a.shape[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [request, layer, parent, start, end, size]
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._dense_cutoff = None

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        solver = importlib.import_module(f"{PACKAGE}.solver")
        if not hasattr(solver, "DENSE_CUTOFF"):
            raise TraceError("dickelab.solver.DENSE_CUTOFF no longer exists")
        self._dense_cutoff = solver.DENSE_CUTOFF
        try:
            for layer, (module, names) in LAYERS.items():
                home = importlib.import_module(f"{PACKAGE}.{module}")
                for name in names:
                    self._wrap_name(layer, home, name, modules)
            for layer, (module, name) in EIGENSOLVERS.items():
                home = importlib.import_module(module)
                self._wrap_name(layer, home, name, modules)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_name(self, layer: str, home, name: str, modules) -> None:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceError(f"{home.__name__}.{name} no longer exists")
        wrapper = self._wrapper(layer, original)
        self._patch(owner, attr, original, wrapper)
        if owner_name:
            return
        for mod in modules:
            if mod is not home and getattr(mod, attr, None) is original:
                self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording --------------------------------------------------------------

    def _wrapper(self, layer: str, fn):
        size = self._size_probe(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.request, layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            return result

        return traced

    def _size_probe(self, layer: str):
        """What a span records besides its time, for the size metrics."""
        if layer == "solver.lowest_eigenpairs":
            return lambda args, kwargs, res: res.eigenvectors.shape[0]
        if layer == "model.assembly":
            return lambda args, kwargs, res: res.matrix.nnz
        if layer == "dataset.render":
            return lambda args, kwargs, res: (len(res), len(args[0].rows))
        if layer == "solver.eigh":
            return lambda args, kwargs, res: _matrix_size(args, kwargs) > self._dense_cutoff
        return None

    # -- summarising ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls, total seconds, self seconds and the recorded sizes."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "sizes": []}
                  for layer in list(LAYERS) + list(EIGENSOLVERS)}
        for i, (_, layer, _, start, end, size) in enumerate(self.spans):
            t = totals[layer]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
            if size is not None:
                t["sizes"].append(size)
        return totals


def layer_metrics(totals: dict, points: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from Tracer.layer_totals."""
    dims = totals["solver.lowest_eigenpairs"]["sizes"]
    renders = totals["dataset.render"]["sizes"]
    solves = totals["solver.lowest_eigenpairs"]["calls"]
    out = {
        "cli.self_s": totals["cli"]["self_s"],
        "compare.sweep.self_s": totals["compare.sweep"]["self_s"],
        "compare.variational.calls": totals["compare.variational"]["calls"],
        "compare.variational.self_s": totals["compare.variational"]["self_s"],
        "solver.converge.calls": totals["solver.converge"]["calls"],
        "solver.converge.self_s": totals["solver.converge"]["self_s"],
        "solver.solves": solves,
        "solver.useful_solve_ratio": points / solves if solves else 0.0,
        "solver.lowest_eigenpairs.self_s": totals["solver.lowest_eigenpairs"]["self_s"],
        "solver.eigsh.calls": totals["solver.eigsh"]["calls"],
        "solver.eigsh.s": totals["solver.eigsh"]["s"],
        "solver.eigh.calls": totals["solver.eigh"]["calls"],
        "solver.eigh.s": totals["solver.eigh"]["s"],
        "solver.dense_fallback": sum(totals["solver.eigh"]["sizes"]),
        "solver.dim_sum": sum(dims),
        "solver.dim_max": max(dims, default=0),
        "model.basis.calls": totals["model.basis"]["calls"],
        "model.basis.self_s": totals["model.basis"]["self_s"],
        "model.assembly.calls": totals["model.assembly"]["calls"],
        "model.assembly.self_s": totals["model.assembly"]["self_s"],
        "model.assembly.nnz_sum": sum(totals["model.assembly"]["sizes"]),
    }
    for layer in ("observables", "sas.closed_form", "sas.oracle", "sas.distributions",
                  "surface"):
        out[f"{layer}.calls"] = totals[layer]["calls"]
        out[f"{layer}.self_s"] = totals[layer]["self_s"]
    out["dataset.render.calls"] = totals["dataset.render"]["calls"]
    out["dataset.render.self_s"] = totals["dataset.render"]["self_s"]
    out["dataset.render.bytes"] = sum(b for b, _ in renders)
    out["dataset.rows"] = sum(r for _, r in renders)
    return out


def check_reached(workload: str, totals: dict) -> None:
    missing = [layer for layer in REQUIRED[workload] if totals[layer]["calls"] == 0]
    if missing:
        raise TraceError(f"{workload} must reach {missing} but recorded no calls")
