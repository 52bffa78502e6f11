"""Spans around calls into the package, recorded from outside it.

`install` wraps the package's public functions where their names are
bound: a function imported into another module (`from .schur import
cauchy_binet` in `correlators`) is patched in that namespace too, and so
is a class attribute that aliases a method (`__rmul__ = __mul__`).
Generator functions are timed while they run, across their whole
iteration, and count the items they yield.

Each span is a list [name, parent, start, end, busy, items, attrs]:
`parent` is the index of the enclosing span (-1 at top level), `busy` the
time spent inside the call (for a generator, the sum of its resumptions)
and `attrs` a dict of sizes taken from the arguments and the result.
Spans stay in memory until `Recorder.dump` writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

NAME, PARENT, START, END, BUSY, ITEMS, ATTRS = range(7)

MODULES = ("chain", "cli", "correlators", "kernels", "partitions", "paths",
           "qpoly", "schur")


def _geometry(args, out):
    return {"m": args["geom"].m, "n": args["geom"].n}


def _dim(args, out):
    return {"dim": int(out.shape[0])}


def _subsets(args, out):
    shape = args["phis"].shape
    return {"subsets": int(shape[0]), "nvar": int(shape[1])}


def _walks(args, out):
    return {"steps": int(args["steps"]), "configs_out": len(out)}


# (module, qualified name, attribute extractor or None)
TARGETS = (
    ("correlators", "persistence_spectral", None),
    ("correlators", "persistence_exact", None),
    ("correlators", "persistence_detailed", None),
    ("correlators", "multi_particle_g_detailed", None),
    ("correlators", "one_particle_matrix", None),
    ("correlators", "transition_amplitude_detailed", None),
    ("correlators", "transition_amplitude_exact", None),
    ("correlators", "trig_path_count", None),
    ("correlators", "equality_of_sums_report", None),
    ("chain", "enumerate_bethe_sets", _geometry),
    ("chain", "build_sector_hamiltonian", _dim),
    ("chain", "bethe_vector", None),
    ("schur", "cauchy_binet", None),
    ("schur", "cauchy_binet_enum", None),
    ("schur", "vandermonde", None),
    ("schur", "schur_evaluate", None),
    ("schur", "schur_monomials", None),
    ("schur", "ssyt", None),
    ("schur", "schur_q_polynomial", None),
    ("kernels", "det_product_sum", _subsets),
    ("paths", "random_turns_counts_from", _walks),
    ("partitions", "shifted_boxed_partitions", None),
    ("qpoly", "QPolynomial.__mul__", None),
    ("qpoly", "QPolynomial.divide_exact", None),
    ("qpoly", "qpoly_matrix_det", None),
)


class Recorder:
    """Span list and the stack of open spans of one job."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def open(self, name: str) -> int:
        now = time.perf_counter()
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1], now, now, 0.0, 0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]
        self.stack.pop()

    def resume(self, idx: int) -> float:
        self.stack.append(idx)
        return time.perf_counter()

    def suspend(self, idx: int, since: float) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[BUSY] += span[END] - since
        self.stack.pop()

    def dump(self, path: str, job: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"job": job, "spans": self.spans}))

    def wrap(self, name: str, fn, attrs):
        """A stand-in for `fn` that records one span per call.

        `attrs(arguments, result)` gives the span's sizes; spans of calls
        that return a `route_residuals` mapping keep it.
        """
        sig = inspect.signature(fn)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                idx = self.open(name)
                self.stack.pop()
                if attrs is not None:
                    self.spans[idx][ATTRS] = attrs(
                        sig.bind(*args, **kwargs).arguments, None)
                return self._iterate(idx, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx][ATTRS] = attrs(
                    sig.bind(*args, **kwargs).arguments, out)
            elif hasattr(out, "route_residuals"):
                self.spans[idx][ATTRS] = {
                    "route_residuals": {k: float(v) for k, v
                                        in out.route_residuals.items()}}
            return out

        return traced

    def _iterate(self, idx: int, gen):
        span = self.spans[idx]
        while True:
            since = self.resume(idx)
            try:
                item = next(gen)
            except StopIteration:
                self.suspend(idx, since)
                return
            except BaseException:
                self.suspend(idx, since)
                raise
            self.suspend(idx, since)
            span[ITEMS] += 1
            yield item


def _resolve(module, qualname: str):
    owner = module
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def install(rec: Recorder) -> int:
    """Wrap every target in every namespace that binds it; return the count."""
    package = importlib.import_module("spinpaths")
    namespaces = [package]
    for mod in MODULES:
        namespaces.append(importlib.import_module(f"spinpaths.{mod}"))
    classes = [obj for ns in namespaces for obj in vars(ns).values()
               if inspect.isclass(obj) and obj.__module__.startswith("spinpaths")]
    patched = 0
    for mod, qualname, attrs in TARGETS:
        fn = _resolve(importlib.import_module(f"spinpaths.{mod}"), qualname)
        if fn is None:
            continue
        wrapper = rec.wrap(f"{mod}.{qualname}", fn, attrs)
        for ns in namespaces + classes:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapper)
                    patched += 1
    return patched
