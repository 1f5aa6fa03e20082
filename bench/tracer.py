"""Per-layer tracing of upspec by wrapping its public functions at run time.

Each public function of the seven layer modules is replaced, in every
upspec namespace that holds it (the defining module, the modules that
imported it by name, and the package), by a wrapper that records a span:
the call's duration, and its self time, which leaves out the wrapped
calls nested in it and the wrappers' own bookkeeping. The original
functions are put back on exit, so the source is never touched and an
untraced run carries no wrapper.

Work counts are taken at the same boundaries. A function that does not
exist (a later version of upspec may remove ``build_basis``) is simply
not wrapped, and whatever it would have counted reads zero.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "kernel_fit", "upsamplers", "alias_analysis", "signal_core",
          "generators", "netpbm")

#: Fits counted by ``kernel_fit.fits``: a call not nested in another of these.
FIT_FUNCTIONS = frozenset({"fit_closed_form", "fit_gradient_descent", "lctc_fit"})
#: Functions that return dense operator matrices (``kernel_fit.dense_mb``).
DENSE_FUNCTIONS = frozenset({"build_basis", "ideal_operator"})
#: Upsamplers whose output length goes into ``upsamplers.out_samples``.
OPERATOR_FUNCTIONS = frozenset({"bed_of_nails", "nearest", "linear", "pixel_shuffle",
                                "transposed_conv", "transposed_conv2",
                                "fourier_pad_upsample"})
#: Tap placements timed for ``upsamplers.ns_per_tap_sample``.
CONV_FUNCTIONS = frozenset({"transposed_conv", "transposed_conv2"})
#: Netpbm functions whose file size goes into ``netpbm.bytes``.
NETPBM_FILE_FUNCTIONS = frozenset({"write_netpbm", "read_netpbm"})

MB = 1e6

_RAISED = object()

#: Per-layer metrics in output order, with unit and direction.
PER_LAYER = (
    ("kernel_fit.self_s", "s", "lower"),
    ("kernel_fit.fits", "count", "lower"),
    ("kernel_fit.dense_mb", "MB", "lower"),
    ("upsamplers.self_s", "s", "lower"),
    ("upsamplers.calls", "count", "lower"),
    ("upsamplers.out_samples", "count", "lower"),
    ("upsamplers.ns_per_tap_sample", "ns", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("netpbm.self_s", "s", "lower"),
    ("netpbm.bytes", "bytes", "lower"),
    ("netpbm.mb_per_s", "MB/s", "higher"),
    ("alias_analysis.self_s", "s", "lower"),
    ("alias_analysis.calls", "count", "lower"),
    ("signal_core.self_s", "s", "lower"),
    ("signal_core.calls", "count", "lower"),
    ("generators.self_s", "s", "lower"),
    ("generators.samples", "count", "lower"),
    ("traced.job_s", "s", "lower"),
)


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def upspec_namespaces() -> list:
    """The package and its layer modules: every place a wrapper must go."""
    return [importlib.import_module("upspec")] + [
        importlib.import_module(f"upspec.{layer}") for layer in LAYERS]


class Patch:
    """Replaces functions by identity in a set of namespaces, and undoes it."""

    def __init__(self, namespaces):
        self.namespaces = list(namespaces)
        self.saved = []

    def replace(self, original, replacement) -> None:
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self.saved.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def restore(self) -> None:
        while self.saved:
            ns, attr, original = self.saved.pop()
            setattr(ns, attr, original)


class Tracer:
    """Context manager that wraps every public upspec function.

    ``reset()`` starts a new job; ``job_figures()`` returns that job's
    self time per layer and work counts.
    """

    def __init__(self):
        self.patch = Patch(upspec_namespaces())
        self.stack = []  # one [layer, function, child_s] per open span
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)  # (layer, function) -> seconds
        self.calls = Counter()            # (layer, function) -> calls
        self.counts = Counter()           # work counter -> amount

    def __enter__(self):
        for layer in LAYERS:
            module = importlib.import_module(f"upspec.{layer}")
            for name, fn in public_functions(module).items():
                self.patch.replace(fn, self._wrap(layer, name, fn))
        return self

    def __exit__(self, *exc):
        self.patch.restore()
        return False

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        stack = self.stack
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            entered = perf_counter()
            span = [layer, name, 0.0]
            stack.append(span)
            result = _RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[key] += (end - start) - span[2]
                self.calls[key] += 1
                if result is not _RAISED:
                    self._count(layer, name, signature, args, kwargs, result)
                if stack:
                    # the parent's self time leaves out this call and its bookkeeping
                    stack[-1][2] += perf_counter() - entered

        traced.__wrapped__ = fn
        return traced

    def _nested_in(self, layer: str, names=None) -> bool:
        """Whether an enclosing span belongs to ``layer`` (and to ``names``)."""
        return any(span[0] == layer and (names is None or span[1] in names)
                   for span in self.stack)

    def _count(self, layer, name, signature, args, kwargs, result) -> None:
        counts = self.counts
        if layer == "kernel_fit":
            if name in FIT_FUNCTIONS and not self._nested_in(layer, FIT_FUNCTIONS):
                counts["fits"] += 1
            if name in DENSE_FUNCTIONS:
                arrays = result if isinstance(result, list) else [result]
                counts["dense_bytes"] += sum(a.nbytes for a in arrays)
        elif layer == "upsamplers":
            if name in OPERATOR_FUNCTIONS:
                counts["out_samples"] += result.size
            if name in CONV_FUNCTIONS:
                kernel = signature.bind(*args, **kwargs).arguments["kernel"]
                taps = np.count_nonzero(kernel.weights)
                if kernel.parallel_small is not None:
                    taps += np.count_nonzero(kernel.parallel_small)
                counts["tap_samples"] += int(taps) * result.size
        elif layer == "netpbm":
            if name in NETPBM_FILE_FUNCTIONS:
                counts["netpbm_bytes"] += os.path.getsize(
                    signature.bind(*args, **kwargs).arguments["path"])
        elif layer == "generators":
            if not self._nested_in(layer):
                counts["samples"] += np.asarray(result).size

    def layer_self_s(self, layer: str) -> float:
        return sum(t for (lay, _), t in self.self_s.items() if lay == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def job_figures(self, job_s: float, cli_files: int, cli_bytes: int) -> dict:
        """The per-layer metrics of the job just traced."""
        conv_s = sum(self.self_s[("upsamplers", name)] for name in CONV_FUNCTIONS)
        tap_samples = self.counts["tap_samples"]
        netpbm_s = self.layer_self_s("netpbm")
        netpbm_bytes = self.counts["netpbm_bytes"]
        return {
            "kernel_fit.self_s": self.layer_self_s("kernel_fit"),
            "kernel_fit.fits": self.counts["fits"],
            "kernel_fit.dense_mb": self.counts["dense_bytes"] / MB,
            "upsamplers.self_s": self.layer_self_s("upsamplers"),
            "upsamplers.calls": self.layer_calls("upsamplers"),
            "upsamplers.out_samples": self.counts["out_samples"],
            "upsamplers.ns_per_tap_sample": 1e9 * conv_s / tap_samples if tap_samples else 0.0,
            "cli.self_s": self.layer_self_s("cli"),
            "cli.bytes_written": cli_bytes,
            "cli.files_written": cli_files,
            "netpbm.self_s": netpbm_s,
            "netpbm.bytes": netpbm_bytes,
            "netpbm.mb_per_s": netpbm_bytes / MB / netpbm_s if netpbm_s > 0 else 0.0,
            "alias_analysis.self_s": self.layer_self_s("alias_analysis"),
            "alias_analysis.calls": self.layer_calls("alias_analysis"),
            "signal_core.self_s": self.layer_self_s("signal_core"),
            "signal_core.calls": self.layer_calls("signal_core"),
            "generators.self_s": self.layer_self_s("generators"),
            "generators.samples": self.counts["samples"],
            "traced.job_s": job_s,
        }
