"""Command-line front end: synthetic inputs, operator comparisons,
kernel fits, and deterministic CSV/JSON/Netpbm artifacts.

Exit codes: 0 success, 1 usage error, 2 I/O failure, 3 numerical failure.
All error paths print a single machine-parsable line to stderr. CSV and
Netpbm outputs are byte-deterministic for a fixed configuration;
timestamps only ever appear in JSON metadata.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .alias_analysis import _alias_reports, _psnr_rows, contribution_map, error_spectrum
from .generators import (bandlimited_noise, checkerboard_image, composite_image, cosine_mixture,
                         cosine_signal, gaussian_blob_image, step_signal)
from .kernel_fit import (
    GD_MAX_ITER,
    DivergenceError,
    FitProblem,
    fit_closed_form,
    fit_gradient_descent,
    kernel_edge_profile,
)
from .netpbm import read_netpbm, write_bar_strip, write_netpbm
from .signal_core import NonRealResultError, _dft, log_magnitude, radial_average
from .upsamplers import (
    BOUNDARY_MODES,
    KernelSpec,
    _in_stripes,
    bed_of_nails,
    fourier_pad_upsample,
    linear,
    nearest,
    pixel_shuffle,
    transposed_conv,
    validate_factor,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

FORMATS = ("csv", "json", "pgm", "ppm")
OPERATORS = ("bed_of_nails", "nearest", "linear", "pixel_shuffle",
             "transposed_conv", "lctc", "fourier_pad")
ROW_BLOCK_SAMPLES = 2 ** 14  # see _write_operator_rows
#: Two or more row blocks run in two stripes, the caller's and the worker
#: thread's, from this many samples a row (r*N) on; the crossover table is in
#: _write_operator_rows.
_ROW_THREAD_MIN_SAMPLES = 4096
REPORT_FIELDS = ("passband_energy", "alias_energy", "nyquist_energy", "alias_ratio",
                 "replica_deviation")
COMPARE_CSV_HEADER = ("operator", "kernel_size", *REPORT_FIELDS, "contribution_variance",
                      "psnr_vs_ideal_db")


class UsageError(Exception):
    pass


class DataError(Exception):
    """Problem with input data files (maps to the I/O exit code)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialization helpers


def config_hash(config: dict) -> str:
    """Stable 12-hex-digit digest of a configuration mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _conversion(kind) -> str | None:
    """The %-conversion of a CSV value of this type: integers in full,
    floats to 12 significant digits, other values as ``str`` gives them;
    None for None and booleans, which are spelled out by :func:`_cell`."""
    if kind is type(None) or issubclass(kind, (bool, np.bool_)):
        return None
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.12g"
    return "%s"


def _cell(value) -> str:
    """One CSV value as text; None is an empty cell, booleans ``true``/``false``."""
    conversion = _conversion(type(value))
    if conversion is not None:
        return conversion % (value,)
    if value is None:
        return ""
    return "true" if value else "false"


def write_csv(path: Path, header, columns) -> None:
    """One or more columns, all of one length, interleaved into one flat
    list of values and formatted by one %-template for the whole file.

    A column whose values share one type is converted by the template;
    any other column, and one of None or booleans, cell by cell first.
    """
    width, height = len(columns), len(columns[0])
    if any(len(column) != height for column in columns):
        raise ValueError(f"CSV columns of lengths {[len(c) for c in columns]} differ")
    values = [None] * (width * height)
    conversions = []
    for i, column in enumerate(columns):
        kinds = set(map(type, column))
        conversion = _conversion(kinds.pop()) if len(kinds) == 1 else None
        if conversion is None:
            column = list(map(_cell, column))
            conversion = "%s"
        conversions.append(conversion)
        values[i::width] = column
    row_template = ",".join(conversions) + "\n"
    path.write_text(",".join(header) + "\n" + (row_template * height) % tuple(values))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else str(f)  # "inf", "-inf" or "nan"
    return obj


def write_json(path: Path, payload: dict, config: dict) -> None:
    config = _sanitize(config)
    body = {
        "config": config,
        "config_hash": config_hash(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "versions": {"upspec": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        **_sanitize(payload),
    }
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# input construction


def _require_seed(seed, why: str) -> int:
    if seed is None:
        raise UsageError(f"--seed is required {why}")
    return seed


def build_signal(args) -> np.ndarray:
    """The 1D --signal kind, built at unit scale and times --amplitude."""
    kind = args.signal
    if kind == "cosine":
        x = cosine_signal(args.n, args.frequency)
    elif kind == "cosine-mix":
        x = cosine_mixture(args.n, _parse_components(args.components))
    elif kind == "noise":
        seed = _require_seed(args.seed, "for the noise generator")
        cutoff = args.cutoff if args.cutoff is not None else args.n // 2 - 1
        x = bandlimited_noise(args.n, cutoff, seed)
    elif kind == "step":
        x = step_signal(args.n)
    else:
        raise UsageError(f"--signal must be a 1D kind for this command, got {kind!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not as a warning
        x = args.amplitude * x
    if not np.all(np.isfinite(x)):
        raise UsageError(f"signal samples times --amplitude {args.amplitude:g} are not finite")
    return x


def build_image(args, seed) -> np.ndarray:
    kind = args.signal
    if kind == "checkerboard":
        return checkerboard_image(args.height, args.width, args.period)
    if kind == "gaussian":
        return gaussian_blob_image(args.height, args.width, args.sigma)
    if kind == "composite":
        return composite_image(args.height, args.width,
                               _require_seed(seed, "for the composite generator"))
    raise UsageError(f"--signal must be a 2D kind for this command, got {kind!r}")


def _parse_components(text: str):
    comps = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise UsageError("--components must be k:amp:phase[,k:amp:phase...]")
        comps.append((int(parts[0]), float(parts[1]), float(parts[2])))
    return comps


def apply_operator(name: str, x: np.ndarray, args):
    """Run one named upsampler; returns (output, fitted kernel or None)."""
    r = args.factor
    if name == "bed_of_nails":
        return bed_of_nails(x, r), None
    if name == "nearest":
        return nearest(x, r), None
    if name == "linear":
        return linear(x, r, boundary=args.boundary), None
    if name == "fourier_pad":
        return fourier_pad_upsample(x, r), None
    if name == "pixel_shuffle":
        seed = _require_seed(args.seed, "to draw the extra pixel-shuffle channels")
        # drawn at --amplitude, so the row scales with x like every other
        channels = [x] + [args.amplitude * bandlimited_noise(x.size, x.size // 2 - 1, s)
                          for s in range(seed + 1001, seed + 1000 + r)]
        return pixel_shuffle(channels, r), None
    if name in ("transposed_conv", "lctc"):
        small = (args.parallel_small or 3) if name == "lctc" else None
        problem = FitProblem(n=x.size, r=r, k=args.kernel_size, parallel_small=small)
        kernel = fit_closed_form(problem).kernel
        return transposed_conv(kernel=kernel, x=x, boundary=args.boundary), kernel
    raise UsageError(f"unknown operator {name!r}")


# ---------------------------------------------------------------------------
# commands


def _write_operator_rows(names, args, out_dir: Path, formats) -> list[dict]:
    """Alias metrics of each named operator, sorted by alias ratio.

    Runs of consecutive rows, as many of r*N samples as fit in
    ``ROW_BLOCK_SAMPLES`` and at least one, are stacked and scored by one
    ``_alias_reports`` and one ``_psnr_rows`` call; every row equals its
    one-row ``alias_energy(y, r, reference=x)`` and ``psnr`` byte for byte.
    Writes ``spectrum_<op>.pgm`` per row and ``alias_metrics.csv``.

    The ideal reference (Fourier zero-padding, and its peak-to-peak for
    PSNR) is job 0 of one :func:`upsamplers._in_stripes` call, and block i
    is job i + 1: it applies its operators, scores them and writes their
    strips, and fills its own slot of rows. Job 0 sets a one-shot event when
    it ends, failed or not, and a block waits on it only where it reads the
    reference: the ``fourier_pad`` row and the PSNR column, both before any
    strip is written. If job 0 failed, the waiting block raises too, and
    :func:`_in_stripes` raises job 0's error, the lowest index, first. The
    wait cannot deadlock: job 0 is the first job of stripe 0, which runs on
    the caller, so every job queued behind it on that stripe starts after
    the event is set, and no stripe waits on a job it runs itself. With two
    blocks or more and at least _ROW_THREAD_MIN_SAMPLES (2^12) samples a row,
    :func:`_in_stripes` runs the jobs in min(CPUs, 2) stripes, the caller's
    and one handed to its reused worker thread, and otherwise on the caller
    alone; ``analyze`` and a compare of one block never hand a stripe to the
    worker, since a reference beside a single block measured slower (four
    rows at 4,096 samples, medians of 201 calls: 2.29 ms on the caller,
    2.46 - 2.52 ms with the reference on a new thread per call). Every row
    is computed with the same operations in the same order on any thread,
    and the slots are joined in block order before the stable sort, so CSV
    and PGM bytes do not depend on the worker count. One worker's time over
    two workers' (above 1: two faster), in-process ``compare --seed 1`` with
    the size rule lifted, 2-vCPU Xeon VM, one BLAS thread, medians of 41
    alternating calls, range over two runs; blocks are counted without the
    reference:

    =======  ====  =================================  ========  ===========
    r*N      r     rows                               blocks    ratio
    =======  ====  =================================  ========  ===========
    2,342    2     all 7                              6+1       1.05 - 1.06
    3,072    3     all 7                              5+2       1.01 - 1.03
    4,096    2     all 7                              4+3       1.18 - 1.23
    4,096    2     5 unfitted                         4+1       0.99 - 1.05
    4,608    3     all 7                              3+3+1     1.19 - 1.20
    8,192    2     all 7 / 5 unfitted                 2+2+2+1   1.25 - 1.38 / 1.19 - 1.35
    8,194    2     bed_of_nails,nearest / linear,...  1+1       1.27 - 1.31 / 1.35
    16,384   2     all 7 / 5 unfitted                 1 each    1.34 - 1.38 / 1.31 - 1.35
    32,768   2     all 7 / 5 unfitted                 1 each    1.54 - 1.55 / 1.43 - 1.46
    131,072  2     all 7 / 5 unfitted                 1 each    1.66 - 1.67 / 1.57 - 1.62
    =======  ====  =================================  ========  ===========

    (5 unfitted: bed_of_nails, nearest, linear, pixel_shuffle, fourier_pad;
    their 8,192 split is 2+2+1; "linear,..." is linear,fourier_pad.) Below
    2^12 two workers now break even (1.01 - 1.06); with a new thread started
    and joined per call they read 0.85 - 0.98 there, which set the rule at
    2^12. From 2^12 on only the 4+1 split of the five unfitted rows does not
    gain, and the seven-row compare gains 1.18 - 1.23.
    """
    x = build_signal(args)
    low_rate = _dft(x)
    size = validate_factor(args.factor) * x.size
    per_block = max(1, ROW_BLOCK_SAMPLES // size)
    blocks = [names[start:start + per_block] for start in range(0, len(names), per_block)]
    block_rows = [None] * len(blocks)
    ideal, ready = [], threading.Event()

    def reference():
        """(reference, peak) once job 0 has ended; raises if it failed."""
        ready.wait()
        if not ideal:
            raise RuntimeError("the ideal reference was not computed")
        return ideal

    def score(job):
        if job == 0:
            try:
                y = fourier_pad_upsample(x, args.factor)
                ideal.extend((y, float(np.ptp(y)) or 1.0))
            finally:
                ready.set()
            return
        block = blocks[job - 1]
        ys, kernels = zip(*[(reference()[0], None) if name == "fourier_pad"
                            else apply_operator(name, x, args) for name in block])
        ys = np.stack(ys)
        reports = _alias_reports(ys, args.factor, low_rate)
        block_rows[job - 1] = [{
            "operator": name,
            "kernel_size": None if kernel is None else kernel.size,
            **{field: getattr(report, field) for field in REPORT_FIELDS},
            "contribution_variance": (None if kernel is None
                                      else contribution_map(kernel, ys.shape[1]).variance),
            "psnr_vs_ideal_db": db,
        } for name, kernel, report, db in zip(block, kernels, reports,
                                              _psnr_rows(ys, *reference()).tolist())]
        if "pgm" in formats:
            strips = log_magnitude(np.stack([report.magnitude for report in reports]))
            for name, strip in zip(block, strips):
                write_bar_strip(strip, out_dir / f"spectrum_{name}.pgm")

    _in_stripes(score, 1 + len(blocks),
                len(blocks) > 1 and size >= _ROW_THREAD_MIN_SAMPLES)
    rows = [row for block in block_rows for row in block]
    rows.sort(key=lambda row: row["alias_ratio"])
    if "csv" in formats:
        write_csv(out_dir / "alias_metrics.csv", COMPARE_CSV_HEADER,
                  [[row[k] for row in rows] for k in COMPARE_CSV_HEADER])
    return rows


def cmd_analyze(args, out_dir: Path, formats, config) -> None:
    (row,) = _write_operator_rows((args.op,), args, out_dir, formats)
    if "json" in formats:
        write_json(out_dir / "summary.json", {"metrics": row}, config)


def cmd_compare(args, out_dir: Path, formats, config) -> None:
    names = OPERATORS if args.ops == "all" else tuple(args.ops.split(","))
    for i, name in enumerate(names):
        if name not in OPERATORS:
            raise UsageError(f"unknown operator {name!r}; choose from {OPERATORS}")
        if name in names[:i]:
            raise UsageError(f"operator {name!r} is listed more than once in --ops")
    rows = _write_operator_rows(names, args, out_dir, formats)
    if "json" in formats:
        write_json(out_dir / "summary.json", {"metrics": rows}, config)


def _position_rows(out_len: int, suffixes) -> np.ndarray:
    """``b"%d" % p + suffixes[p % s]`` for p in range(out_len), s = len(suffixes)
    dividing out_len, as uint8 bytes. A grid of one row a position, shape
    (ceil(out_len / 10^(d-1)), 10, ..., 10, row width) for d digits, holds in
    digit column k ``arange(48, 58)`` broadcast along axis k (no division); a
    slice per column blanks its leading zeros to 0, the suffixes padded with 0
    are tiled beside the digits, and one boolean compress drops the 0s."""
    s, d = len(suffixes), len(str(out_len - 1))
    width = max(map(len, suffixes))
    grid = np.empty((-(-out_len // 10 ** (d - 1)), *[10] * (d - 1), d + width), np.uint8)
    for k in range(d):
        digits = np.arange(48, 48 + grid.shape[k], dtype=np.uint8)
        grid[..., k] = digits.reshape([-1 if axis == k else 1 for axis in range(d)])
        if k < d - 1:
            grid[(0,) * (k + 1) + (..., k)] = 0
    rows = grid.reshape(-1, d + width)[:out_len]
    rows.reshape(-1, s, d + width)[:, :, d:] = np.frombuffer(
        b"".join(suffix.ljust(width, b"\0") for suffix in suffixes), np.uint8).reshape(s, width)
    flat = rows.reshape(-1)
    return flat[flat != 0]


def cmd_contribution(args, out_dir: Path, formats, config) -> None:
    """Tap counts per output position, whose map repeats with period s: the
    CSV rows come from :func:`_position_rows` and the strip repeats their
    bar columns. One period holds the map's min and max, so the bytes are those of all counts."""
    if args.kernel_size < 1:
        raise UsageError(f"--kernel-size must be at least 1, got {args.kernel_size}")
    if args.stride < 1:
        raise UsageError(f"--stride must be at least 1, got {args.stride}")
    out_len = args.out_len if args.out_len is not None else 8 * args.stride
    if out_len < 1 or out_len % args.stride:
        raise UsageError(f"--out-len must be a positive multiple of --stride {args.stride}, "
                         f"got {out_len}")
    kernel = KernelSpec(weights=np.ones(args.kernel_size), stride=args.stride)
    cmap = contribution_map(kernel, out_len)
    cycle = cmap.counts[:kernel.stride]
    if "csv" in formats:
        with open(out_dir / "contribution_counts.csv", "wb") as fh:
            fh.write(b"position,count\n")
            fh.write(_position_rows(out_len, [b",%d\n" % count for count in cycle.tolist()]))
    if "json" in formats:
        write_json(out_dir / "contribution.json", {
            "kernel_size": args.kernel_size,
            "stride": args.stride,
            "out_len": out_len,
            "uniform": cmap.uniform,
            "variance": cmap.variance,
            "period": cmap.period,
        }, config)
    if "pgm" in formats:
        write_bar_strip(cycle, out_dir / "contribution_counts.pgm", out_len // kernel.stride)


def _solve_fit(args, k: int):
    parallel = args.parallel_small if args.parallel_small else None
    problem = FitProblem(n=args.n, r=args.factor, k=k, parallel_small=parallel)
    if args.method == "gradient":
        return fit_gradient_descent(problem, lr=args.lr, max_iter=args.max_iter)
    return fit_closed_form(problem)


def cmd_fit(args, out_dir: Path, formats, config) -> None:
    result = _solve_fit(args, args.kernel_size)
    kernel = result.kernel
    large = kernel.weights.tolist()
    small = [] if kernel.parallel_small is None else kernel.parallel_small.tolist()
    if "csv" in formats:
        write_csv(out_dir / "kernel_weights.csv", ("branch", "tap", "weight"),
                  [["large"] * len(large) + ["small"] * len(small),
                   [*range(len(large)), *range(len(small))], large + small])
    if "json" in formats:
        payload = {key: getattr(result, key)
                   for key in ("residual", "iterations", "gram_rank", "converged")}
        if kernel.size >= 3:
            payload["edge_profile"] = kernel_edge_profile(kernel)._asdict()
        write_json(out_dir / "fit.json", payload, config)
    if "pgm" in formats:
        write_bar_strip(kernel.effective_weights(), out_dir / "kernel.pgm")


def cmd_sweep(args, out_dir: Path, formats, config) -> None:
    sizes = sorted({int(s) for s in args.sizes.split(",")})
    residuals = [_solve_fit(args, k).residual for k in sizes]
    if "csv" in formats:
        write_csv(out_dir / "residuals.csv", ("kernel_size", "residual"), [sizes, residuals])
    if "json" in formats:
        rows = [{"kernel_size": k, "residual": v} for k, v in zip(sizes, residuals)]
        write_json(out_dir / "sweep.json", {"residuals": rows}, config)
    if "pgm" in formats:
        write_bar_strip(residuals, out_dir / "residuals.pgm")


def _read_input(path) -> np.ndarray:
    try:  # a malformed input file is an I/O error, like a missing one
        return read_netpbm(path).astype(float)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def cmd_errorspec(args, out_dir: Path, formats, config) -> None:
    if (args.pred is None) != (args.gt is None):
        raise UsageError("--pred and --gt must be given together")
    if args.bins < 1:
        raise UsageError("--bins must be at least 1")
    if args.pred is not None:
        pred, gt = _read_input(args.pred), _read_input(args.gt)
    else:
        pred = build_image(args, args.seed)
        seed_b = args.seed_b if args.seed_b is not None else (
            args.seed + 1 if args.seed is not None else None)
        gt = build_image(args, seed_b)
        if "ppm" in formats and pred.ndim == 3 and pred.shape[2] == 3:
            write_netpbm(pred, out_dir / "pred.ppm")
            write_netpbm(gt, out_dir / "gt.ppm")
        elif "pgm" in formats and pred.ndim == 2:
            write_netpbm(pred, out_dir / "pred.pgm")
            write_netpbm(gt, out_dir / "gt.pgm")
    if pred.shape != gt.shape:
        raise DataError(f"shape mismatch: {pred.shape} vs {gt.shape}")

    magnitudes = error_spectrum(pred, gt, mode=args.mode, log=False)
    if "pgm" in formats:
        write_netpbm(log_magnitude(magnitudes), out_dir / "error_spectrum.pgm")
    if "json" in formats:
        write_json(out_dir / "error_spectrum.json", {
            "magnitude_min": float(magnitudes.min()),
            "magnitude_max": float(magnitudes.max()),
            "magnitude_mean": float(magnitudes.mean()),
        }, config)
    if "csv" in formats:
        profile = radial_average(magnitudes, n_bins=args.bins)
        write_csv(out_dir / "radial_profile.csv", ("radius", "mean_magnitude", "empty"),
                  [field.tolist() for field in profile])


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="upspec",
                     description="Spectral analysis of upsampling operators.")
    parser.add_argument("--version", action="version", version=f"upspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--out-dir", required=True, help="directory for artifacts")
    common.add_argument("--format", default="csv,json,pgm",
                        help="comma list from csv,json,pgm,ppm")
    common.add_argument("--seed", type=int, default=None)

    signal = _Parser(add_help=False)
    signal.add_argument("--signal", default="noise",
                        help="cosine | cosine-mix | noise | step")
    signal.add_argument("--n", type=int, default=64)
    signal.add_argument("--cutoff", type=int, default=None,
                        help="band limit for noise (default n/2 - 1)")
    signal.add_argument("--frequency", type=int, default=1)
    signal.add_argument("--amplitude", type=float, default=1.0)
    signal.add_argument("--components", default="1:1:0")
    signal.add_argument("--factor", "-r", type=int, default=2)
    signal.add_argument("--boundary", choices=BOUNDARY_MODES, default="periodic")
    signal.add_argument("--kernel-size", type=int, default=7)
    signal.add_argument("--parallel-small", type=int, default=0,
                        help="parallel small-kernel size (lctc defaults to 3)")

    p = sub.add_parser("analyze", parents=[common, signal],
                       help="alias metrics of one operator")
    p.add_argument("--op", default="bed_of_nails", choices=OPERATORS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", parents=[common, signal],
                       help="alias metrics of several operators, sorted")
    p.add_argument("--ops", default="all", help="comma list of operators or 'all'")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("contribution", parents=[common],
                       help="checkerboard contribution counts")
    p.add_argument("--kernel-size", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--out-len", type=int, default=None)
    p.set_defaults(func=cmd_contribution)

    fit_common = _Parser(add_help=False)
    fit_common.add_argument("--n", type=int, default=16)
    fit_common.add_argument("--factor", "-r", type=int, default=2)
    fit_common.add_argument("--method", choices=("closed", "gradient"), default="closed")
    fit_common.add_argument("--lr", type=float, default=None)
    fit_common.add_argument("--max-iter", type=int, default=GD_MAX_ITER)
    fit_common.add_argument("--parallel-small", type=int, default=0)

    p = sub.add_parser("fit", parents=[common, fit_common],
                       help="fit one transposed-convolution kernel")
    p.add_argument("--kernel-size", type=int, required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", parents=[common, fit_common],
                       help="fit residual across kernel sizes")
    p.add_argument("--sizes", required=True, help="comma list of kernel sizes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("errorspec", parents=[common],
                       help="spectrum of the difference of two images")
    p.add_argument("--pred", default=None, help="Netpbm file (else generated)")
    p.add_argument("--gt", default=None, help="Netpbm file (else generated)")
    p.add_argument("--signal", default="composite",
                   help="checkerboard | gaussian | composite")
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--period", type=int, default=8)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed-b", type=int, default=None)
    p.add_argument("--mode", choices=("complex", "magnitude"), default="complex")
    p.add_argument("--bins", type=int, default=16)
    p.set_defaults(func=cmd_errorspec)
    return parser


# main parses through one parser per process; build_parser() builds a new one
_parser = functools.cache(build_parser)


def _parse_formats(text: str):
    formats = tuple(f for f in text.split(",") if f)
    if not formats:
        raise UsageError("--format must select at least one format")
    for f in formats:
        if f not in FORMATS:
            raise UsageError(f"unknown format {f!r}; choose from {FORMATS}")
    return formats


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        formats = _parse_formats(args.format)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # the hash identifies the experiment, not where it was written
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "out_dir")}
        args.func(args, out_dir, formats, config)
        return EXIT_OK
    except (DivergenceError, NonRealResultError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError, MemoryError) as exc:  # too large a size is a usage error
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        path = getattr(exc, "filename", None)
        print(f"error: io: {exc}" + (f" (path: {path})" if path else ""), file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
