"""Command-line front end: synthetic inputs, operator comparisons,
kernel fits, and deterministic CSV/JSON/Netpbm artifacts.

Exit codes: 0 success, 1 usage error, 2 I/O failure, 3 numerical failure.
All error paths print a single machine-parsable line to stderr. CSV and
Netpbm outputs are byte-deterministic for a fixed configuration;
timestamps only ever appear in JSON metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .alias_analysis import alias_energy, contribution_map, error_spectrum, psnr
from .generators import (bandlimited_noise, checkerboard_image, composite_image, cosine_mixture,
                         cosine_signal, gaussian_blob_image, step_signal)
from .kernel_fit import (
    DivergenceError,
    FitProblem,
    fit_closed_form,
    fit_gradient_descent,
    kernel_edge_profile,
    lctc_fit,
)
from .netpbm import minmax_rint, read_netpbm, write_netpbm
from .signal_core import NonRealResultError, Spectrum, log_magnitude, radial_average
from .upsamplers import (
    KernelSpec,
    bed_of_nails,
    fourier_pad_upsample,
    linear,
    nearest,
    pixel_shuffle,
    transposed_conv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

FORMATS = ("csv", "json", "pgm", "ppm")
OPERATORS = ("bed_of_nails", "nearest", "linear", "pixel_shuffle",
             "transposed_conv", "lctc", "fourier_pad")
COMPARE_CSV_HEADER = ("operator", "kernel_size", "passband_energy", "alias_energy",
                      "nyquist_energy", "alias_ratio", "replica_deviation",
                      "contribution_variance", "psnr_vs_ideal_db")


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


def _fmt(value) -> str:
    if type(value) is float:
        return f"{value:.12g}"
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else ("inf" if f > 0 else "-inf")
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def write_json(path: Path, payload: dict, config: dict) -> None:
    config = _sanitize(config)
    body = {
        "config": config,
        "config_hash": config_hash(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        **_sanitize(payload),
    }
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


def bar_strip(values, height: int = 48) -> np.ndarray:
    """Render a 1D array as a bar-chart mask of shape (height, len(values)).

    Row 0 is the top. Column j is True in its bottom rint(scaled_j * height)
    rows, with the values min-max scaled to [0, 1] (no row when constant).
    ``write_netpbm`` turns the mask into 0/255 bytes.
    """
    vals = np.asarray(values, dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    fill = np.zeros_like(vals) if hi == lo else minmax_rint(vals, lo, hi, height)
    return np.arange(height)[:, np.newaxis] >= height - fill


# ---------------------------------------------------------------------------
# input construction


def _require_seed(args, why: str) -> int:
    if args.seed is None:
        raise UsageError(f"--seed is required {why}")
    return args.seed


def build_signal(args) -> np.ndarray:
    kind = args.signal
    if kind == "cosine":
        return cosine_signal(args.n, args.frequency, args.amplitude)
    if kind == "cosine-mix":
        return cosine_mixture(args.n, _parse_components(args.components))
    if kind == "noise":
        seed = _require_seed(args, "for the noise generator")
        cutoff = args.cutoff if args.cutoff is not None else args.n // 2 - 1
        return bandlimited_noise(args.n, cutoff, seed)
    if kind == "step":
        return step_signal(args.n)
    raise UsageError(f"--signal must be a 1D kind for this command, got {kind!r}")


def build_image(args, seed) -> np.ndarray:
    kind = args.signal
    if kind == "checkerboard":
        return checkerboard_image(args.height, args.width, args.period)
    if kind == "gaussian":
        return gaussian_blob_image(args.height, args.width, args.sigma)
    if kind == "composite":
        if seed is None:
            raise UsageError("--seed is required for the composite generator")
        return composite_image(args.height, args.width, seed)
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
        seed = _require_seed(args, "to draw the extra pixel-shuffle channels")
        channels = [x] + [bandlimited_noise(x.size, x.size // 2 - 1, seed + 1000 + i)
                          for i in range(1, r)]
        return pixel_shuffle(channels, r), None
    if name in ("transposed_conv", "lctc"):
        small = (args.parallel_small or 3) if name == "lctc" else None
        problem = FitProblem(n=x.size, r=r, k=args.kernel_size, parallel_small=small)
        kernel = (fit_closed_form(problem) if small is None else lctc_fit(problem)).kernel
        return transposed_conv(kernel=kernel, x=x, boundary=args.boundary), kernel
    raise UsageError(f"unknown operator {name!r}")


# ---------------------------------------------------------------------------
# commands


def _write_operator_rows(names, args, out_dir: Path, formats) -> list[dict]:
    """Alias metrics of each named operator, sorted by alias ratio.

    Writes ``spectrum_<op>.pgm`` from the magnitude that ``alias_energy``
    already took, and ``alias_metrics.csv`` from the sorted rows.
    """
    x = build_signal(args)
    reference = fourier_pad_upsample(x, args.factor)
    peak = float(np.ptp(reference)) or 1.0
    rows = []
    for name in names:
        y, kernel = apply_operator(name, x, args)
        report = alias_energy(y, args.factor, reference=x)
        rows.append({
            "operator": name,
            "kernel_size": None if kernel is None else kernel.size,
            "passband_energy": report.passband_energy,
            "alias_energy": report.alias_energy,
            "nyquist_energy": report.nyquist_energy,
            "alias_ratio": report.alias_ratio,
            "replica_deviation": report.replica_deviation,
            "contribution_variance": (None if kernel is None
                                      else contribution_map(kernel, y.size).variance),
            "psnr_vs_ideal_db": psnr(y[np.newaxis, :], reference[np.newaxis, :], peak=peak),
        })
        if "pgm" in formats:
            write_netpbm(bar_strip(log_magnitude(report.magnitude)),
                         out_dir / f"spectrum_{name}.pgm")
    rows.sort(key=lambda row: row["alias_ratio"])
    if "csv" in formats:
        write_csv(out_dir / "alias_metrics.csv", COMPARE_CSV_HEADER,
                  [[row[k] for k in COMPARE_CSV_HEADER] for row in rows])
    return rows


def cmd_analyze(args, out_dir: Path, formats, config) -> int:
    (row,) = _write_operator_rows((args.op,), args, out_dir, formats)
    if "json" in formats:
        write_json(out_dir / "summary.json", {"metrics": row}, config)
    return EXIT_OK


def cmd_compare(args, out_dir: Path, formats, config) -> int:
    names = OPERATORS if args.ops == "all" else tuple(args.ops.split(","))
    for name in names:
        if name not in OPERATORS:
            raise UsageError(f"unknown operator {name!r}; choose from {OPERATORS}")
    rows = _write_operator_rows(names, args, out_dir, formats)
    if "json" in formats:
        write_json(out_dir / "summary.json", {"metrics": rows}, config)
    return EXIT_OK


def cmd_contribution(args, out_dir: Path, formats, config) -> int:
    weights = np.ones(args.kernel_size)
    kernel = KernelSpec(weights=weights, stride=args.stride)
    out_len = args.out_len if args.out_len is not None else 8 * args.stride
    cmap = contribution_map(kernel, out_len)
    if "csv" in formats:
        write_csv(out_dir / "contribution_counts.csv", ("position", "count"),
                  list(enumerate(cmap.counts.tolist())))
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
        write_netpbm(bar_strip(cmap.counts.astype(float)),
                     out_dir / "contribution_counts.pgm")
    return EXIT_OK


def _solve_fit(args, k: int):
    parallel = args.parallel_small if args.parallel_small else None
    problem = FitProblem(n=args.n, r=args.factor, k=k, parallel_small=parallel)
    if args.method == "gradient":
        return fit_gradient_descent(problem, lr=args.lr, max_iter=args.max_iter)
    return lctc_fit(problem) if parallel is not None else fit_closed_form(problem)


def cmd_fit(args, out_dir: Path, formats, config) -> int:
    result = _solve_fit(args, args.kernel_size)
    kernel = result.kernel
    rows = [("large", i, w) for i, w in enumerate(kernel.weights.tolist())]
    if kernel.parallel_small is not None:
        rows += [("small", i, w) for i, w in enumerate(kernel.parallel_small.tolist())]
    if "csv" in formats:
        write_csv(out_dir / "kernel_weights.csv", ("branch", "tap", "weight"), rows)
    if "json" in formats:
        payload = {
            "residual": result.residual,
            "iterations": result.iterations,
            "gram_rank": result.gram_rank,
            "converged": result.converged,
        }
        if kernel.size >= 3:
            profile = kernel_edge_profile(kernel)
            payload["edge_profile"] = {
                "center_mass": profile.center_mass,
                "edge_mass": profile.edge_mass,
                "decays_toward_edge": profile.decays_toward_edge,
            }
        write_json(out_dir / "fit.json", payload, config)
    if "pgm" in formats:
        write_netpbm(bar_strip(kernel.weights), out_dir / "kernel.pgm")
    return EXIT_OK


def cmd_sweep(args, out_dir: Path, formats, config) -> int:
    sizes = sorted({int(s) for s in args.sizes.split(",")})
    results = [(k, _solve_fit(args, k).residual) for k in sizes]
    if "csv" in formats:
        write_csv(out_dir / "residuals.csv", ("kernel_size", "residual"), results)
    if "json" in formats:
        write_json(out_dir / "sweep.json",
                   {"residuals": [{"kernel_size": k, "residual": v} for k, v in results]},
                   config)
    if "pgm" in formats:
        write_netpbm(bar_strip(np.array([v for _, v in results])),
                     out_dir / "residuals.pgm")
    return EXIT_OK


def _read_input(path) -> np.ndarray:
    try:  # a malformed input file is an I/O error, like a missing one
        return read_netpbm(path).astype(float)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def cmd_errorspec(args, out_dir: Path, formats, config) -> int:
    if (args.pred is None) != (args.gt is None):
        raise UsageError("--pred and --gt must be given together")
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
        profile = radial_average(Spectrum(magnitudes.astype(complex), centered=True),
                                 n_bins=args.bins)
        write_csv(out_dir / "radial_profile.csv", ("radius", "mean_magnitude", "empty"),
                  list(zip(profile.radius.tolist(), profile.magnitude.tolist(),
                           profile.empty.tolist())))
    return EXIT_OK


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
    signal.add_argument("--boundary", choices=("periodic", "zero-pad"), default="periodic")
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
    fit_common.add_argument("--max-iter", type=int, default=100000)
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
        args = build_parser().parse_args(argv)
        formats = _parse_formats(args.format)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # the hash identifies the experiment, not where it was written
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "out_dir")}
        return args.func(args, out_dir, formats, config)
    except (DivergenceError, NonRealResultError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError) as exc:
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
