"""Command-line front end: synthetic inputs, operator comparisons,
kernel fits, and deterministic CSV/JSON/Netpbm artifacts.

Exit codes: 0 success, 1 usage error, 2 I/O failure, 3 numerical failure.
All error paths print a single machine-parsable line to stderr. The parser
checks each flag's own value (a range, a choice, or a read of a comma list)
before --out-dir is made; a run that fails later removes the files it
created in --out-dir, keeping those that were there before it. CSV and
Netpbm outputs are byte-deterministic for a fixed configuration; every CSV
value is spelled by one rule, and timestamps only ever appear in JSON
metadata.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
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
from .netpbm import BAR_HEIGHT, read_netpbm, write_bar_strip, write_netpbm
from .signal_core import (_INT_MAX, _MAX_BINS, _MAX_SAMPLES, NonRealResultError, _integer,
                          _log_map, _rdft, log_magnitude, radial_average)
from .upsamplers import (
    BOUNDARY_MODES,
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
ROW_BLOCK_SAMPLES = 2 ** 14  # see _write_operator_rows
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


def _cell(value) -> str:
    """One CSV value as text: floats to 12 significant digits, booleans
    ``true``/``false``, integers in full, None empty, else what ``str`` gives."""
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "" if value is None else str(value)


def write_csv(path: Path, header, columns) -> None:
    """One or more columns, all of one length, as a header line and one line
    a row, every value spelled by :func:`_cell`."""
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError(f"CSV columns of lengths {[len(c) for c in columns]} differ")
    rows = map(",".join, zip(*[map(_cell, column) for column in columns]))
    path.write_text("\n".join([",".join(header), *rows]) + "\n")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else str(f)  # "inf", "-inf" or "nan"
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
    else:
        x = step_signal(args.n)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not as a warning
        x *= args.amplitude
    if not np.all(np.isfinite(x)):
        raise UsageError(f"signal samples times --amplitude {args.amplitude:g} are not finite")
    return x


def build_image(args, seed) -> np.ndarray:
    kind = args.signal
    if kind == "checkerboard":
        return checkerboard_image(args.height, args.width, args.period)
    if kind == "gaussian":
        return gaussian_blob_image(args.height, args.width, args.sigma)
    return composite_image(args.height, args.width,
                           _require_seed(seed, "for the composite generator"))


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
    small = (args.parallel_small or 3) if name == "lctc" else None  # else transposed_conv
    problem = FitProblem(n=x.size, r=r, k=args.kernel_size, parallel_small=small)
    kernel = fit_closed_form(problem).kernel
    return transposed_conv(kernel=kernel, x=x, boundary=args.boundary), kernel


# ---------------------------------------------------------------------------
# commands


def _write_operator_rows(names, args, out_dir: Path, formats) -> list[dict]:
    """Alias metrics of each named operator, sorted stably by alias ratio, one
    within round-off, (eps/2 * log2(r*N))**2, counting as 0 (so in --ops order).

    Runs of consecutive rows, as many of r*N samples as fit in
    ``ROW_BLOCK_SAMPLES`` and at least one, are stacked and scored by one
    ``_alias_reports`` and one ``_psnr_rows`` call; every row equals its
    one-row ``alias_energy(y, r, reference=x)`` and ``psnr`` byte for byte.
    The ideal reference (Fourier zero-padding, and its peak-to-peak for
    PSNR) is computed first; then each block in turn applies its operators,
    scores them and writes their strips. Writes ``spectrum_<op>.pgm`` per
    row and ``alias_metrics.csv``."""
    x = build_signal(args)
    low_rate = _rdft(x)
    size = args.factor * x.size
    per_block = max(1, ROW_BLOCK_SAMPLES // size)
    ideal = fourier_pad_upsample(x, args.factor)
    peak = float(np.ptp(ideal)) or 1.0
    rows = []
    for start in range(0, len(names), per_block):
        block = names[start:start + per_block]
        ys, kernels = zip(*[(ideal, None) if name == "fourier_pad"
                            else apply_operator(name, x, args) for name in block])
        ys = ys[0][np.newaxis] if len(ys) == 1 else np.stack(ys)
        reports = _alias_reports(ys, args.factor, low_rate)
        rows += [{
            "operator": name,
            "kernel_size": None if kernel is None else kernel.size,
            **{field: getattr(report, field) for field in REPORT_FIELDS},
            "contribution_variance": (None if kernel is None
                                      else contribution_map(kernel, kernel.stride).variance),
            "psnr_vs_ideal_db": db,
        } for name, kernel, report, db in zip(block, kernels, reports,
                                              _psnr_rows(ys, ideal, peak).tolist())]
        if "pgm" in formats:
            strips = _log_map(np.stack([report.magnitude for report in reports]))
            for name, strip in zip(block, strips):
                write_bar_strip(strip, out_dir / f"spectrum_{name}.pgm")

    floor = (np.finfo(float).eps / 2 * math.log2(size)) ** 2
    rows.sort(key=lambda row: 0.0 if row["alias_ratio"] <= floor else row["alias_ratio"])
    if "csv" in formats:
        write_csv(out_dir / "alias_metrics.csv", COMPARE_CSV_HEADER,
                  [[row[k] for row in rows] for k in COMPARE_CSV_HEADER])
    return rows


def cmd_analyze(args, out_dir: Path, formats, config) -> None:
    (row,) = _write_operator_rows((args.op,), args, out_dir, formats)
    if "json" in formats:
        write_json(out_dir / "summary.json", {"metrics": row}, config)


def cmd_compare(args, out_dir: Path, formats, config) -> None:
    rows = _write_operator_rows(_parse_ops(args.ops), args, out_dir, formats)
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
    """Tap counts per output position, whose map repeats with period s: every
    artifact comes from one period, ``contribution_map(kernel, s)``, so no
    array of out_len counts is built. The CSV rows come from
    :func:`_position_rows` and the strip repeats their bar columns. One period
    holds the map's min and max, so the bytes are those of all counts."""
    out_len = args.out_len if args.out_len is not None else 8 * args.stride
    if out_len % args.stride:
        raise UsageError(f"--out-len must be a multiple of --stride {args.stride}, got {out_len}")
    kernel = KernelSpec(weights=np.ones(args.kernel_size), stride=args.stride)
    cycle = contribution_map(kernel, kernel.stride)
    if "csv" in formats:
        rows = _position_rows(out_len, [b",%d\n" % count for count in cycle.counts.tolist()])
        with open(out_dir / "contribution_counts.csv", "wb") as fh:
            fh.write(b"position,count\n")
            fh.write(rows)
    if "pgm" in formats:
        write_bar_strip(cycle.counts, out_dir / "contribution_counts.pgm", out_len // cycle.period)
    if "json" in formats:
        write_json(out_dir / "contribution.json", {
            "kernel_size": args.kernel_size,
            "stride": args.stride,
            "out_len": out_len,
            "uniform": cycle.uniform,
            "variance": cycle.variance,
            "period": cycle.period,
        }, config)


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
    sizes = _parse_sizes(args.sizes)
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


def _integer_flag(text: str, minimum: int, maximum: float = _INT_MAX) -> int:
    """The value of every integer flag but --frequency: what ``int`` reads, in
    the range of :func:`_integer`, else an ArgumentTypeError naming the range."""
    try:  # int reads no integer, or _integer finds it out of range
        return _integer(int(text), "value", minimum, maximum)
    except ValueError:  # argparse names the flag before this message
        raise argparse.ArgumentTypeError(
            f"must be an integer from {minimum} to {maximum}, got {text!r}") from None


def _parse_ops(text: str) -> tuple:
    """--ops: every operator for "all", else the comma list, each name once."""
    names = OPERATORS if text == "all" else tuple(text.split(","))
    for i, name in enumerate(names):
        if name not in OPERATORS:
            raise argparse.ArgumentTypeError(f"unknown operator {name!r}; choose from {OPERATORS}")
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"operator {name!r} is listed more than once")
    return names


def _parse_formats(text: str) -> tuple:
    """--format: the names of the comma list, empty items skipped, at least one."""
    formats = tuple(f for f in text.split(",") if f)
    if not formats:
        raise argparse.ArgumentTypeError("must select at least one format")
    for f in formats:
        if f not in FORMATS:
            raise argparse.ArgumentTypeError(f"unknown format {f!r}; choose from {FORMATS}")
    return formats


def _parse_sizes(text: str) -> list[int]:
    """--sizes: the kernel sizes of the comma list, once each, ascending."""
    return sorted({_integer_flag(size, minimum=1) for size in text.split(",")})


def _parse_components(text: str) -> list[tuple[int, float, float]]:
    """--components: the (k, amp, phase) of each k:amp:phase item."""
    try:  # a chunk of other than three fields fails to unpack
        return [(int(k), float(amp), float(phase))
                for k, amp, phase in (chunk.split(":") for chunk in text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be k:amp:phase[,k:amp:phase...], got {text!r}") from None


def _text_flag(text: str, parse) -> str:
    """A comma-list flag's text as given, once ``parse`` (which the command calls
    again) has read it, so that vars(args) and every config_hash keep its words."""
    parse(text)
    return text


def build_parser() -> _Parser:
    parser = _Parser(prog="upspec",
                     description="Spectral analysis of upsampling operators.")
    parser.add_argument("--version", action="version", version=f"upspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = functools.partial(_integer_flag, minimum=0, maximum=math.inf)  # numpy seeds any size
    natural, count, factor = (functools.partial(_integer_flag, minimum=m) for m in (0, 1, 2))
    ops, formats, sizes, components = (functools.partial(_text_flag, parse=parse) for parse in (
        _parse_ops, _parse_formats, _parse_sizes, _parse_components))

    common = _Parser(add_help=False)
    common.add_argument("--out-dir", required=True, help="directory for artifacts")
    common.add_argument("--format", type=formats, default="csv,json,pgm",
                        help="comma list from csv,json,pgm,ppm")
    common.add_argument("--seed", type=seed, default=None)

    signal = _Parser(add_help=False)
    signal.add_argument("--signal", choices=("cosine", "cosine-mix", "noise", "step"),
                        default="noise")
    signal.add_argument("--n", type=count, default=64)
    signal.add_argument("--cutoff", type=natural, default=None,
                        help="band limit for noise (default n/2 - 1)")
    signal.add_argument("--frequency", type=int, default=1)
    signal.add_argument("--amplitude", type=float, default=1.0)
    signal.add_argument("--components", type=components, default="1:1:0")
    signal.add_argument("--factor", "-r", type=factor, default=2)
    signal.add_argument("--boundary", choices=BOUNDARY_MODES, default="periodic")
    signal.add_argument("--kernel-size", type=count, default=7)
    signal.add_argument("--parallel-small", type=natural, default=0,
                        help="parallel small-kernel size (lctc defaults to 3)")

    p = sub.add_parser("analyze", parents=[common, signal],
                       help="alias metrics of one operator")
    p.add_argument("--op", default="bed_of_nails", choices=OPERATORS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", parents=[common, signal],
                       help="alias metrics of several operators, sorted")
    p.add_argument("--ops", type=ops, default="all", help="comma list of operators or 'all'")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("contribution", parents=[common],
                       help="checkerboard contribution counts")
    # a kernel of float64 taps, and a strip column of BAR_HEIGHT bytes per
    # position of one period (the stride) and of the output
    p.add_argument("--kernel-size", type=functools.partial(
        _integer_flag, minimum=1, maximum=_MAX_SAMPLES), required=True)
    strip = functools.partial(_integer_flag, minimum=1, maximum=_INT_MAX // BAR_HEIGHT)
    p.add_argument("--stride", type=strip, required=True)
    p.add_argument("--out-len", type=strip, default=None)
    p.set_defaults(func=cmd_contribution)

    fit_common = _Parser(add_help=False)
    fit_common.add_argument("--n", type=count, default=16)
    fit_common.add_argument("--factor", "-r", type=factor, default=2)
    fit_common.add_argument("--method", choices=("closed", "gradient"), default="closed")
    fit_common.add_argument("--lr", type=float, default=None)
    fit_common.add_argument("--max-iter", type=natural, default=GD_MAX_ITER)
    fit_common.add_argument("--parallel-small", type=natural, default=0)

    p = sub.add_parser("fit", parents=[common, fit_common],
                       help="fit one transposed-convolution kernel")
    p.add_argument("--kernel-size", type=count, required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", parents=[common, fit_common],
                       help="fit residual across kernel sizes")
    p.add_argument("--sizes", type=sizes, required=True, help="comma list of kernel sizes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("errorspec", parents=[common],
                       help="spectrum of the difference of two images")
    p.add_argument("--pred", default=None, help="Netpbm file (else generated)")
    p.add_argument("--gt", default=None, help="Netpbm file (else generated)")
    p.add_argument("--signal", choices=("checkerboard", "gaussian", "composite"),
                   default="composite")
    p.add_argument("--height", type=count, default=32)
    p.add_argument("--width", type=count, default=32)
    p.add_argument("--period", type=count, default=8)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed-b", type=seed, default=None)
    p.add_argument("--mode", choices=("complex", "magnitude"), default="complex")
    p.add_argument("--bins", type=functools.partial(_integer_flag, minimum=1, maximum=_MAX_BINS),
                   default=16)
    p.set_defaults(func=cmd_errorspec)
    return parser


# main parses through one parser per process; build_parser() builds a new one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        formats = _parse_formats(args.format)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        before = set(out_dir.iterdir())
        # the hash identifies the experiment, not where it was written
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "out_dir")}
        try:
            args.func(args, out_dir, formats, config)
        except BaseException:  # a failed run leaves only what was there before it
            for path in set(out_dir.iterdir()) - before:
                path.unlink()
            raise
        return EXIT_OK
    except (DivergenceError, NonRealResultError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError, MemoryError, OverflowError) as exc:
        # too large a size or value is a usage error; numpy's MemoryError names
        # the allocation, Python's own has no message
        reason = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"error: usage: {reason}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:  # a DataError has no filename
        path = getattr(exc, "filename", None)
        print(f"error: io: {exc}" + (f" (path: {path})" if path else ""), file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
