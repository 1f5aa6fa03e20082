"""The benchmark's workloads: what one job runs, and how its outputs are checked.

Every job of a workload has the same shape and size; only its seed
changes, so a percentile of job times measures the program and not a
mix of jobs. The checks never compare against stored output of upspec:
they recompute what the output must be with numpy alone, or test a
property the method must have.
"""

from __future__ import annotations

import csv
import functools
import inspect
import shutil
from pathlib import Path

import numpy as np

from tracer import Patch, upspec_namespaces
from upspec import alias_analysis, cli, generators, netpbm, signal_core, upsamplers

#: Job i of a run with seed s draws its inputs from seed SEED_STRIDE * s + i;
#: job 0 is the warm-up.
SEED_STRIDE = 10_000

#: Round-off allowance relative to the scale of the quantity compared.
REL_TOL = 1e-9


class JobFailed(RuntimeError):
    """The program reported a failure (a nonzero CLI exit code)."""


def job_seed(seed: int, i: int) -> int:
    return SEED_STRIDE * seed + i


def run_cli(argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise JobFailed(f"upspec {argv[0]} exited with code {code}")


# ---------------------------------------------------------------------------
# references computed with numpy alone


def bandlimited_noise(n: int, cutoff: int, seed: int) -> np.ndarray:
    """The documented noise recipe: a real DC draw, then one complex draw
    per bin 1..cutoff, mirrored for conjugate symmetry, scaled by sqrt(n)."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.normal()
    draws = rng.normal(size=(cutoff, 2))
    spec[1:cutoff + 1] = draws[:, 0] + 1j * draws[:, 1]
    spec[n - cutoff:] = np.conj(spec[1:cutoff + 1])[::-1]
    return np.fft.ifft(spec).real * np.sqrt(n)


def dirichlet_kernel(n: int, r: int) -> np.ndarray:
    """Impulse response h[m], m = 0..rn-1, of the ideal rate-r upsampler of
    length-n signals: the periodic Dirichlet kernel, whose even-n Nyquist
    term is split half and half between the bins +-n/2."""
    m = np.arange(r * n)
    theta = np.pi * m / (r * n)
    at_zero = m == 0
    sin_theta = np.where(at_zero, 1.0, np.sin(theta))
    if n % 2:
        dirichlet = np.where(at_zero, n, np.sin(n * theta) / sin_theta)
    else:
        dirichlet = np.where(at_zero, n - 1, np.sin((n - 1) * theta) / sin_theta)
        dirichlet = dirichlet + np.cos(n * theta)
    return dirichlet / n


def zero_insert(x: np.ndarray, r: int) -> np.ndarray:
    z = np.zeros(r * x.shape[0])
    z[::r] = x
    return z


def circular_conv(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.fft.ifft(np.fft.fft(z) * np.fft.fft(g)).real


def alias_ratio(y: np.ndarray, n: int) -> float:
    """(alias + Nyquist) / total energy of a length-rn signal."""
    m = y.size
    k = np.arange(m)
    kc = np.where(k < m - m // 2, k, k - m)  # centred index of each FFT bin
    power = np.abs(np.fft.fft(y)) ** 2
    passband = 2 * np.abs(kc) < n
    return float(power[~passband].sum() / power.sum())


def psnr_db(pred: np.ndarray, ref: np.ndarray) -> float:
    peak = float(np.ptp(ref)) or 1.0
    return float(10 * np.log10(peak * peak / np.mean((pred - ref) ** 2)))


def quantize(a: np.ndarray) -> np.ndarray:
    """Min-max quantisation to 0..255, rounding half to even."""
    lo, hi = float(a.min()), float(a.max())
    return np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)


def read_rows(path: Path) -> list[dict]:
    """``alias_metrics.csv`` as dicts; empty cells read as None."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{key: (value if key == "operator" else float(value) if value else None)
             for key, value in row.items()} for row in rows]


def netpbm_header(path: Path) -> list[bytes]:
    with open(path, "rb") as fh:
        return fh.read(64).split()[:4]


# ---------------------------------------------------------------------------
# checks shared by the two CLI workloads


def check_compare_rows(rows: list[dict], x: np.ndarray, r: int, ops) -> list[str]:
    """Properties every ``alias_metrics.csv`` of ``compare`` must have."""
    names = [row["operator"] for row in rows]
    if sorted(names) != sorted(ops):
        return [f"operators {names}, expected {sorted(ops)}"]
    problems = []
    ratios = [row["alias_ratio"] for row in rows]
    if any(b < a for a, b in zip(ratios, ratios[1:])):
        problems.append(f"rows not sorted by alias ratio: {ratios}")
    by_name = {row["operator"]: row for row in rows}
    if "fourier_pad" in by_name:
        ideal = by_name["fourier_pad"]
        if not ideal["alias_ratio"] <= REL_TOL:
            problems.append(f"fourier_pad alias ratio {ideal['alias_ratio']}, expected 0")
        if ideal["psnr_vs_ideal_db"] != float("inf"):
            problems.append(f"fourier_pad PSNR {ideal['psnr_vs_ideal_db']}, expected inf")
    if "bed_of_nails" in by_name:
        nails = by_name["bed_of_nails"]
        if not abs(nails["alias_ratio"] - (r - 1) / r) <= REL_TOL:
            problems.append(f"bed_of_nails alias ratio {nails['alias_ratio']}, "
                            f"expected {(r - 1) / r}")
        scale = float(np.abs(np.fft.fft(x)).max())
        if not nails["replica_deviation"] <= REL_TOL * scale:
            problems.append(f"bed_of_nails replica deviation {nails['replica_deviation']}, "
                            f"expected 0 against spectrum scale {scale}")
    return problems


class Workload:
    """One workload: ``setup`` makes the inputs, ``run`` is the timed job,
    ``check`` inspects its outputs. ``cli_dirs`` are the CLI output
    directories, emptied before every job."""

    name = ""

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.cli_dirs: list[Path] = []

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        for d in self.cli_dirs:
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, outputs) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PaperCompare(Workload):
    """``upspec compare`` of all seven operators, the paper's comparison."""

    name = "paper-compare"
    N, R, K, SMALL = 128, 2, 31, 3
    OPS = ("bed_of_nails", "nearest", "linear", "pixel_shuffle", "transposed_conv",
           "lctc", "fourier_pad")

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.dir = self.out_dir / "compare"
        self.cli_dirs = [self.dir]

    def run(self, i):
        run_cli(["compare", "--out-dir", self.dir, "--seed", job_seed(self.seed, i),
                 "--signal", "noise", "--n", self.N, "--factor", self.R,
                 "--kernel-size", self.K, "--parallel-small", self.SMALL,
                 "--ops", "all", "--format", "csv,json,pgm"])

    def check(self, i, outputs):
        x = bandlimited_noise(self.N, self.N // 2 - 1, job_seed(self.seed, i))
        problems = self.check_rows(read_rows(self.dir / "alias_metrics.csv"), x)
        expected = ["summary.json"] + [f"spectrum_{op}.pgm" for op in self.OPS]
        problems += [f"missing {f}" for f in expected if not (self.dir / f).is_file()]
        return problems

    def check_rows(self, rows: list[dict], x: np.ndarray) -> list[str]:
        """The shared row properties, then the fitted rows: the closed-form
        fit of a K-tap kernel to the ideal upsampler is the Dirichlet kernel
        sampled at offsets j - floor(K/2), and LCTC can represent that
        kernel, so it fits at least as well."""
        problems = check_compare_rows(rows, x, self.R, self.OPS)
        by_name = {row["operator"]: row for row in rows}
        if "transposed_conv" not in by_name or "lctc" not in by_name:
            return problems + ["transposed_conv or lctc row missing"]
        n, r, k = self.N, self.R, self.K
        h = dirichlet_kernel(n, r)
        offsets = (np.arange(k) - k // 2) % (r * n)
        g = np.zeros(r * n)
        g[offsets] = h[offsets]
        z = zero_insert(x, r)
        y = circular_conv(z, g)
        reference = circular_conv(z, h)
        want_ratio, want_psnr = alias_ratio(y, n), psnr_db(y, reference)
        row = by_name["transposed_conv"]
        if not abs(row["alias_ratio"] - want_ratio) <= 1e-7 * want_ratio:
            problems.append(f"transposed_conv alias ratio {row['alias_ratio']}, "
                            f"recomputed {want_ratio}")
        if not abs(row["psnr_vs_ideal_db"] - want_psnr) <= 1e-7 * abs(want_psnr):
            problems.append(f"transposed_conv PSNR {row['psnr_vs_ideal_db']}, "
                            f"recomputed {want_psnr}")
        lctc = by_name["lctc"]["psnr_vs_ideal_db"]
        if not lctc >= row["psnr_vs_ideal_db"] - 1e-7 * abs(want_psnr):
            problems.append(f"lctc PSNR {lctc} below transposed_conv's "
                            f"{row['psnr_vs_ideal_db']}")
        return problems


class ImageUpsample(Workload):
    """A library pipeline on a composite image: dense 2D transposed
    convolution under both boundaries, the error spectrum of their
    difference, and Netpbm output."""

    name = "image-upsample"
    H, W, K, S, BINS = 256, 256, 11, 2, 32
    POOL = 8  # distinct seeded images, cycled through by the jobs

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.dir = self.out_dir / "image"
        self.dir.mkdir(parents=True, exist_ok=True)

    def setup(self):
        self.images = [generators.composite_image(self.H, self.W, job_seed(self.seed, p))
                       for p in range(self.POOL)]
        rng = np.random.default_rng(job_seed(self.seed, SEED_STRIDE - 1))
        self.kernel = upsamplers.KernelSpec(weights=0.5 + rng.random((self.K, self.K)),
                                            stride=self.S)

    def run(self, i):
        image = self.images[i % self.POOL]
        periodic = upsamplers.transposed_conv2(image, self.kernel, boundary="periodic")
        zero_pad = upsamplers.transposed_conv2(image, self.kernel, boundary="zero-pad")
        log_map = alias_analysis.error_spectrum(periodic, zero_pad)
        magnitudes = alias_analysis.error_spectrum(periodic, zero_pad, log=False)
        profile = signal_core.radial_average(
            signal_core.Spectrum(magnitudes.astype(complex), centered=True), n_bins=self.BINS)
        netpbm.write_netpbm(periodic, self.dir / "upsampled.ppm")
        readback = netpbm.read_netpbm(self.dir / "upsampled.ppm")
        netpbm.write_netpbm(log_map, self.dir / "error_spectrum.pgm")
        return {"periodic": periodic, "zero_pad": zero_pad, "readback": readback,
                "profile": profile}

    def check(self, i, outputs):
        image = self.images[i % self.POOL]
        w, s = self.kernel.weights, self.S
        scale = float(np.abs(image).max() * np.abs(w).sum())
        problems = []
        for name, want in (("periodic", self.periodic_reference(image, w, s)),
                           ("zero_pad", self.zero_pad_reference(image, w, s))):
            err = float(np.abs(outputs[name] - want).max())
            if not err <= REL_TOL * scale:
                problems.append(f"{name} transposed_conv2 off by {err:.3e} "
                                f"(scale {scale:.3e})")
        if not np.array_equal(outputs["readback"], quantize(outputs["periodic"])):
            problems.append("PPM read-back differs from the min-max quantisation")
        header = netpbm_header(self.dir / "error_spectrum.pgm")
        if header != [b"P5", b"%d" % (s * self.W), b"%d" % (s * self.H), b"255"]:
            problems.append(f"error_spectrum.pgm header {header}")
        magnitude = outputs["profile"].magnitude
        if magnitude.shape != (self.BINS,) or not np.all(np.isfinite(magnitude)):
            problems.append("radial profile is not one finite value per bin")
        return problems

    @staticmethod
    def periodic_reference(image, w, s):
        """Circular convolution of the zero-inserted image, by FFT.

        One channel at a time, so that the check's memory stays below the
        program's and ``peak_rss_mb`` measures the program.
        """
        h, wd, channels = image.shape
        shape = (s * h, s * wd)
        g = np.zeros(shape)
        ka, kb = w.shape
        rows = (np.arange(ka) - ka // 2) % shape[0]
        cols = (np.arange(kb) - kb // 2) % shape[1]
        g[np.ix_(rows, cols)] = w
        kernel_spectrum = np.fft.rfft2(g)
        out = np.empty(shape + (channels,))
        for c in range(channels):
            z = np.zeros(shape)
            z[::s, ::s] = image[:, :, c]
            out[:, :, c] = np.fft.irfft2(np.fft.rfft2(z) * kernel_spectrum, s=shape)
        return out

    @staticmethod
    def zero_pad_reference(image, w, s):
        """Direct convolution of the zero-inserted image, zero outside.

        out[p, q] = sum_ab w[a, b] z[p - a + ca, q - b + cb]. Only taps with
        a = p + ca (mod s) meet a nonzero sample, so each output phase is a
        sum of shifted copies of the image itself.
        """
        h, wd, _ = image.shape
        ka, kb = w.shape
        ca, cb = ka // 2, kb // 2
        pad = max(ka, kb)
        padded = np.pad(image, ((pad, pad), (pad, pad), (0, 0)))
        out = np.zeros((s * h, s * wd, image.shape[2]))
        for a in range(ka):
            pa = (a - ca) % s
            da = pad + (pa + ca - a) // s
            for b in range(kb):
                pb = (b - cb) % s
                db = pad + (pb + cb - b) // s
                out[pa::s, pb::s] += w[a, b] * padded[da:da + h, db:db + wd]
        return out


class LongSignal(Workload):
    """CLI ``compare`` of the five unfitted operators on a long signal,
    plus ``contribution`` at the same output length."""

    name = "long-signal"
    N, R = 16_384, 2
    OPS = ("bed_of_nails", "nearest", "linear", "pixel_shuffle", "fourier_pad")
    K, S = 63, 4
    CAPTURED = ("linear", "fourier_pad_upsample")

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.compare_dir = self.out_dir / "compare"
        self.contribution_dir = self.out_dir / "contribution"
        self.cli_dirs = [self.compare_dir, self.contribution_dir]
        # The CLI writes no operator output, so the outputs to check are
        # taken from the calls it makes.
        self.captured = []
        self.patch = Patch(upspec_namespaces())
        for name in self.CAPTURED:
            original = getattr(upsamplers, name)
            self.patch.replace(original, self._capture(name, original))

    def _capture(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            self.captured.append((name, np.asarray(bound["x"]), int(bound["r"]), result))
            return result

        return capture

    def close(self):
        self.patch.restore()

    def run(self, i):
        self.captured.clear()
        run_cli(["compare", "--out-dir", self.compare_dir, "--seed", job_seed(self.seed, i),
                 "--signal", "noise", "--n", self.N, "--factor", self.R,
                 "--ops", ",".join(self.OPS)])
        run_cli(["contribution", "--out-dir", self.contribution_dir,
                 "--kernel-size", self.K, "--stride", self.S, "--out-len", self.R * self.N])

    def check(self, i, outputs):
        x = bandlimited_noise(self.N, self.N // 2 - 1, job_seed(self.seed, i))
        problems = check_compare_rows(read_rows(self.compare_dir / "alias_metrics.csv"),
                                      x, self.R, self.OPS)
        problems += self.check_coarse_grid(x)
        problems += self.check_counts(self.contribution_dir / "contribution_counts.csv")
        return problems

    def check_coarse_grid(self, x):
        """Linear interpolation and Fourier padding keep every input sample."""
        problems = []
        scale = float(np.abs(x).max())
        for name in self.CAPTURED:
            calls = [(xin, r, y) for op, xin, r, y in self.captured if op == name]
            if not calls:
                problems.append(f"no call of upsamplers.{name} seen")
            for xin, r, y in calls:
                if xin.shape != x.shape or not np.abs(xin - x).max() <= REL_TOL * scale:
                    problems.append(f"{name} was given another signal than the job's")
                elif not np.abs(y[::r] - x).max() <= REL_TOL * scale:
                    problems.append(f"{name} does not reproduce the input on the coarse grid")
        return problems

    def check_counts(self, path: Path):
        """Output p receives one contribution per tap j = p + floor(K/2) (mod s)."""
        with open(path, newline="") as fh:
            counts = np.array([int(row["count"]) for row in csv.DictReader(fh)])
        out_len, k, s = self.R * self.N, self.K, self.S
        phase = (np.arange(out_len) + k // 2) % s
        expected = np.where(phase < k, (k - 1 - phase) // s + 1, 0)
        problems = []
        if counts.shape != expected.shape or not np.array_equal(counts, expected):
            problems.append("contribution counts differ from the per-phase closed form")
        if counts.sum() != out_len // s * k:
            problems.append(f"contribution counts sum to {counts.sum()}, "
                            f"expected {out_len // s * k}")
        return problems


WORKLOADS = {cls.name: cls for cls in (PaperCompare, ImageUpsample, LongSignal)}
