"""Tests of the benchmark itself: its output checks, its tracer and its result line.

    python3 -m pytest bench

Every output check must pass on the program's real output and reject a
deliberately corrupted copy of it.
"""

import copy
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from upspec import kernel_fit, upsamplers  # noqa: E402


def _ran(workload):
    workload.setup()
    workload.prepare()
    return workload, workload.run(1)


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    workload, _ = _ran(workloads.PaperCompare(tmp_path_factory.mktemp("paper"), seed=3))
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    workload, outputs = _ran(workloads.ImageUpsample(tmp_path_factory.mktemp("image"), seed=3))
    yield workload, outputs
    workload.close()


@pytest.fixture(scope="module")
def long_signal(tmp_path_factory):
    workload, _ = _ran(workloads.LongSignal(tmp_path_factory.mktemp("long"), seed=3))
    yield workload
    workload.close()


# ---------------------------------------------------------------------------
# output checks


def test_noise_recipe_matches_the_generator():
    from upspec.generators import bandlimited_noise

    for n, seed in ((128, 5), (129, 6)):
        assert np.array_equal(workloads.bandlimited_noise(n, n // 2 - 1, seed),
                              bandlimited_noise(n, n // 2 - 1, seed))


def test_dirichlet_kernel_is_the_ideal_impulse_response():
    for n in (8, 9):
        impulse = np.zeros(n)
        impulse[0] = 1.0
        assert np.allclose(workloads.dirichlet_kernel(n, 3),
                           upsamplers.fourier_pad_upsample(impulse, 3), atol=1e-13)


def _paper_rows(paper):
    x = workloads.bandlimited_noise(paper.N, paper.N // 2 - 1, workloads.job_seed(paper.seed, 1))
    return workloads.read_rows(paper.dir / "alias_metrics.csv"), x


def _set(op, **values):
    def corrupt(rows):
        next(row for row in rows if row["operator"] == op).update(values)
    return corrupt


def _scale(op, column, factor):
    def corrupt(rows):
        row = next(row for row in rows if row["operator"] == op)
        row[column] *= factor
    return corrupt


PAPER_CORRUPTIONS = {
    "fourier_pad aliases": _set("fourier_pad", alias_ratio=1e-6),
    "fourier_pad PSNR finite": _set("fourier_pad", psnr_vs_ideal_db=300.0),
    "bed_of_nails ratio": _scale("bed_of_nails", "alias_ratio", 1 + 1e-6),
    "bed_of_nails replicas": _set("bed_of_nails", replica_deviation=1e-3),
    "transposed_conv ratio": _scale("transposed_conv", "alias_ratio", 1 + 1e-5),
    "transposed_conv PSNR": _scale("transposed_conv", "psnr_vs_ideal_db", 1 + 1e-5),
    "lctc below transposed_conv": _scale("lctc", "psnr_vs_ideal_db", 0.999),
    "rows unsorted": lambda rows: rows.reverse(),
    "row missing": lambda rows: rows.pop(),
}


def test_paper_compare_output_passes(paper):
    assert paper.check(1, None) == []


@pytest.mark.parametrize("corruption", sorted(PAPER_CORRUPTIONS))
def test_paper_compare_check_rejects(paper, corruption):
    rows, x = _paper_rows(paper)
    assert paper.check_rows(rows, x) == []
    bad = copy.deepcopy(rows)
    PAPER_CORRUPTIONS[corruption](bad)
    assert paper.check_rows(bad, x) != []


def test_paper_compare_check_rejects_missing_file(paper, tmp_path):
    broken = workloads.PaperCompare(tmp_path, paper.seed)
    shutil.copytree(paper.dir, broken.dir)
    (broken.dir / "spectrum_lctc.pgm").unlink()
    assert broken.check(1, None) == ["missing spectrum_lctc.pgm"]


def test_image_upsample_output_passes(image):
    workload, outputs = image
    assert workload.check(1, outputs) == []


def _bump(key, index, amount):
    def corrupt(outputs):
        outputs[key][index] += amount
    return corrupt


IMAGE_CORRUPTIONS = {
    "periodic": _bump("periodic", (7, 9, 1), 1e-6),
    "zero_pad border": _bump("zero_pad", (0, 0, 2), 1e-6),
    "readback": _bump("readback", (3, 3, 0), 1),
    "profile": lambda outputs: outputs["profile"].magnitude.__setitem__(0, np.nan),
}


@pytest.mark.parametrize("corruption", sorted(IMAGE_CORRUPTIONS))
def test_image_upsample_check_rejects(image, corruption):
    workload, outputs = image
    bad = copy.deepcopy(outputs)
    IMAGE_CORRUPTIONS[corruption](bad)
    assert workload.check(1, bad) != []


def test_image_references_agree_away_from_the_border():
    rng = np.random.default_rng(0)
    img = rng.random((12, 10, 2))
    w = rng.random((5, 5))
    periodic = workloads.ImageUpsample.periodic_reference(img, w, 2)
    zero_pad = workloads.ImageUpsample.zero_pad_reference(img, w, 2)
    assert np.allclose(periodic[4:-4, 4:-4], zero_pad[4:-4, 4:-4], atol=1e-12)
    assert not np.allclose(periodic, zero_pad)


def test_long_signal_output_passes(long_signal):
    assert long_signal.check(1, None) == []


def _x(long_signal):
    return workloads.bandlimited_noise(long_signal.N, long_signal.N // 2 - 1,
                                       workloads.job_seed(long_signal.seed, 1))


@pytest.mark.parametrize("name", ["linear", "fourier_pad_upsample"])
def test_long_signal_check_rejects_a_changed_coarse_sample(long_signal, name):
    x = _x(long_signal)
    assert long_signal.check_coarse_grid(x) == []
    saved = list(long_signal.captured)
    try:
        long_signal.captured[:] = [
            (op, xin, r, y.copy()) for op, xin, r, y in saved]
        op, xin, r, y = next(c for c in long_signal.captured if c[0] == name)
        y[10 * r] += 1e-6 * np.abs(x).max()
        assert long_signal.check_coarse_grid(x) != []
        long_signal.captured[:] = [c for c in saved if c[0] != name]
        assert long_signal.check_coarse_grid(x) == [f"no call of upsamplers.{name} seen"]
    finally:
        long_signal.captured[:] = saved


def test_long_signal_check_rejects_another_input(long_signal):
    assert long_signal.check_coarse_grid(-_x(long_signal)) != []


def _rewrite_counts(src: Path, dst: Path, change) -> Path:
    with open(src, newline="") as fh:
        counts = [int(row["count"]) for row in csv.DictReader(fh)]
    change(counts)
    dst.write_text("position,count\n" + "".join(f"{p},{c}\n" for p, c in enumerate(counts)))
    return dst


def test_long_signal_check_rejects_wrong_counts(long_signal, tmp_path):
    src = long_signal.contribution_dir / "contribution_counts.csv"
    assert long_signal.check_counts(src) == []
    counts = np.loadtxt(src, delimiter=",", skiprows=1, dtype=int)[:, 1]
    assert len(set(counts.tolist())) > 1  # the stride does not divide the kernel size

    def swap(c):  # keeps the sum, breaks the per-phase count
        j = next(j for j in range(1, len(c)) if c[j] != c[0])
        c[0], c[j] = c[j], c[0]

    def extra(c):
        c[5] += 1

    swapped = long_signal.check_counts(_rewrite_counts(src, tmp_path / "a.csv", swap))
    assert len(swapped) == 1
    assert len(long_signal.check_counts(_rewrite_counts(src, tmp_path / "b.csv", extra))) == 2


# ---------------------------------------------------------------------------
# tracer


def _namespace_state():
    return {(ns.__name__, attr): value for ns in tracer.upspec_namespaces()
            for attr, value in vars(ns).items()}


def test_tracer_wraps_every_namespace_and_restores_every_function():
    before = _namespace_state()
    originals = {id(fn): fn for ns in tracer.upspec_namespaces()[1:]
                 for fn in tracer.public_functions(ns).values()}
    assert originals
    with tracer.Tracer():
        during = _namespace_state()
        for key, value in before.items():
            if id(value) in originals:
                assert during[key] is not value, key
                assert during[key].__wrapped__ is value, key
    assert ("upspec.cli", "fit_closed_form") in before
    assert _namespace_state() == before
    assert all(_namespace_state()[key] is value for key, value in before.items())


def test_tracer_restores_after_an_exception():
    before = _namespace_state()
    with pytest.raises(ValueError):
        with tracer.Tracer():
            upsamplers.bed_of_nails(np.ones(3), 1)
    assert all(_namespace_state()[key] is value for key, value in before.items())


def test_tracer_reports_a_missing_function_as_zero(monkeypatch):
    import upspec

    monkeypatch.delattr(kernel_fit, "build_basis")
    monkeypatch.delattr(upspec, "build_basis")
    with tracer.Tracer() as t:
        t.reset()
        upsamplers.linear(np.ones(4), 2)
        figures = t.job_figures(1.0, 0, 0)
    assert [name for name, _, _ in tracer.PER_LAYER] == list(figures)
    assert figures["kernel_fit.dense_mb"] == 0
    assert figures["kernel_fit.fits"] == 0
    assert figures["upsamplers.out_samples"] == 8
    assert figures["upsamplers.ns_per_tap_sample"] == 0


def _traced_job(workload, i):
    with tracer.Tracer() as t:
        workload.prepare()
        t.reset()
        start = perf_counter()
        workload.run(i)
        return t.job_figures(perf_counter() - start, 0, 0)


def test_traced_counts_repeat_exactly_and_self_times_fit_in_the_job(paper):
    first, second = _traced_job(paper, 1), _traced_job(paper, 2)
    counts = [name for name, unit, _ in tracer.PER_LAYER if unit in ("count", "bytes", "MB")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["kernel_fit.fits"] == 4  # each fitted kernel of compare is fitted twice
    self_s = sum(first[name] for name, _, _ in tracer.PER_LAYER
                 if name.endswith(".self_s"))
    assert 0 < self_s <= first["traced.job_s"]


# ---------------------------------------------------------------------------
# the result line


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in _bench_json()["per_layer"]]
    assert declared == list(tracer.PER_LAYER)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, key):
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper-compare",
                          "--seed", "2", "--seconds", "0.1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper-compare",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
