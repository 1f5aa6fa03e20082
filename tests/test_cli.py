import csv
import io
import json
import platform
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (assert_workers_idle, enumerate_contributions, handoff_spy, in_time,
                     literal_bar_strip, literal_csv_cell, literal_csv_text, literal_position_rows,
                     literal_quantize, literal_strip_file, threads_besides_workers)
from upspec import __version__, cli, kernel_fit, netpbm, upsamplers
from upspec.alias_analysis import alias_energy, contribution_map, psnr
from upspec.cli import OPERATORS, main
from upspec.signal_core import NonRealResultError, center_shift, dft, log_magnitude
from upspec.netpbm import read_netpbm, write_netpbm


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestCompare:
    def test_rows_sorted_by_alias_ratio(self, tmp_path):
        code = main(["compare", "--out-dir", str(tmp_path), "--seed", "5",
                     "--ops", "bed_of_nails,linear,fourier_pad"])
        assert code == 0
        header, rows = read_csv(tmp_path / "alias_metrics.csv")
        names = [row[header.index("operator")] for row in rows]
        assert names == ["fourier_pad", "linear", "bed_of_nails"]
        ratios = [float(row[header.index("alias_ratio")]) for row in rows]
        assert ratios == sorted(ratios)

    def test_all_operators_produce_rows_and_spectra(self, tmp_path):
        code = main(["compare", "--out-dir", str(tmp_path), "--seed", "5"])
        assert code == 0
        _, rows = read_csv(tmp_path / "alias_metrics.csv")
        assert len(rows) == 7
        for name in ("bed_of_nails", "fourier_pad", "lctc"):
            assert (tmp_path / f"spectrum_{name}.pgm").exists()

    def test_dc_input_ratios(self, tmp_path):
        # smoothing kernels null the DC replica, so their ratios vanish;
        # plain zero insertion keeps it (replica identity), giving 1/2
        code = main(["compare", "--out-dir", str(tmp_path),
                     "--signal", "cosine", "--frequency", "0", "--seed", "2",
                     "--ops", "bed_of_nails,nearest,linear,fourier_pad"])
        assert code == 0
        header, rows = read_csv(tmp_path / "alias_metrics.csv")
        ratios = {row[header.index("operator")]: float(row[header.index("alias_ratio")])
                  for row in rows}
        for name in ("nearest", "linear", "fourier_pad"):
            assert ratios[name] <= 1e-12
        assert ratios["bed_of_nails"] == pytest.approx(0.5, abs=1e-12)

    def test_summary_json_has_config_hash(self, tmp_path):
        main(["compare", "--out-dir", str(tmp_path), "--seed", "1",
              "--ops", "linear"])
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert len(payload["config_hash"]) == 12
        assert payload["metrics"][0]["operator"] == "linear"


    @pytest.mark.parametrize("ops, order", [
        ("all", ["transposed_conv", "lctc"]),
        ("lctc,transposed_conv,linear", ["lctc", "transposed_conv"]),
    ])
    def test_round_off_ties_keep_ops_order(self, tmp_path, ops, order):
        # the two ratios are exactly equal (the LCTC kernel folds back to
        # the large-only one), and Python's sort is stable, so the raw-ratio
        # sort keeps the --ops order
        code = main(["compare", "--out-dir", str(tmp_path), "--seed", "3", "--n", "128",
                     "--kernel-size", "31", "--boundary", "zero-pad", "--ops", ops])
        assert code == 0
        header, rows = read_csv(tmp_path / "alias_metrics.csv")
        ratios = [(row[header.index("operator")], row[header.index("alias_ratio")])
                  for row in rows]
        assert [pair for pair in ratios if pair[0] in order] == [
            (name, "0.00353399364315") for name in order]

    @pytest.mark.parametrize("boundary", ["periodic", "zero-pad"])
    def test_lctc_row_equals_transposed_conv_row(self, tmp_path, boundary):
        # the minimum-norm split h/2 + h/2 folds back to the large-only taps h
        code = main(["compare", "--out-dir", str(tmp_path), "--seed", "1", "--n", "128",
                     "--kernel-size", "31", "--parallel-small", "3", "--boundary", boundary,
                     "--ops", "transposed_conv,lctc", "--format", "json"])
        assert code == 0
        rows = {row.pop("operator"): row
                for row in json.loads((tmp_path / "summary.json").read_text())["metrics"]}
        assert rows["lctc"] == rows["transposed_conv"]

    def test_each_fitted_kernel_is_fitted_once(self, tmp_path, monkeypatch):
        calls = []
        original = cli.fit_closed_form
        monkeypatch.setattr(cli, "fit_closed_form", lambda p: calls.append(p) or original(p))
        code = main(["compare", "--out-dir", str(tmp_path), "--seed", "4", "--n", "32",
                     "--ops", "transposed_conv,lctc,linear"])
        assert code == 0
        assert [p.parallel_small for p in calls] == [None, 3]


class TestAmplitude:
    @pytest.mark.parametrize("amplitude, kind", [
        pytest.param(a, kind, id=a if kind == "cosine" else f"{a}-{kind}")
        for kind in ("cosine", "noise", "step", "cosine-mix")
        for a in ("1e-300", "1e-170", "1e160", "1e200", "1e300")])
    def test_ratio_and_psnr_rows_ignore_amplitude(self, tmp_path, amplitude, kind):
        # --amplitude scales every input kind, and with it the extra
        # pixel_shuffle channels, so no row moves
        rows = {}
        for a in ("1", amplitude):
            main(["compare", "--out-dir", str(tmp_path / a), "--seed", "1", "--signal",
                  kind, "--frequency", "3", "--n", "16", "--amplitude", a])
            header, table = read_csv(tmp_path / a / "alias_metrics.csv")
            columns = [header.index(c) for c in ("alias_ratio", "psnr_vs_ideal_db")]
            rows[a] = {row[0]: [row[i] for i in columns] for row in table}
        # fourier_pad is ideal: its alias ratio is round-off
        del rows["1"]["fourier_pad"], rows[amplitude]["fourier_pad"]
        assert rows[amplitude] == rows["1"]
        assert rows["1"]["bed_of_nails"][0] == "0.5"


class TestAnalyze:
    def test_single_operator_row(self, tmp_path):
        code = main(["analyze", "--out-dir", str(tmp_path), "--op", "linear",
                     "--signal", "cosine", "--frequency", "3", "--n", "32"])
        assert code == 0
        header, rows = read_csv(tmp_path / "alias_metrics.csv")
        assert len(rows) == 1
        assert rows[0][header.index("operator")] == "linear"
        assert (tmp_path / "spectrum_linear.pgm").exists()


class TestOperatorRows:
    @pytest.mark.parametrize("argv, rows", [(["compare", "--ops", "all"], 7),
                                            (["analyze", "--op", "lctc"], 1)])
    def test_one_transform_of_y_per_row(self, tmp_path, monkeypatch, argv, rows):
        # bands, replica deviation and spectrum strip all read one DFT of y;
        # rows are transformed in stacks, so transformed rows are counted
        n, r = 64, 2
        transformed = []
        original = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda a, *rest, **kw: transformed.append(
                                int(np.prod(np.shape(a)[:-1])) if np.shape(a)[-1] == r * n
                                else 0) or original(a, *rest, **kw))
        assert main(argv + ["--out-dir", str(tmp_path), "--seed", "1", "--n", str(n)]) == 0
        assert sum(transformed) == rows

    @pytest.mark.parametrize("n, ops, transforms", [
        (64, "all", 3),
        (16384, "bed_of_nails,nearest,linear,pixel_shuffle,fourier_pad", 2),
    ])
    def test_one_transform_of_x_per_run(self, tmp_path, monkeypatch, n, ops, transforms):
        # the replica deviations of all rows share one DFT of x, and the
        # fourier_pad row is the reference, so x is transformed once for the
        # rows and once for the reference (at 64 samples the two kernel fits
        # add one, for the ideal impulse response they share; its cache is
        # cleared so the count does not depend on what ran before)
        kernel_fit._ideal_response.cache_clear()
        lengths = []
        original = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda a, *rest, **kw: lengths.append(np.shape(a)[-1])
                            or original(a, *rest, **kw))
        assert main(["compare", "--ops", ops, "--out-dir", str(tmp_path), "--seed", "1",
                     "--n", str(n)]) == 0
        assert lengths.count(n) == transforms

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_equal_their_one_row_calls(self, data, tmp_path_factory):
        # every row of a stacked block is what alias_energy and psnr give for
        # that operator output alone, and so is its spectrum strip; lengths
        # reach past ROW_BLOCK_SAMPLES, and at half and a third of it blocks
        # of 2 and 3 rows split the operator list
        r = data.draw(st.sampled_from([2, 3]), label="r")
        limit = cli.ROW_BLOCK_SAMPLES // r
        n = data.draw(st.integers(2, 80) | st.sampled_from(
            [limit // 3, limit // 2, limit, limit + 1]), label="n")
        ops = data.draw(st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=7, unique=True),
                        label="ops")
        command = ["compare", "--ops", ",".join(ops)]
        if len(ops) == 1 and data.draw(st.booleans(), label="analyze"):
            command = ["analyze", "--op", ops[0]]
        argv = ["--seed", str(data.draw(st.integers(0, 99), label="seed")), "--n", str(n),
                "--factor", str(r),
                "--boundary", data.draw(st.sampled_from(["periodic", "zero-pad"]), label="b"),
                "--signal", data.draw(st.sampled_from(["noise", "cosine", "step"]), label="kind"),
                "--frequency", str(data.draw(st.integers(0, n // 2), label="frequency")),
                "--amplitude", repr(10.0 ** data.draw(st.floats(-300, 300), label="log10 a"))]
        out = tmp_path_factory.mktemp("rows")
        assert main(command + ["--out-dir", str(out / "cli")] + argv) == 0

        args = cli.build_parser().parse_args(command + ["--out-dir", "-"] + argv)
        x = cli.build_signal(args)
        reference, _ = cli.apply_operator("fourier_pad", x, args)
        peak = float(np.ptp(reference)) or 1.0
        rows = []
        for op in ops:
            y, kernel = cli.apply_operator(op, x, args)
            report = alias_energy(y, r, reference=x)
            rows.append({"operator": op, "kernel_size": None if kernel is None else kernel.size,
                         **{field: getattr(report, field) for field in cli.REPORT_FIELDS},
                         "contribution_variance": (None if kernel is None
                                                   else contribution_map(kernel, y.size).variance),
                         "psnr_vs_ideal_db": psnr(y[np.newaxis], reference[np.newaxis], peak)})
            assert (out / "cli" / f"spectrum_{op}.pgm").read_bytes() == \
                literal_strip_file(log_magnitude(report.magnitude), height=netpbm.BAR_HEIGHT)
        rows.sort(key=lambda row: row["alias_ratio"])
        cli.write_csv(out / "rows.csv", cli.COMPARE_CSV_HEADER,
                      [[row[k] for row in rows] for k in cli.COMPARE_CSV_HEADER])
        assert (out / "cli" / "alias_metrics.csv").read_bytes() == (out / "rows.csv").read_bytes()
        # the JSON summary carries every float in full
        metrics = json.loads((out / "cli" / "summary.json").read_text())["metrics"]
        assert (metrics if command[0] == "compare" else [metrics]) == cli._sanitize(rows)

    @pytest.mark.parametrize("boundary", ["periodic", "zero-pad"])
    @pytest.mark.parametrize("op", OPERATORS)
    def test_analyze_equals_compare_of_one_operator(self, tmp_path, op, boundary):
        base = ["--seed", "2", "--n", "48", "--boundary", boundary, "--parallel-small", "3"]
        assert main(["analyze", "--op", op, "--out-dir", str(tmp_path / "a")] + base) == 0
        assert main(["compare", "--ops", op, "--out-dir", str(tmp_path / "c")] + base) == 0
        analyzed = json.loads((tmp_path / "a" / "summary.json").read_text())["metrics"]
        compared = json.loads((tmp_path / "c" / "summary.json").read_text())["metrics"]
        assert [analyzed] == compared
        for name in ("alias_metrics.csv", f"spectrum_{op}.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_spectrum_strip_equals_centered_dft_rendering(self, tmp_path):
        argv = ["--seed", "3", "--n", "40", "--factor", "3", "--boundary", "zero-pad"]
        assert main(["compare", "--out-dir", str(tmp_path / "out")] + argv) == 0
        args = cli.build_parser().parse_args(["compare", "--out-dir", "-"] + argv)
        x = cli.build_signal(args)
        for op in OPERATORS:
            y, _ = cli.apply_operator(op, x, args)
            assert (tmp_path / "out" / f"spectrum_{op}.pgm").read_bytes() == \
                literal_strip_file(log_magnitude(center_shift(dft(y))), height=netpbm.BAR_HEIGHT)


FIVE_UNFITTED = "bed_of_nails,nearest,linear,pixel_shuffle,fourier_pad"


class TestRowWorkers:
    """Row blocks are jobs of ``upsamplers._in_stripes``: in two stripes, one
    of them handed to a worker thread, once a row holds
    _ROW_THREAD_MIN_SAMPLES samples and there are two blocks, with the same
    bytes on any worker count."""

    @pytest.mark.parametrize("argv, handoffs", [
        # the paper-compare and long-signal benchmark shapes
        (["compare", "--n", "128", "--kernel-size", "31", "--parallel-small", "3"], 0),
        (["compare", "--n", "16384", "--ops", FIVE_UNFITTED], 1),
        # one side of the size rule each: r*N = 4,095 and 4,096, two blocks
        (["compare", "--n", "1365", "--factor", "3"], 0),
        (["compare", "--n", "2048"], 1),
        # above the size rule, one block: a single row, or four rows stacked
        (["analyze", "--n", "16384", "--op", "pixel_shuffle"], 0),
        (["compare", "--n", "16384", "--ops", "linear"], 0),
        (["compare", "--n", "2048", "--ops", "bed_of_nails,nearest,linear,fourier_pad"], 0),
    ])
    def test_stripes_handed_to_a_worker(self, tmp_path, argv, handoffs):
        before = threads_besides_workers()
        with pytest.MonkeyPatch.context() as mp:
            handed = handoff_spy(mp)
            assert main([*argv, "--out-dir", str(tmp_path), "--seed", "1"]) == 0
        assert len(handed) == handoffs
        assert threads_besides_workers() == before
        assert_workers_idle()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_across_worker_counts(self, data, tmp_path_factory):
        # the size rule is lifted, so every draw of two or more blocks runs
        # them on workers, more of them than CPUs and switching often;
        # lengths split all seven rows from 6 + 1 blocks on
        r = data.draw(st.sampled_from([2, 3]), label="r")
        limit = cli.ROW_BLOCK_SAMPLES // r
        n = data.draw(st.integers(2, 64) | st.sampled_from(
            [limit // 7 + 1, limit // 4, limit // 3, limit // 2 + 1, limit + 1]), label="n")
        ops = data.draw(st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=7, unique=True),
                        label="ops")
        command = ["compare", "--ops", ",".join(ops)]
        if len(ops) == 1 and data.draw(st.booleans(), label="analyze"):
            command = ["analyze", "--op", ops[0]]
        argv = command + [
            "--seed", str(data.draw(st.integers(0, 99), label="seed")), "--n", str(n),
            "--factor", str(r),
            "--boundary", data.draw(st.sampled_from(["periodic", "zero-pad"]), label="b"),
            "--kernel-size", str(data.draw(st.sampled_from([3, 7, 31]), label="k")),
            "--format", data.draw(st.sampled_from(["csv", "csv,pgm", "csv,json,pgm"]), label="f")]
        out, interval = tmp_path_factory.mktemp("workers"), sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_ROW_THREAD_MIN_SAMPLES", 0)
            try:
                sys.setswitchinterval(1e-5)
                for workers in (1, 2, 3):
                    mp.setattr(upsamplers, "_worker_count", lambda w=workers: w)
                    assert main(argv + ["--out-dir", str(out / str(workers))]) == 0
            finally:
                sys.setswitchinterval(interval)
        files = sorted(path.name for path in (out / "1").iterdir())
        for workers in ("2", "3"):
            assert sorted(path.name for path in (out / workers).iterdir()) == files
            for name in files:
                if name.endswith(".json"):  # carries a timestamp; its rows must agree
                    assert (json.loads((out / workers / name).read_text())["metrics"] ==
                            json.loads((out / "1" / name).read_text())["metrics"])
                else:
                    assert (out / workers / name).read_bytes() == (out / "1" / name).read_bytes()

    def test_nested_stripes_use_one_worker_thread(self, tmp_path):
        # both row blocks place by FFT on 2^18 output samples, each of which
        # would run its phases in two stripes; inside a block they run on its
        # thread, so the caller and the first worker run every transform, and
        # the bytes are those of one worker
        argv = ["compare", "--seed", "1", "--n", "131072", "--kernel-size", "161",
                "--ops", "transposed_conv,lctc", "--format", "csv,pgm"]
        irfft, ran_on, caller = np.fft.irfft, set(), threading.current_thread()
        before = threads_besides_workers()

        def spy(*args, **kwargs):
            ran_on.add(threading.current_thread())
            return irfft(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "irfft", spy)
            for workers in (2, 1):
                ran_on.clear()
                mp.setattr(upsamplers, "_worker_count", lambda n=workers: n)
                assert main([*argv, "--out-dir", str(tmp_path / str(workers))]) == 0
                assert ran_on == ({caller, upsamplers._WORKERS[0].thread} if workers == 2
                                  else {caller})
        assert threads_besides_workers() == before
        assert_workers_idle()
        for name in ("alias_metrics.csv", "spectrum_transposed_conv.pgm", "spectrum_lctc.pgm"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    @pytest.mark.parametrize("first, code", [(NonRealResultError, 3), (cli.UsageError, 1)])
    def test_lowest_failing_block_sets_the_exit_code(self, tmp_path, monkeypatch, capsys,
                                                     first, code):
        # each operator is a block of its own at 2^15 samples a row; the first
        # block fails late on the worker, the second at once on the caller,
        # after the reference
        second = cli.UsageError if first is NonRealResultError else NonRealResultError
        apply_operator = cli.apply_operator

        def failing(name, x, args):
            if name == "linear":
                time.sleep(0.01)
                raise first("first block")
            if name == "nearest":
                raise second("second block")
            return apply_operator(name, x, args)

        monkeypatch.setattr(cli, "apply_operator", failing)
        monkeypatch.setattr(upsamplers, "_worker_count", lambda: 2)
        for _ in range(3):
            assert main(["compare", "--out-dir", str(tmp_path), "--seed", "1", "--n", "16384",
                         "--ops", "linear,nearest,fourier_pad"]) == code
            assert "first block" in capsys.readouterr().err

    @staticmethod
    def _main_in_time(argv, workers) -> int:
        """main(argv) with the size rule lifted on ``workers`` workers, run on
        a thread joined with a timeout, so a stripe that hangs fails the test."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_ROW_THREAD_MIN_SAMPLES", 0)
            mp.setattr(upsamplers, "_worker_count", lambda: workers)
            return in_time(lambda: main(argv))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_reference_stops_every_block(self, tmp_path, monkeypatch, capsys, workers):
        # the reference is job 0, on the caller; it fails after the worker's
        # blocks have started, which then stop where they read it, unwritten
        def failing(x, r):
            time.sleep(0.01)
            raise NonRealResultError("no reference")

        monkeypatch.setattr(cli, "fourier_pad_upsample", failing)
        out = tmp_path / "out"
        assert self._main_in_time(["compare", "--out-dir", str(out), "--seed", "1", "--n",
                                   "16384", "--ops", FIVE_UNFITTED], workers) == 3
        assert capsys.readouterr().err.splitlines() == ["error: numeric: no reference"]
        assert not list(out.glob("*.pgm"))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_block_beside_the_reference_sets_the_exit_code(self, tmp_path, monkeypatch,
                                                                   capsys, workers):
        apply_operator = cli.apply_operator

        def failing(name, x, args):
            if name == "nearest":
                raise cli.DataError("nearest block")
            return apply_operator(name, x, args)

        monkeypatch.setattr(cli, "apply_operator", failing)
        assert self._main_in_time(["compare", "--out-dir", str(tmp_path), "--seed", "1", "--n",
                                   "16384", "--ops", FIVE_UNFITTED], workers) == 2
        assert capsys.readouterr().err.splitlines() == ["error: io: nearest block"]


class TestContribution:
    def test_counts_csv(self, tmp_path):
        code = main(["contribution", "--out-dir", str(tmp_path),
                     "--kernel-size", "3", "--stride", "2", "--out-len", "8"])
        assert code == 0
        _, rows = read_csv(tmp_path / "contribution_counts.csv")
        counts = [int(row[1]) for row in rows]
        assert counts == [1, 2, 1, 2, 1, 2, 1, 2]
        payload = json.loads((tmp_path / "contribution.json").read_text())
        assert payload["uniform"] is False
        assert payload["period"] == 2

    def test_long_counts_csv_equals_csv_module_rendering(self, tmp_path):
        k, s, out_len = 63, 4, 32768
        assert main(["contribution", "--out-dir", str(tmp_path), "--format", "csv",
                     "--kernel-size", str(k), "--stride", str(s),
                     "--out-len", str(out_len)]) == 0
        # position p gets one tap per j in [0, K) with j = (p + K//2) mod s
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["position", "count"])
        writer.writerows((p, -(-(k - (p + k // 2) % s) // s)) for p in range(out_len))
        assert (tmp_path / "contribution_counts.csv").read_text() == expected.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 70), s=st.integers(1, 9), m=st.integers(1, 64))
    @example(k=2, s=5, m=4)  # phases with no taps
    @example(k=7, s=1, m=8)  # period 1
    @example(k=5, s=3, m=1)  # one period: nothing cycles
    @example(k=100, s=11, m=100)  # counts 9 and 10: suffixes of two widths
    @example(k=1, s=1, m=10)  # positions 0 - 9 end where a second digit would start
    @example(k=63, s=4, m=25_001)  # positions past 99,999: five and six digits
    def test_artifacts_equal_literal_rendering(self, k, s, m, tmp_path_factory):
        out, out_len = tmp_path_factory.mktemp("contribution"), s * m
        assert main(["contribution", "--out-dir", str(out), "--format", "csv,pgm",
                     "--kernel-size", str(k), "--stride", str(s),
                     "--out-len", str(out_len)]) == 0
        counts = enumerate_contributions(k, s, out_len).tolist()
        assert (out / "contribution_counts.csv").read_bytes() == literal_csv_text(
            ["position", "count"], list(zip(range(out_len), counts))).encode()
        raster = literal_quantize(literal_bar_strip(counts, netpbm.BAR_HEIGHT))
        assert (out / "contribution_counts.pgm").read_bytes() == \
            b"P5 %d %d 255\n" % (out_len, netpbm.BAR_HEIGHT) + raster.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), s=st.integers(1, 12), j=st.integers(0, 6),
           offset=st.sampled_from([-1, 0, 1]), up=st.booleans())
    def test_position_rows_equal_the_template(self, data, s, j, offset, up):
        # out_len = s*m at or next to 10^j - 1, 10^j or 10^j + 1, where the
        # positions gain a digit; counts drawn apart give suffixes of many widths
        target = 10 ** j + offset
        m = max(1, -(-target // s) if up else target // s)
        counts = data.draw(st.lists(st.integers(0, 10 ** 7), min_size=s, max_size=s))
        suffixes = [b",%d\n" % count for count in counts]
        assert cli._position_rows(s * m, suffixes).tobytes() == \
            literal_position_rows(s * m, suffixes)


class TestFitAndSweep:
    def test_fit_writes_weights_and_profile(self, tmp_path):
        code = main(["fit", "--out-dir", str(tmp_path), "--n", "16",
                     "--kernel-size", "7"])
        assert code == 0
        _, rows = read_csv(tmp_path / "kernel_weights.csv")
        assert len(rows) == 7
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["edge_profile"]["decays_toward_edge"] is True
        assert (tmp_path / "kernel.pgm").exists()

    def test_fit_json_reports_convergence(self, tmp_path):
        # large-only operator fits have G = n I, so one exact step converges;
        # the parallel branch shares offsets, and one step is not enough
        for method, extra, converged in [("closed", [], True),
                                         ("gradient", [], True),
                                         ("gradient", ["--max-iter", "1"], True),
                                         ("gradient", ["--parallel-small", "3",
                                                       "--max-iter", "1"], False)]:
            out = tmp_path / "-".join([method, *extra])
            code = main(["fit", "--out-dir", str(out), "--n", "16", "--kernel-size", "9",
                         "--method", method, *extra])
            assert code == 0
            payload = json.loads((out / "fit.json").read_text())
            assert payload["converged"] is converged
            if method == "gradient" and "--parallel-small" not in extra:
                assert payload["iterations"] == 1

    def test_fit_with_parallel_branch(self, tmp_path):
        code = main(["fit", "--out-dir", str(tmp_path), "--n", "16",
                     "--kernel-size", "7", "--parallel-small", "3"])
        assert code == 0
        _, rows = read_csv(tmp_path / "kernel_weights.csv")
        assert len(rows) == 10
        assert {row[0] for row in rows} == {"large", "small"}

    def test_gradient_fit_with_parallel_branch(self, tmp_path):
        code = main(["fit", "--out-dir", str(tmp_path / "gradient"), "--n", "16",
                     "--kernel-size", "7", "--parallel-small", "3", "--method", "gradient"])
        assert code == 0
        main(["fit", "--out-dir", str(tmp_path / "closed"), "--n", "16",
              "--kernel-size", "7", "--parallel-small", "3"])
        gradient = json.loads((tmp_path / "gradient" / "fit.json").read_text())
        closed = json.loads((tmp_path / "closed" / "fit.json").read_text())
        assert gradient["converged"] is True
        assert abs(gradient["residual"] - closed["residual"]) <= 1e-6

    @pytest.mark.parametrize("method", ["closed", "gradient"])
    def test_parallel_branch_as_large_as_the_kernel(self, tmp_path, method):
        code = main(["fit", "--out-dir", str(tmp_path), "--n", "16", "--kernel-size", "3",
                     "--parallel-small", "3", "--method", method])
        assert code == 0
        _, rows = read_csv(tmp_path / "kernel_weights.csv")
        assert len(rows) == 6

    def test_parallel_fit_reports_the_placed_kernel(self, tmp_path):
        main(["fit", "--out-dir", str(tmp_path / "lctc"), "--n", "16", "--kernel-size", "7",
              "--parallel-small", "3"])
        main(["fit", "--out-dir", str(tmp_path / "large"), "--n", "16", "--kernel-size", "7"])
        lctc = json.loads((tmp_path / "lctc" / "fit.json").read_text())["edge_profile"]
        large = json.loads((tmp_path / "large" / "fit.json").read_text())["edge_profile"]
        assert lctc["center_mass"] == pytest.approx(large["center_mass"], abs=1e-12)
        assert lctc["center_mass"] == pytest.approx(0.817, abs=1e-3)
        assert (tmp_path / "lctc" / "kernel.pgm").read_bytes() == \
            (tmp_path / "large" / "kernel.pgm").read_bytes()

    def test_sweep_residuals_non_increasing(self, tmp_path):
        code = main(["sweep", "--out-dir", str(tmp_path), "--n", "16",
                     "--sizes", "2,3,7,11,15,32"])
        assert code == 0
        _, rows = read_csv(tmp_path / "residuals.csv")
        residuals = [float(row[1]) for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-8

    def test_gradient_method_agrees(self, tmp_path):
        main(["fit", "--out-dir", str(tmp_path / "closed"), "--n", "8",
              "--kernel-size", "3"])
        main(["fit", "--out-dir", str(tmp_path / "gradient"), "--n", "8",
              "--kernel-size", "3", "--method", "gradient"])
        closed = json.loads((tmp_path / "closed" / "fit.json").read_text())
        gradient = json.loads((tmp_path / "gradient" / "fit.json").read_text())
        assert abs(closed["residual"] - gradient["residual"]) <= 1e-6


class TestErrorspec:
    def test_identical_inputs_hit_floor(self, tmp_path):
        code = main(["errorspec", "--out-dir", str(tmp_path), "--seed", "4",
                     "--seed-b", "4", "--height", "16", "--width", "16"])
        assert code == 0
        payload = json.loads((tmp_path / "error_spectrum.json").read_text())
        assert payload["magnitude_max"] == pytest.approx(0.0, abs=1e-9)
        img = read_netpbm(tmp_path / "error_spectrum.pgm")
        assert np.all(img == 0)

    def test_loads_netpbm_files(self, tmp_path):
        rng = np.random.default_rng(6)
        pred_path = tmp_path / "pred.pgm"
        gt_path = tmp_path / "gt.pgm"
        write_netpbm(rng.normal(size=(8, 8)), pred_path)
        write_netpbm(rng.normal(size=(8, 8)), gt_path)
        code = main(["errorspec", "--out-dir", str(tmp_path / "out"),
                     "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 0
        assert (tmp_path / "out" / "radial_profile.csv").exists()

    def test_error_spectrum_computed_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        paths = [tmp_path / "pred.pgm", tmp_path / "gt.pgm"]
        for path in paths:
            write_netpbm(rng.normal(size=(12, 10)), path)
        calls = []
        original = cli.error_spectrum
        monkeypatch.setattr(cli, "error_spectrum",
                            lambda *a, **kw: calls.append(kw) or original(*a, **kw))
        code = main(["errorspec", "--out-dir", str(tmp_path / "out"),
                     "--pred", str(paths[0]), "--gt", str(paths[1])])
        assert code == 0
        assert len(calls) == 1
        # the log map is the library's, byte for byte
        pred, gt = (read_netpbm(path).astype(float) for path in paths)
        write_netpbm(original(pred, gt), tmp_path / "expected.pgm")
        assert ((tmp_path / "out" / "error_spectrum.pgm").read_bytes()
                == (tmp_path / "expected.pgm").read_bytes())

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        pred_path = tmp_path / "pred.pgm"
        gt_path = tmp_path / "gt.pgm"
        write_netpbm(np.zeros((4, 4)), pred_path)
        write_netpbm(np.zeros((4, 5)), gt_path)
        code = main(["errorspec", "--out-dir", str(tmp_path / "out"),
                     "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")

    @pytest.mark.parametrize("bins", ["0", "-3"])
    @pytest.mark.parametrize("format", ["csv,json,pgm", "csv", "json,pgm,ppm"])
    def test_bad_bins_exits_1_before_writing(self, tmp_path, capsys, bins, format):
        out = tmp_path / "out"
        code = main(["errorspec", "--out-dir", str(out), "--seed", "1", "--bins", bins,
                     "--format", format])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: usage: --bins")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("content", [b"P5 4 4 255\n" + bytes(10), b"P7 4 4 255\n",
                                         b"P5 4 4 65535\n" + bytes(32), b"P5 4 x 255\n",
                                         b""],
                             ids=["truncated", "magic-P7", "maxval-65535", "non-integer", "empty"])
    @pytest.mark.parametrize("flag", ["--pred", "--gt"])
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, content, flag):
        good, bad = tmp_path / "good.pgm", tmp_path / "bad.pgm"
        write_netpbm(np.zeros((4, 4)), good)
        bad.write_bytes(content)
        paths = {"--pred": str(good), "--gt": str(good), flag: str(bad)}
        code = main(["errorspec", "--out-dir", str(tmp_path / "out"),
                     "--pred", paths["--pred"], "--gt", paths["--gt"]])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: io: ")
        assert str(bad) in err[0]


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path, capsys):
        assert main(["analyze", "--out-dir", str(tmp_path), "--op", "warp"]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    @pytest.mark.parametrize("command, kind", [("compare", "sawtooth"), ("compare", "composite"),
                                               ("errorspec", "sawtooth"), ("errorspec", "noise")])
    def test_unknown_signal_is_1(self, tmp_path, capsys, command, kind):
        assert main([command, "--out-dir", str(tmp_path), "--seed", "1",
                     "--signal", kind]) == 1
        assert capsys.readouterr().err.startswith("error: usage: --signal")

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        assert main(["compare", "--out-dir", str(tmp_path), "--ops", "linear"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_repeated_operator_is_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        # two rows of one operator would also write one spectrum file twice
        built = []
        monkeypatch.setattr(cli, "build_signal", built.append)
        out = tmp_path / "out"
        assert main(["compare", "--out-dir", str(out), "--seed", "1",
                     "--ops", "linear,nearest,linear"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "'linear'" in err
        assert built == [] and list(out.iterdir()) == []

    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_contribution_kernel_size_below_one_is_1(self, tmp_path, capsys, size):
        assert main(["contribution", "--out-dir", str(tmp_path), "--kernel-size", size,
                     "--stride", "2"]) == 1
        assert capsys.readouterr().err == \
            f"error: usage: --kernel-size must be at least 1, got {size}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--stride", "0"], "--stride must be at least 1, got 0"),
        (["--stride", "-2"], "--stride must be at least 1, got -2"),
        (["--stride", "4", "--out-len", "0"],
         "--out-len must be a positive multiple of --stride 4, got 0"),
        (["--stride", "4", "--out-len", "-4"],
         "--out-len must be a positive multiple of --stride 4, got -4"),
        (["--stride", "4", "--out-len", "6"],
         "--out-len must be a positive multiple of --stride 4, got 6"),
    ])
    def test_contribution_bad_stride_or_out_len_is_1(self, tmp_path, capsys, argv, message):
        # the messages name the flags, not the library's parameters
        assert main(["contribution", "--out-dir", str(tmp_path), "--kernel-size", "3",
                     *argv]) == 1
        assert capsys.readouterr().err == f"error: usage: {message}\n"

    def test_allocation_failure_prints_one_line(self, tmp_path, capsys):
        # 2^48 counts of 8 bytes are past the 2^47-byte user address space,
        # so the allocation fails at once on any machine
        assert main(["contribution", "--out-dir", str(tmp_path), "--kernel-size", "3",
                     "--stride", "2", "--out-len", str(2 ** 48)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: usage: ")

    def test_bad_format_is_1(self, tmp_path):
        assert main(["analyze", "--out-dir", str(tmp_path), "--format", "bmp"]) == 1

    def test_unwritable_out_dir_is_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["contribution", "--out-dir", str(blocker / "sub"),
                     "--kernel-size", "2", "--stride", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")

    def test_divergent_fit_is_3(self, tmp_path, capsys):
        code = main(["fit", "--out-dir", str(tmp_path), "--n", "8",
                     "--kernel-size", "3", "--method", "gradient", "--lr", "10"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: numeric:")

    @pytest.mark.parametrize("lr, code, kind", [("nan", 1, "usage"), ("0", 1, "usage"),
                                                ("1e300", 3, "numeric"), ("inf", 3, "numeric")])
    def test_bad_learning_rate(self, tmp_path, capsys, lr, code, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--out-dir", str(tmp_path), "--kernel-size", "3",
                         "--method", "gradient", "--lr", lr]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}:") and err.count("\n") == 1
        assert "lr=" in err

    def test_large_amplitude_real_signal_is_accepted(self, tmp_path):
        code = main(["compare", "--out-dir", str(tmp_path), "--signal", "cosine",
                     "--amplitude", "1e8", "--n", "1000", "--factor", "3",
                     "--frequency", "7", "--ops", "fourier_pad"])
        assert code == 0

    def test_overflowing_transform_is_3(self, tmp_path, capsys):
        # without --seed too: the pixel_shuffle row, which needs one, comes
        # after the overflow
        for seed in (["--seed", "1"], []):
            code = main(["compare", "--out-dir", str(tmp_path), "--signal", "cosine",
                         "--frequency", "3", "--n", "16", "--amplitude", "1e308"] + seed)
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("error: numeric:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, start", [
        pytest.param(["--n", "16", "--ops", "linear"], 3, "error: numeric: inverse transform",
                     id="reference"),
        pytest.param(["--n", "4096"], 1, "error: usage: signal samples times --amplitude",
                     id="signal"),
    ])
    def test_overflowing_amplitude_prints_one_line(self, tmp_path, capsys, argv, code, start):
        assert main(["compare", "--out-dir", str(tmp_path), "--signal", "noise", "--seed", "1",
                     "--amplitude", "1e308", *argv]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(start)

    def test_non_real_result_is_3(self, tmp_path, capsys, monkeypatch):
        def non_real(x, r):
            raise NonRealResultError("imaginary residue")

        monkeypatch.setattr(cli, "fourier_pad_upsample", non_real)
        code = main(["compare", "--out-dir", str(tmp_path), "--signal", "cosine",
                     "--ops", "linear"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: numeric:")


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["compare", "--seed", "11", "--n", "32",
                "--ops", "bed_of_nails,linear,transposed_conv,fourier_pad",
                "--kernel-size", "5"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        for name in ["alias_metrics.csv", "spectrum_linear.pgm",
                     "spectrum_transposed_conv.pgm"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_config_hash_stable_across_runs(self, tmp_path):
        args = ["sweep", "--n", "8", "--sizes", "2,3"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "sweep.json").read_text())
        b = json.loads((tmp_path / "b" / "sweep.json").read_text())
        assert a["config_hash"] == b["config_hash"]
        assert a["residuals"] == b["residuals"]


class TestJsonVersions:
    @pytest.mark.parametrize("argv, name", [
        (["compare", "--seed", "1", "--ops", "linear,nearest"], "summary.json"),
        (["analyze", "--signal", "step"], "summary.json"),
        (["fit", "--kernel-size", "3"], "fit.json"),
        (["sweep", "--sizes", "3,5"], "sweep.json"),
        (["contribution", "--kernel-size", "3", "--stride", "2"], "contribution.json"),
        (["errorspec", "--seed", "1"], "error_spectrum.json"),
    ])
    def test_every_json_summary_names_the_versions(self, tmp_path, argv, name):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / name).read_text())["versions"] == {
            "upspec": __version__, "numpy": np.__version__, "python": platform.python_version()}


class TestParserReuse:
    RUNS = [
        ["compare", "--seed", "2", "--n", "32", "--cutoff", "5"],
        ["compare", "--seed", "2", "--n", "32"],
        ["fit", "--n", "16", "--kernel-size", "7", "--parallel-small", "3"],
        ["compare", "--seed", "2", "--n", "32", "--boundary", "mirror"],
        ["compare", "--seed", "2", "--n", "32"],
    ]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @staticmethod
    def _artifacts(out_dir):
        files = {}
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.suffix == ".json":
                payload = json.loads(data)
                del payload["generated_at"]
                data = payload
            files[path.relative_to(out_dir)] = data
        return files

    def test_runs_through_one_parser_equal_runs_through_fresh_ones(self, tmp_path,
                                                                   monkeypatch):
        # defaults, a usage error raised inside argparse and a change of
        # subcommand leave nothing behind in the one parser main keeps
        assert cli._parser() is cli._parser()
        shared = [main(argv + ["--out-dir", str(tmp_path / "shared" / str(i))])
                  for i, argv in enumerate(self.RUNS)]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [main(argv + ["--out-dir", str(tmp_path / "fresh" / str(i))])
                 for i, argv in enumerate(self.RUNS)]
        assert shared == fresh == [0, 0, 0, 1, 0]
        assert self._artifacts(tmp_path / "shared") == self._artifacts(tmp_path / "fresh")
        shared_run = [self._artifacts(tmp_path / "shared" / str(i)) for i in (0, 1, 4)]
        assert shared_run[1] == shared_run[2] != shared_run[0]


class TestCsvFormatting:
    @pytest.mark.parametrize("value, text", [
        (0, "0"), (-7, "-7"), (12345678901234567890, "12345678901234567890"),
        (1.5, "1.5"), (0.1, "0.1"), (1 / 3, "0.333333333333"), (2.0, "2"),
        (True, "true"), (False, "false"), (None, ""),
        (np.int64(-3), "-3"), (np.float64(0.1), "0.1"), (np.float64(1 / 3), "0.333333333333"),
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
        (np.float64("inf"), "inf"), (np.float64("nan"), "nan"),
        (-0.0, "-0"), (1e-320, "9.99988867183e-321"), (1e300, "1e+300"),
        (np.bool_(True), "true"), (np.bool_(False), "false"),
    ])
    def test_fmt_strings(self, value, text, tmp_path):
        # a column of one type goes through the row template, a mixed one
        # cell by cell; both spell the value as the oracle does
        assert literal_csv_cell(value) == text
        for column in ([value], [value, "x"]):
            cli.write_csv(tmp_path / "t.csv", ["v"], [column])
            assert (tmp_path / "t.csv").read_text().split("\n")[1] == text

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5), height=st.integers(0, 12))
    def test_write_csv_bytes_equal_value_by_value_oracle(self, data, width, height,
                                                         tmp_path_factory):
        kinds = [st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
                 st.floats(), st.floats(width=32).map(np.float32), st.none(), st.booleans(),
                 st.booleans().map(np.bool_), st.text(alphabet="ab%,-", max_size=4)]
        # each column of one type or of the mix, so that both the row
        # template and the cell-by-cell conversion are exercised
        drawn = [data.draw(st.sampled_from([st.one_of(kinds), *kinds])) for _ in range(width)]
        columns = [[data.draw(kind) for _ in range(height)] for kind in drawn]
        header = [f"c{i}" for i in range(width)]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        cli.write_csv(path, header, columns)
        assert path.read_bytes() == literal_csv_text(header, list(zip(*columns))).encode()

    def test_empty_columns_write_the_header_only(self, tmp_path):
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], [[], range(0)])
        assert (tmp_path / "t.csv").read_bytes() == literal_csv_text(["a", "b"], []).encode()

    def test_long_integer_file_equals_oracle(self, tmp_path):
        height = 32768
        counts = np.random.default_rng(8).integers(-5, 40, height).tolist()
        cli.write_csv(tmp_path / "t.csv", ["position", "count"], [range(height), counts])
        assert (tmp_path / "t.csv").read_bytes() == \
            literal_csv_text(["position", "count"], list(zip(range(height), counts))).encode()

    @pytest.mark.parametrize("positions", [range(0), range(7), range(-3, 40, 7), range(10, 0, -2),
                                           range(2**60, 2**60 + 50, 7)])
    def test_range_column_writes_the_bytes_of_its_list(self, tmp_path, positions):
        counts = [2 * p - 1 for p in positions]
        cli.write_csv(tmp_path / "range.csv", ["position", "count"], [positions, counts])
        cli.write_csv(tmp_path / "list.csv", ["position", "count"], [list(positions), counts])
        assert (tmp_path / "range.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    def test_columns_of_unequal_length_are_rejected(self, tmp_path):
        for columns in ([[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(ValueError):
                cli.write_csv(tmp_path / "t.csv", ["a", "b"], columns)

    @pytest.mark.parametrize("value", [float("nan"), np.float64("nan")])
    def test_sanitize_spells_nan_as_the_csv_cell_does(self, value):
        assert cli._sanitize({"v": [value]}) == {"v": ["nan"]}
        assert cli._sanitize([float("inf"), np.float64("-inf")]) == ["inf", "-inf"]

    def test_sanitize_spells_numpy_bools_as_json_bools(self):
        clean = cli._sanitize({"uniform": np.bool_(True), "flags": [np.bool_(False)]})
        assert json.dumps(clean, sort_keys=True) == '{"flags": [false], "uniform": true}'
