import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import literal_bar_strip
from upspec import cli
from upspec.cli import OPERATORS, bar_strip, main
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
        for name in ("fit_closed_form", "lctc_fit"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda p, f=original, n=name: calls.append(n) or f(p))
        code = main(["compare", "--out-dir", str(tmp_path), "--seed", "4", "--n", "32",
                     "--ops", "transposed_conv,lctc,linear"])
        assert code == 0
        assert sorted(calls) == ["fit_closed_form", "lctc_fit"]


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
        # bands, replica deviation and spectrum strip all read one DFT of y
        n, r = 64, 2
        lengths = []
        original = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda a, *rest, **kw: lengths.append(np.shape(a)[-1])
                            or original(a, *rest, **kw))
        assert main(argv + ["--out-dir", str(tmp_path), "--seed", "1", "--n", str(n)]) == 0
        assert lengths.count(r * n) == rows

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
            expected = tmp_path / f"{op}.pgm"
            write_netpbm(bar_strip(log_magnitude(center_shift(dft(y)))), expected)
            assert (tmp_path / "out" / f"spectrum_{op}.pgm").read_bytes() == \
                expected.read_bytes()


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


class TestBarStrip:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300) | st.integers(-1000, 1000),
                           min_size=1, max_size=40),
           height=st.integers(1, 64))
    def test_equals_literal_column_fill(self, values, height):
        mask = bar_strip(values, height)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, literal_bar_strip(values, height))

    def test_overflowing_range_fills_by_halves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = bar_strip([-1e308, 0.0, 1e308], height=4)
        np.testing.assert_array_equal(mask.sum(axis=0), [0, 2, 4])

    def test_half_steps_round_to_even(self):
        # scaled values 0, 1/4, 1/2, 3/4, 1 at height 2 fill 0, 0, 1, 2, 2 rows
        img = bar_strip([0, 1, 2, 3, 4], height=2)
        np.testing.assert_array_equal(img, [[0, 0, 0, 1, 1], [0, 0, 1, 1, 1]])


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
    def test_fmt_strings(self, value, text):
        assert cli._fmt(value) == text

    def test_sanitize_spells_numpy_bools_as_json_bools(self):
        clean = cli._sanitize({"uniform": np.bool_(True), "flags": [np.bool_(False)]})
        assert json.dumps(clean, sort_keys=True) == '{"flags": [false], "uniform": true}'
