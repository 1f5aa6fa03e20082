"""Record the golden manifest: the files each pinned CLI config writes.

Run from the repository root, on the tree whose bytes are to be pinned:

    PYTHONPATH=src python tests/golden/regenerate.py

Every config runs in process through ``upspec.cli.main`` into its own
directory under one temporary root; ``{root}`` in an argv names that root,
so a config can read what an earlier one wrote. For each file but the JSON
summaries the manifest keeps its size and sha256, and for a CSV its header
and row count. A JSON summary is hashed alone, without its timestamp and
versions, and without its config and config hash too when the argv names
``{root}`` (they hold the temporary path). The numpy version and the machine
are kept beside them: the sha256 values are pinned there only.
``tests/test_golden.py`` reruns the configs against the manifest; the diff
of this file after a rerun lists the files whose bytes moved.

``CONFIGS`` is the one list of pinned configs: pinning one more is one line
here. CI records the list twice, in two separate processes, and compares
the two manifests, so every file's bytes must also be the same across
processes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from upspec.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")

CONFIGS = [
    ("compare", "compare --seed 1 --n 64 --ops all"),
    ("fit", "fit --n 16 --kernel-size 7 --parallel-small 3 --method gradient"),
    ("sweep", "sweep --n 16 --sizes 3,7,40"),
    ("long", "compare --seed 1 --n 16384 "
             "--ops bed_of_nails,nearest,linear,pixel_shuffle,fourier_pad"),
    ("analyze", "analyze --seed 1 --n 64 --op lctc --boundary zero-pad"),
    ("errorspec-complex", "errorspec --signal composite --height 64 --width 48 --seed 3 "
                          "--mode complex"),
    ("errorspec-magnitude", "errorspec --signal composite --height 64 --width 48 --seed 3 "
                            "--mode magnitude"),
    ("checkerboard", "errorspec --signal checkerboard"),
    ("fft1d", "compare --seed 1 --n 4096 --kernel-size 127 --ops transposed_conv,lctc"),
    ("contribution", "contribution --kernel-size 63 --stride 4 --out-len 32768"),
    ("zeropad", "compare --seed 1 --n 128 --kernel-size 31 --parallel-small 3 "
                "--boundary zero-pad"),
    # a constant strip over many write blocks; multi-block P5/P6 with a
    # ragged last block
    ("contribution64", "contribution --kernel-size 64 --stride 4 --out-len 65536"),
    ("blocks", "errorspec --signal composite --height 301 --width 257 --seed 2 "
               "--format csv,json,pgm,ppm"),
    # 2^18 output samples by FFT placement (this name and "nested" recall a
    # stripe worker thread since removed)
    ("threaded", "compare --seed 1 --n 131072 --kernel-size 161 --ops transposed_conv"),
    ("fft1dzero", "compare --seed 1 --n 4096 --kernel-size 127 --ops transposed_conv,lctc "
                  "--boundary zero-pad"),
    # reads back the PPM pair written by the blocks config
    ("readback", "errorspec --pred {root}/blocks/pred.ppm --gt {root}/blocks/gt.ppm"),
    # four row blocks with the fitted rows; r = 3, zero-pad
    ("rowblocks", "compare --seed 1 --n 4096 --ops all"),
    ("rowblocks3", "compare --seed 1 --n 3000 --factor 3 --ops all --boundary zero-pad"),
    # contribution artifacts from one period: phases with no taps, period 1,
    # one period
    ("notaps", "contribution --kernel-size 2 --stride 5 --out-len 20"),
    ("period1", "contribution --kernel-size 7 --stride 1"),
    ("oneperiod", "contribution --kernel-size 5 --stride 3 --out-len 3"),
    # 2^18 samples an input: the error spectrum's row and column transforms
    ("errorspec512-complex", "errorspec --signal composite --height 512 --width 512 --seed 3 "
                             "--mode complex"),
    ("errorspec512-magnitude", "errorspec --signal composite --height 512 --width 512 "
                               "--seed 3 --mode magnitude"),
    # two row blocks, each an FFT placement of 2^18 output samples
    ("nested", "compare --seed 1 --n 131072 --kernel-size 161 --ops transposed_conv,lctc"),
    # strips written as uint8 rasters: a one-tap constant kernel, one residual,
    # uniform counts, and an odd n with no Nyquist bin
    ("fitconst", "fit --n 8 --kernel-size 1"),
    ("sweepone", "sweep --n 16 --sizes 16"),
    ("uniform", "contribution --kernel-size 4 --stride 2 --out-len 64"),
    ("oddn", "compare --seed 1 --n 33 --factor 3 --ops all"),
    # kernels longer than r*N with a small branch: tap offsets wrap
    ("fitwrap", "fit --n 8 --kernel-size 20 --parallel-small 3 --method gradient"),
    ("sweepwrap", "sweep --n 13 --sizes 1,2,3,7,26,27,40 --parallel-small 1"),
    ("sweepwrapgd", "sweep --n 12 --sizes 3,7,25,30 --parallel-small 3 --method gradient"),
    ("comparewrap", "compare --seed 2 --n 13 --factor 3 --kernel-size 45 --parallel-small 7 "
                    "--ops transposed_conv,lctc"),
    # contribution rows from the digit grid: count suffixes of two widths,
    # positions that end at a digit boundary, six-digit positions
    ("twowidths", "contribution --kernel-size 100 --stride 11 --out-len 1100"),
    ("digitcross", "contribution --kernel-size 1 --stride 1 --out-len 10"),
    ("sixdigits", "contribution --kernel-size 9 --stride 7 --out-len 700000"),
    # direct placement pads: the paper's periodic config, pads longer than a
    # 4-sample signal under both boundaries, r = 3, and a closed-form LCTC fit
    ("paper", "compare --seed 1 --n 128 --kernel-size 31 --parallel-small 3 --ops all"),
    ("tinywrap", "compare --seed 1 --n 4 --kernel-size 31 --ops all"),
    ("tinyzero", "compare --seed 1 --n 4 --kernel-size 31 --ops all --boundary zero-pad"),
    ("analyze3zero", "analyze --seed 1 --n 16 --factor 3 --op linear --boundary zero-pad"),
    ("analyze3nearest", "analyze --seed 1 --n 16 --factor 3 --op nearest"),
    ("fitlctc", "fit --n 32 --kernel-size 11 --parallel-small 3"),
    # the ideal reference beside the row blocks: two blocks of 4 + 3 rows at
    # r = 2 and at r = 3 (the names recall a row size rule since removed), and
    # one block
    ("atrule", "compare --seed 1 --n 2048 --ops all"),
    ("belowrule3", "compare --seed 1 --n 1365 --factor 3 --ops all"),
    ("oneblock", "analyze --seed 1 --n 16384 --op fourier_pad"),
    # five row blocks at r = 3, zero-pad, and the error spectrum of a
    # 1024 x 768 image
    ("long3zero", "compare --seed 1 --n 16384 --factor 3 --boundary zero-pad "
                  "--ops bed_of_nails,nearest,linear,pixel_shuffle,fourier_pad"),
    ("errorspectall", "errorspec --signal composite --height 1024 --width 768 --seed 3 "
                      "--mode magnitude"),
    # analyze for the operators not pinned above; the rest of compare --ops all
    # at n = 16 and 128, r = 2 and 3, both boundaries; fit residuals summed
    # over 16,384 frequencies
    ("analyzenails", "analyze --seed 1 --n 64 --op bed_of_nails"),
    ("analyzeshufflezero", "analyze --seed 1 --n 64 --op pixel_shuffle --boundary zero-pad"),
    ("analyzeconv", "analyze --seed 1 --n 64 --op transposed_conv --kernel-size 15"),
    ("small", "compare --seed 1 --n 16 --ops all"),
    ("smallzero", "compare --seed 1 --n 16 --ops all --boundary zero-pad"),
    ("small3", "compare --seed 1 --n 16 --factor 3 --ops all"),
    ("small3zero", "compare --seed 1 --n 16 --factor 3 --ops all --boundary zero-pad"),
    ("paper3", "compare --seed 1 --n 128 --factor 3 --ops all"),
    ("paper3zero", "compare --seed 1 --n 128 --factor 3 --ops all --boundary zero-pad"),
    ("sweeplong", "sweep --n 16384 --sizes 7,63,255,1023"),
]


def run_config(name: str, argv, root: Path) -> Path:
    """Run one config into ``root/name`` and return that directory."""
    out = root / name
    code = main([arg.replace("{root}", str(root)) for arg in argv] + ["--out-dir", str(out)])
    if code != 0:
        raise RuntimeError(f"config {name!r} exited {code}")
    return out


def describe(directory: Path, argv) -> dict:
    """Size and sha256 of each file, and a CSV's header and row count, keyed
    by file name; a JSON file has the sha256 of its fields that do not vary
    from run to run for the config ``argv`` alone."""
    dropped = {"generated_at", "versions"}
    if any("{root}" in arg for arg in argv):
        dropped |= {"config", "config_hash"}
    files = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            body = {k: v for k, v in json.loads(path.read_text()).items() if k not in dropped}
            data = json.dumps(body, sort_keys=True, indent=2).encode()
            files[path.name] = {"sha256": hashlib.sha256(data).hexdigest()}
            continue
        data = path.read_bytes()
        entry = {"size": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        if path.suffix == ".csv":
            header, *rows = data.decode().splitlines()
            entry.update(header=header, rows=len(rows))
        files[path.name] = entry
    return files


def record(root: Path) -> dict:
    configs = []
    for name, text in CONFIGS:
        argv = text.split()
        configs.append({"name": name, "argv": argv,
                        "files": describe(run_config(name, argv, root), argv)})
    return {"numpy": np.__version__, "machine": platform.machine(), "configs": configs}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = record(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(manifest['configs'])} configs")
