"""Golden output bytes: sha256 of every file the CLI writes on bundled scenarios.

The digests pin the bytes of the space-time images, the fuzzy queue
series, the baseline histograms and both fundamental-diagram kinds, so a
refactor that changes what the model computes, or how a writer formats
it, fails here.  ``compare ring_fd_fcm`` covers a scenario with no
``nasch`` block: its histogram uses the default baseline settings.

The dilation ``pow`` rounds its last bit by numpy's CPU dispatch, so the
engine's grades differ between numpy's AVX-512 kernels and its baseline
path; the output bytes must not.  On a host where numpy dispatches to
AVX-512, the same digests are checked once more in a process that turns
those kernels off.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzycell.cli import main

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")  # numpy's dispatch groups with an AVX-512 pow

GOLDEN = [
    (
        ["run", "single_vehicle_a09"],
        {"single_vehicle_a09.pgm": "04f6d1954d8c7eb71b4960e53eef20e481f1afe6388a51f114139570e1256dbe"},
    ),
    (
        ["run", "single_vehicle_a01"],
        {"single_vehicle_a01.pgm": "1ca42ba5b439a3c99aebe98e646b79d9356943dbb46762d2f6fa619668c512c2"},
    ),
    (
        ["queue-experiment", "queue50"],
        {"queue50_fcm_queue.csv": "3ca171c2f356fbea8ed781e89a116ecc163ccb7f7cbe3b8b9a8d930154d53f3d"},
    ),
    (
        ["compare", "queue50"],
        {
            "queue50_fcm_queue.csv": "3ca171c2f356fbea8ed781e89a116ecc163ccb7f7cbe3b8b9a8d930154d53f3d",
            "queue50_nasch_queue.csv": "b41bbbc910b629553cf2d36e258aa8f64449086febf93f2ae7a05ce0cbfc6771",
        },
    ),
    (
        ["fundamental-diagram", "ring_fd_nasch"],
        {"ring_fd_nasch.csv": "aa2ef0dfafbfd740afeece3cfbd80a7ad77ed3cfec83b3693a0b4f1a7e705d07"},
    ),
    (
        ["fundamental-diagram", "ring_fd_fcm", "--densities", "0.1,0.3,0.9"],
        {"ring_fd_fcm.csv": "feddb0e1da7f027fc89a5fc75ce7f64a04c9d3f7f72f621868c4cb8d6bc3762e"},
    ),
    (
        ["compare", "ring_fd_fcm", "--steps", "20"],
        {
            "ring_fd_fcm_fcm_queue.csv": "81e46a45dde8c0c774c188c0f17fd31ef8cd3d151d7f25b303623291bee01a50",
            "ring_fd_fcm_nasch_queue.csv": "ac533e715edd1e4c85ed6d8cb60411eb85fddf4f6bf4866cad7f433089ffe513",
        },
    ),
]


@pytest.mark.parametrize("argv, digests", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_bytes(argv, digests, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == digests


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def _avx512_found():
    return [group for group in AVX512 if __cpu_features__.get(group)]


# Run in a fresh interpreter: numpy reads NPY_DISABLE_CPU_FEATURES at import.
_WITHOUT_AVX512 = """
import sys
from pathlib import Path
from fuzzycell.cli import main
from test_golden import GOLDEN, _avx512_found, _digests

assert not _avx512_found(), _avx512_found()
for i, (argv, digests) in enumerate(GOLDEN):
    out = Path(sys.argv[1], str(i))
    assert main([*argv, "--out-dir", str(out)]) == 0, argv
    assert _digests(out) == digests, argv
"""


@pytest.mark.skipif(
    not _avx512_found(),
    reason="numpy dispatches no AVX-512 kernel here, so this host runs the baseline path",
)
def test_cli_output_bytes_without_avx512(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512))
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_AVX512, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
