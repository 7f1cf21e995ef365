"""Outputs under two OpenBLAS kernels, and hard-mode outputs under two thread counts.

Twenty default d=4096 scenes run through ``run_pipeline`` in two child
processes, one on OpenBLAS's Haswell kernel and one on Prescott, one thread
each. The kernels sum in different orders, so the soft fold's float32
sums give merged rows that differ by rounding, and ``.tkb`` output is
bitwise only for a fixed kernel. Every decision (anchors, keep sets and
merge sources) and every copied row must still be equal. Each child reports
the kernel OpenBLAS actually picked; the test skips when both picked the
same one, since it would then compare a kernel with itself.

Hard mode folds float64 rows by segment sums outside BLAS, and its logits
are float64, so its merged rows must not depend on how many threads
OpenBLAS splits a product over: 24 sparse-flip scenes (3x24x24, k=5,
tau=6) give bitwise equal rows at one and at two threads.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
import tokpress

SCENES = 20
CHILD = """
import sys
import numpy as np
from golden import blas_core
from tokpress.core import PatchGrid
from tokpress.pipeline import CompressionConfig, run_pipeline
from tokpress.similarity import anchor_mask
from tokpress.workload import WorkloadSpec, generate_workload
out = {}
for seed in range(int(sys.argv[2])):
    load = generate_workload(WorkloadSpec(grid=PatchGrid(2, 16, 16), embed_dim=4096, seed=seed))
    result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, CompressionConfig())
    out[f"anchors{seed}"] = anchor_mask(load.e_lang, load.e_img, load.grid).bits
    out[f"kept{seed}"] = result.kept_indices
    out[f"sources{seed}"] = result.merge.source_indices
    out[f"rows{seed}"] = result.compressed
out["core"] = blas_core()
np.savez(sys.argv[1], **out)
"""
THREADS_CHILD = """
import sys
import numpy as np
from tokpress.core import PatchGrid
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig, run_pipeline
from tokpress.workload import WorkloadSpec, generate_workload
config = CompressionConfig(expand=ExpandParams(5, 6), merge=MergeParams(m=80, mode="hard"))
out = {}
for seed in range(int(sys.argv[2])):
    spec = WorkloadSpec(grid=PatchGrid(3, 24, 24), blocks=4, block_size=(3, 5), embed_dim=128, seed=seed)
    load = generate_workload(spec)
    out[f"rows{seed}"] = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config).compressed
np.savez(sys.argv[1], **out)
"""


def run_child(code: str, path: Path, scenes: int, threads: str, **env_vars) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, **env_vars)
    paths = [str(Path(tokpress.__file__).parents[1]), str(Path(__file__).parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run([sys.executable, "-c", code, str(path), str(scenes)], env=env, timeout=300)


def run_on(core: str, path: Path):
    child = run_child(CHILD, path, SCENES, "1", OPENBLAS_CORETYPE=core)
    if child.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernel")
    child.check_returncode()
    return np.load(path)


needs_openblas = pytest.mark.skipif(
    "openblas" not in golden.blas().get("name", "").lower(), reason="numpy is not linked to OpenBLAS"
)


@needs_openblas
def test_hard_mode_rows_bitwise_equal_at_one_and_two_threads(tmp_path):
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.npz"
        run_child(THREADS_CHILD, path, 24, threads).check_returncode()
        runs.append(np.load(path))
    a, b = runs
    assert sorted(a.files) == sorted(b.files) and len(a.files) == 24
    for key in a.files:
        assert a[key].tobytes() == b[key].tobytes(), key


@needs_openblas
def test_decisions_equal_and_rows_within_sqrt_d_ulps_on_haswell_and_prescott(tmp_path):
    a, b = (run_on(core, tmp_path / f"{core}.npz") for core in ("Haswell", "Prescott"))
    cores = str(a["core"]), str(b["core"])
    if "" in cores or cores[0] == cores[1]:
        pytest.skip(f"OpenBLAS reported the kernels {cores}, not two different ones")
    for seed in range(SCENES):
        for key in ("anchors", "kept", "sources"):
            assert np.array_equal(a[f"{key}{seed}"], b[f"{key}{seed}"]), (key, seed)
        x, y, n = a[f"rows{seed}"], b[f"rows{seed}"], a[f"sources{seed}"].size
        assert x.shape == y.shape and x.dtype == y.dtype == np.float32
        assert x[n:].tobytes() == y[n:].tobytes()  # language and guidance rows are copies
        # a float32 sum of d terms, ordered two ways, differs by about sqrt(d) ulps of its scale
        ulp = np.spacing(np.maximum(np.abs(x[:n]), np.abs(y[:n])).max(axis=1))
        assert (np.abs(x[:n].astype(np.float64) - y[:n]).max(axis=1) <= np.sqrt(4096) * ulp).all(), seed
