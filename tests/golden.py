"""SHA-256 digests of the outputs with a bitwise contract, checked against ``golden.json``.

The outputs are anchor masks, expanded masks, keep sets and merge source
sets; hard-mode merged rows and absorbed weights; and, through the CLI,
``prune`` ``.tkb`` files, ``merge`` (hard mode), ``pipeline --no-timing``
and ``cost`` reports with their JSON, and ``viz`` PGMs. The inputs are the
four benchmark shapes at seeds 0 and 1. Soft-mode merged rows stay out:
their float32 sums depend on the BLAS thread count.

The digests are taken in one child process on OpenBLAS's Haswell kernel at
one thread, so ``generate_workload``'s QR and GEMM bits do not depend on the
host's default kernel. The manifest records numpy's version, the OpenBLAS
version and the kernel the child ran; on any other fingerprint the check
cannot compare, and says why.

    PYTHONPATH=src python tests/golden.py            # compare; exit 1 and list each moved digest
    PYTHONPATH=src python tests/golden.py --update   # rewrite the manifest

A change that moves a digest lists it, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tokpress
from tokpress.cli import load_config, main as tokpress_main, parse_grid
from tokpress.core import RngState
from tokpress.expand import expand_mask
from tokpress.pipeline import run_pipeline
from tokpress.similarity import anchor_mask
from tokpress.tokenfile import write_tokens
from tokpress.workload import WorkloadSpec, generate_workload

MANIFEST = Path(__file__).resolve().parent / "golden.json"
SEEDS = (0, 1)
# name -> (grid, WorkloadSpec keywords, config keys); the shapes and configs of the benchmark's workloads
SHAPES = {
    "vla-4096": ("2x16x16", dict(embed_dim=4096, anchor_fraction=0.32), {}),
    "wide-sparse": (
        "3x24x24",
        dict(blocks=4, block_size=(3, 5), embed_dim=128),
        {"kernel_size": 5, "tau": 6, "merge_mode": "hard"},
    ),
    "cli-toy": ("2x16x16", dict(embed_dim=64), {}),
    "step-256": ("2x16x16", dict(embed_dim=256), {"merge_layer": 4, "total_layers": 8}),
}


def blas() -> dict:
    """numpy's BLAS build entry: ``name`` and ``version``, empty where numpy does not say."""
    return getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})


def blas_core() -> str:
    """The kernel OpenBLAS picked, asked of the library numpy loaded; "" if it cannot be."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        for name in ("openblas_get_corename", "openblas_get_corename64_", "scipy_openblas_get_corename64_"):
            fn = getattr(ctypes.CDLL(path), name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return ""


def fingerprint() -> dict:
    return {"numpy": np.__version__, "openblas": blas().get("version", ""), "core": blas_core()}


def _sha(data) -> str:
    # arrays hash with their dtype and shape, so a cast or reshape moves the digest too
    if isinstance(data, np.ndarray):
        data = f"{data.dtype.str}{data.shape}".encode() + np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tokpress_main(argv)
    if code != 0:
        raise RuntimeError(f"tokpress {' '.join(argv)} exited with {code}")
    return out.getvalue()


def scene_digests(shape: str, seed: int) -> dict:
    """Every digest of one scene, keyed ``shape/seed/output``; writes its files in the working directory."""
    grid_text, spec, keys = SHAPES[shape]
    grid = parse_grid(grid_text)
    load = generate_workload(WorkloadSpec(grid=grid, seed=seed, **spec))
    for part in ("e_img", "e_lang", "guidance"):
        write_tokens(getattr(load, part), f"{part}.tkb")
    Path("config.json").write_text(json.dumps(keys))
    Path("hard.json").write_text(json.dumps({**keys, "merge_mode": "hard"}))
    config, hard = load_config("config.json"), load_config("hard.json")

    out = {"inputs": _sha(b"".join(_sha(a).encode() for a in (load.e_img, load.e_lang, load.guidance)))}
    anchors = anchor_mask(load.e_lang, load.e_img, grid)
    out["anchors"] = _sha(anchors.bits)
    out["expanded"] = _sha(expand_mask(anchors, config.expand, RngState(config.seed)).bits)
    result = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)
    out["keep_set"] = _sha(result.kept_indices)
    out["sources"] = _sha(result.merge.source_indices)
    hard_result = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, hard)
    out["hard_rows"] = _sha(hard_result.compressed)
    out["hard_weights"] = _sha(hard_result.merge.absorbed_weight)

    # relative paths, so that no report names the temporary directory
    kept, schedule = result.prune.kept, result.report.schedule
    write_tokens(np.vstack([load.e_img[result.kept_indices], load.e_lang, load.guidance]), "seq.tkb")
    scene = ["--tokens", "e_img.tkb", "--lang", "e_lang.tkb", "--grid", grid_text, "--config", "config.json"]
    commands = {
        "prune": ["prune", *scene, "--out", "pruned.tkb"],
        "pipeline": ["pipeline", *scene, "--guidance", "guidance.tkb", "--no-timing"],
        "viz": ["viz", *scene, "--out", "mask"],
        "merge": ["merge", "--tokens", "seq.tkb", "--guidance", "guidance.tkb", "--visual", f"0:{kept}",
                  "--config", "hard.json", "--out", "merged.tkb"],
        "cost": ["cost", "--baseline", f"flat:{grid.total}",
                 "--candidate", f"step:{kept},{schedule.visual_counts[-1]}@{config.merge_layer}",
                 "--layers", str(config.total_layers), "--non-visual", str(schedule.non_visual)],
    }  # fmt: skip
    for name, argv in commands.items():
        out[f"{name}_report"] = _sha(_cli(argv + ["--json", "report.json"]).encode())
        out[f"{name}_json"] = _sha(Path("report.json").read_bytes())
    for name in ("pruned.tkb", "merged.tkb", *sorted(str(p) for p in Path().glob("mask*.pgm"))):
        out[name] = _sha(Path(name).read_bytes())
    return {f"{shape}/{seed}/{key}": digest for key, digest in out.items()}


def child(path: str) -> None:
    """Write the fingerprint and every digest to ``path`` as JSON; run under the pinned environment."""
    path, digests = Path(path).resolve(), {}
    for shape in SHAPES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                digests.update(scene_digests(shape, seed))
                os.chdir(path.parent)
    path.write_text(json.dumps({"fingerprint": fingerprint(), "digests": digests}, indent=1) + "\n")


def compute() -> dict | str:
    """``{"fingerprint", "digests"}`` from a child on the Haswell kernel at one thread, or why there are none."""
    if "openblas" not in blas().get("name", "").lower():
        return "numpy is not linked to OpenBLAS"
    pinned = dict(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(tokpress.__file__).parents[1])  # the child imports the tokpress this process did
    env = dict(os.environ, **pinned, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "digests.json"
        run = subprocess.run([sys.executable, __file__, "--child", str(path)], env=env, timeout=300)
        if run.returncode == -signal.SIGILL:
            return "this CPU cannot run OpenBLAS's Haswell kernel"
        run.check_returncode()
        got = json.loads(path.read_text())
    if got["fingerprint"]["core"] != "Haswell":
        return f"OpenBLAS ran the {got['fingerprint']['core'] or 'unreported'} kernel, not Haswell"
    return got


def compare(got: dict, manifest: dict) -> list[str] | str:
    """Each digest that moved, was added or was dropped; or why the two cannot be compared."""
    if got["fingerprint"] != manifest["fingerprint"]:
        return f"the manifest was made on {manifest['fingerprint']}, this host has {got['fingerprint']}"
    old, new = manifest["digests"], got["digests"]
    return [
        f"{key}: {'moved' if key in old and key in new else 'added' if key in new else 'dropped'}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]


def main(argv: list) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    got = compute()
    if isinstance(got, str):
        print(f"golden: cannot compare: {got}", file=sys.stderr)
        return 2
    if argv == ["--update"]:
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"golden: wrote {len(got['digests'])} digests to {MANIFEST}")
        return 0
    moved = compare(got, json.loads(MANIFEST.read_text()))
    if isinstance(moved, str):
        print(f"golden: cannot compare: {moved}", file=sys.stderr)
        return 2
    print("\n".join(moved) or f"golden: {len(got['digests'])} digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
