"""SHA-256 digests of the outputs with a bitwise contract, checked against ``golden.json``.

The outputs are anchor masks, expanded masks, keep sets and merge source
sets; hard-mode merged rows and absorbed weights; and, through the CLI,
``prune`` ``.tkb`` files, ``merge`` (hard mode), ``pipeline --no-timing``
and ``cost`` reports with their JSON, and ``viz`` PGMs. The inputs are the
four benchmark shapes at seeds 0 and 1. On ``tokpress gen --seed 42``
inputs at 2x16x16 and 3x24x24, under the default config and under k=5,
tau=6, hard merge, the CLI matrix adds ``merge --visual 10:200``,
``pipeline --no-timing`` with and without ``--guidance`` and ``viz`` at
both mask stages and to a ``.pgm`` name. The ``error:`` line of each of a
fixed list of bad ``--grid``, ``cost --baseline`` and ``--visual`` texts,
and the keep sets, sources and hard-mode rows of ``scenes.EDGE_SCENES``,
are pinned too. Soft-mode merged rows stay out: their float32 sums depend
on the BLAS thread count.

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
import dataclasses
import functools
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
# the CLI matrix runs on `tokpress gen --seed 42` inputs at these grids, under each of these configs
MATRIX_GRIDS = ("2x16x16", "3x24x24")
MATRIX_CONFIGS = {"default": {}, "sparse": {"kernel_size": 5, "tau": 6, "merge_mode": "hard"}}
# option -> texts each CLI grammar rejects, or whose value the library rejects, on a 1x8x8 scene
BAD_TEXTS = {
    "grid": ["16", "axb", "1x2x3x4", "", "x8x8", "1x8x", "8x8x", "1.0x8x8", "0x8x8", "1x8x-8", "1x8x8\nx"],
    "baseline": ["flat", "flat:x", "flat:", "step:1@2", "ramp:3", "step:9,9", "step:1,2,3@4", "step:1,2@3@4",
                 "Flat:3", " flat:3", "flat:3:4", "flat:-1", "step:1,2@99"],
    "visual": ["abc", "5", "3:x", "", "1:2:3", ":", "1:", ":5", "1.5:3", "5:3", "0:600", "-1:3"],
}  # fmt: skip


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


def _cli(argv: list, code: int = 0) -> str:
    """What ``tokpress argv`` prints: stdout, or stderr when the expected exit ``code`` is not 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = tokpress_main(argv)
    if got != code:
        raise RuntimeError(f"tokpress {' '.join(argv)} exited with {got}, not {code}")
    return (out if code == 0 else err).getvalue()


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


def matrix_digests(grid_text: str) -> dict:
    """The CLI matrix on ``gen --seed 42`` inputs, keyed ``cli/grid/config/output``; writes its files in the
    working directory."""
    out = {"gen_report": _sha(_cli(["gen", "--out-dir", ".", "--grid", grid_text, "--seed", "42"]).encode())}
    for name in ("img.tkb", "lang.tkb", "guidance.tkb"):
        out[name] = _sha(Path(name).read_bytes())
    Path("sparse.json").write_text(json.dumps(MATRIX_CONFIGS["sparse"]))
    scene = ["--tokens", "img.tkb", "--lang", "lang.tkb", "--grid", grid_text]
    for config, keys in MATRIX_CONFIGS.items():
        given = ["--config", "sparse.json"] if keys else []
        commands = {
            "prune": ["prune", *scene, *given, "--out", "pruned.tkb"],
            "merge": ["merge", "--tokens", "img.tkb", "--guidance", "guidance.tkb", "--visual", "10:200",
                      *given, "--out", "merged.tkb"],
            "pipeline": ["pipeline", *scene, *given, "--no-timing"],
            "pipeline_guided": ["pipeline", *scene, *given, "--guidance", "guidance.tkb", "--no-timing"],
            "viz_anchor": ["viz", *scene, *given, "--mask-stage", "anchor", "--out", f"{config}_anchor"],
            "viz_expand": ["viz", *scene, *given, "--mask-stage", "expand", "--out", f"{config}_expand"],
            "viz_pgm": ["viz", *scene, *given, "--out", f"{config}_named.pgm"],
        }  # fmt: skip
        for name, argv in commands.items():
            out[f"{config}/{name}_report"] = _sha(_cli(argv + ["--json", "report.json"]).encode())
            out[f"{config}/{name}_json"] = _sha(Path("report.json").read_bytes())
        # soft-mode rows stay out (module docstring); the soft merge is pinned by its report alone
        for name in ["pruned.tkb"] + (["merged.tkb"] if keys.get("merge_mode") == "hard" else []):
            out[f"{config}/{name}"] = _sha(Path(name).read_bytes())
    for name in sorted(str(p) for p in Path().glob("*.pgm")):
        out[name] = _sha(Path(name).read_bytes())
    return {f"cli/{grid_text}/{key}": digest for key, digest in out.items()}


def error_digests() -> dict:
    """``cost`` on two schedule pairs and the ``error:`` line of each of ``BAD_TEXTS``, keyed ``cli/...``."""
    out = {}
    for i, pair in enumerate((["flat:512", "step:196,80@8"], ["step:300,100@12", "flat:128"])):
        argv = ["cost", "--baseline", pair[0], "--candidate", pair[1], "--layers", "16", "--non-visual", "17"]
        out[f"cli/cost/{i}"] = _sha(_cli(argv).encode())
    _cli(["gen", "--out-dir", ".", "--grid", "1x8x8", "--seed", "42"])
    commands = {
        "grid": ["prune", "--tokens", "img.tkb", "--lang", "lang.tkb"],
        "baseline": ["cost", "--candidate", "flat:1"],
        "visual": ["merge", "--tokens", "img.tkb", "--guidance", "guidance.tkb"],
    }
    for option, texts in BAD_TEXTS.items():
        for text in texts:  # --option=text, so that a text starting with "-" is no option
            argv = commands[option] + [f"--{option}={text}"]
            out[f"cli/error/{option}/{text!r}"] = _sha(_cli(argv, code=1).encode())
    return out


def edge_digests() -> dict:
    """Keep sets, merge sources and hard-mode rows of each of ``scenes.EDGE_SCENES``, keyed ``edge/i/output``."""
    from scenes import EDGE_SCENES  # imports hypothesis, which only these digests need

    out = {}
    for i, (load, config) in enumerate(EDGE_SCENES):
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        hard = dataclasses.replace(config, merge=dataclasses.replace(config.merge, mode="hard"))
        hard_result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, hard)
        out[f"edge/{i}/keep_set"] = _sha(result.kept_indices)
        out[f"edge/{i}/sources"] = _sha(result.merge.source_indices)
        out[f"edge/{i}/hard_rows"] = _sha(hard_result.compressed)
    return out


def child(path: str) -> None:
    """Write the fingerprint and every digest to ``path`` as JSON; run under the pinned environment."""
    path, digests = Path(path).resolve(), {}
    jobs = [functools.partial(scene_digests, shape, seed) for shape in SHAPES for seed in SEEDS]
    jobs += [functools.partial(matrix_digests, grid) for grid in MATRIX_GRIDS] + [error_digests, edge_digests]
    for job in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            digests.update(job())
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
