"""Output bytes pinned: a small fixed pipeline run in-process must write
exactly the bytes it wrote when these digests were recorded.

A change that alters any stage's output for a fixed seed must say so in
CHANGES.md and record the new digests here. The pipeline's arithmetic is
exact standard-library Python, so the digests hold on every CPU and
supported Python version.
"""

import hashlib

from graphcorpus.cli import main

SEED = "3"

EXPECTED = {
    "problems.jsonl":
        "b0737a24a9b830f86a94eea6c5e16609d44d05fecfc6f5ab971eef822b199cea",
    "paths.jsonl":
        "110fac4632c1c7cd4fc4b483ef52e446c64f8771b7e07e43eeb8f9d2d1b8e1ee",
    "sft.jsonl":
        "6038056b67f43d49ac049054bc5261e8d53ae6fd8c97aad1b9cdac2f497e103e",
    "dpo.jsonl":
        "b5172eb5c1cc2ce18ef388da1dc723d27b2afac0063d5e2e52f53f4c0754cc37",
    "audit.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report/report.json":
        "56455f85822cd6257d8a49869aafee39e70b21fc882bd118e8a6c4335940d5ad",
    "report/report.txt":
        "470276169f3c83e566de3e736f583443cbf0c4905026557498b1440ec63155ba",
    # pairs of the 20 instruction-prompt paths per problem that annotate
    # samples under the "dpo" profile: the bytes `dpo` wrote when it
    # sampled them itself
    "dpo_sampled.jsonl":
        "fe6e96afa995191c685f291d9338d6801e334b7118f7388633cc5a260b46bd72",
}


def run_pipeline(root) -> dict[str, str]:
    """Run generate, stub annotate, select, dpo, audit and stub evaluate,
    then the sampled-DPO route (stub annotate under the "dpo" profile, dpo
    on its paths) under root; return the sha256 of every output file."""
    problems = str(root / "problems.jsonl")
    paths = str(root / "paths.jsonl")
    dpo_paths = str(root / "dpo_paths.jsonl")
    stub = ["--backend", "stub", "--stub-error-rate", "0.4", "--seed", SEED]
    stages = [
        ["generate", "--split", "test", "--count", "2", "--seed", SEED,
         "--out", problems],
        ["annotate", "--problems", problems, "--profile", "augment", *stub,
         "--out", paths],
        ["select", "--problems", problems, "--paths", paths, "--seed", SEED,
         "--out", str(root / "sft.jsonl")],
        ["dpo", "--problems", problems, "--paths", paths, "--seed", SEED,
         "--out", str(root / "dpo.jsonl")],
        ["audit", "--problems", problems, "--paths", paths,
         "--out", str(root / "audit.jsonl")],
        ["evaluate", "--problems", problems, *stub,
         "--out", str(root / "report")],
        ["annotate", "--problems", problems, "--profile", "dpo", *stub,
         "--out", dpo_paths],
        ["dpo", "--problems", problems, "--paths", dpo_paths, "--seed", SEED,
         "--out", str(root / "dpo_sampled.jsonl")],
    ]
    for argv in stages:
        assert main(argv) == 0, argv
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in EXPECTED}


def test_pipeline_output_digests_unchanged(tmp_path):
    assert run_pipeline(tmp_path) == EXPECTED
