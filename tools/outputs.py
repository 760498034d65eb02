"""Hash every output of the canonical CLI flow, and compare two such manifests.

    python tools/outputs.py OUT_DIR [--tree TREE] [--compare OTHER_MANIFEST]

Runs ``python -m epsnode.cli`` with the package in TREE/src (default: this
checkout) through the acceptance flow, writing every output under OUT_DIR,
then writes OUT_DIR/manifest.json: each output's path, relative to OUT_DIR,
and its SHA-256. ``run.meta.json`` is left out, because it holds a
timestamp. The flow:

- simulate nominal 5x10 at seed 42, and A, B and C 1x10 at seed 1042;
- train RNG (15, 30, 15) b32, MA (70, 90, 70) b64 and PCA (120, 165, 120)
  b32 at seed 42;
- score B and C with each model, and B with the RNG model by median;
- evaluate each scored total-error map;
- train without --architecture for 5 epochs: the RNG sweep and its report,
  then the winner trained again.

With --compare, the new manifest is then compared with OTHER_MANIFEST. Every
file whose hash differs, or that only one side has, is listed. The exit
status is 1 when a listed file is not named in ``outputs.declared`` at the
root of this checkout, which holds the outputs a change alters on purpose,
one path per line (text after ``#`` is a comment). A failed command exits 2.

On one commit the bytes are fixed; across hosts the last bits of some floats
follow the BLAS kernel, so compare only manifests built on the same machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
DECLARED = CHECKOUT / "outputs.declared"
SKIPPED = {"run.meta.json", "manifest.json"}

# pipeline -> (hidden widths E1 E2 D1, batch size)
ARCHITECTURES = {"RNG": ("15 30 15", "32"), "MA": ("70 90 70", "64"), "PCA": ("120 165 120", "32")}


def flow() -> list[list[str]]:
    """The CLI commands, in order, with paths relative to the output dir."""
    steps = [["simulate", "--scenario", "nominal", "--passes", "5", "--samples-per-cell", "10",
              "--seed", "42", "--out", "nominal.jsonl"]]
    steps += [["simulate", "--scenario", s, "--passes", "1", "--samples-per-cell", "10",
               "--seed", "1042", "--out", f"{s}.jsonl"] for s in "ABC"]
    for pipeline, (widths, batch) in ARCHITECTURES.items():
        steps.append(["train", "--dataset", "nominal.jsonl", "--pipeline", pipeline,
                      "--architecture", *widths.split(), "--batch-size", batch,
                      "--seed", "42", "--out-dir", f"train-{pipeline}"])
    scores = [(p, s, "mean") for p in ARCHITECTURES for s in "BC"] + [("RNG", "B", "median")]
    for pipeline, scenario, aggregate in scores:
        out = f"score-{pipeline}-{scenario}-{aggregate}"
        steps.append(["score", "--model", f"train-{pipeline}/model.json",
                      "--dataset", f"{scenario}.jsonl", "--aggregate", aggregate, "--out-dir", out])
        steps.append(["evaluate", "--error-map", f"{out}/error_map.csv", "--scenario", scenario,
                      "--pipeline", pipeline, "--out", f"{out}/kl.json"])
    steps.append(["train", "--dataset", "nominal.jsonl", "--pipeline", "RNG",
                  "--max-epochs", "5", "--patience", "5", "--seed", "42", "--out-dir", "searched"])
    return steps


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run_flow(tree: Path, out_dir: Path) -> dict[str, str]:
    """Run the flow with ``tree``'s package in the new or empty ``out_dir``;
    returns the manifest."""
    if out_dir.exists() and any(out_dir.iterdir()):
        fail(f"{out_dir} is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "EPSNODE_SEED"}
    env["PYTHONPATH"] = str(tree / "src")

    def cli(*args: str) -> subprocess.CompletedProcess:
        done = subprocess.run([sys.executable, *args], cwd=out_dir, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            fail(f"exit {done.returncode} from {' '.join(args)}\n{done.stderr}")
        return done

    where = cli("-c", "import epsnode; print(epsnode.__file__)").stdout.strip()
    if not Path(where).resolve().is_relative_to(tree / "src"):
        fail(f"epsnode imports from {where}, not from {tree / 'src'}")
    for step in flow():
        cli("-m", "epsnode.cli", *step)
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name not in SKIPPED
    }


def read_declared() -> set[str]:
    if not DECLARED.exists():
        return set()
    lines = DECLARED.read_text(encoding="utf-8").splitlines()
    return {line.split("#", 1)[0].strip() for line in lines} - {""}


def compare(mine: dict[str, str], other: dict[str, str], declared: set[str]) -> int:
    """Print the files whose bytes differ; 1 if one of them is undeclared."""
    paths = mine.keys() | other.keys()
    differing = sorted(p for p in paths if mine.get(p) != other.get(p))
    for path in differing:
        print(f"{'declared' if path in declared else 'DIFFERS '}  {path}")
    undeclared = [p for p in differing if p not in declared]
    print(f"{len(differing)} of {len(paths)} files differ, {len(undeclared)} undeclared")
    return 1 if undeclared else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--tree", type=Path, default=CHECKOUT,
                        help="checkout whose src/ package runs the flow (default: this one)")
    parser.add_argument("--compare", type=Path, metavar="OTHER_MANIFEST")
    args = parser.parse_args(argv)
    manifest = run_flow(args.tree.resolve(), args.out_dir.resolve())
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (args.out_dir / "manifest.json").write_text(text, encoding="utf-8")
    print(f"{len(manifest)} files hashed into {args.out_dir / 'manifest.json'}")
    if args.compare is None:
        return 0
    other = json.loads(args.compare.read_text(encoding="utf-8"))
    return compare(manifest, other, read_declared())


if __name__ == "__main__":
    sys.exit(main())
