"""Byte-for-byte comparison of the routelearn CLI's outputs at two commits.

    python3 tools/compare_outputs.py --parent REV --change REV

Run from anywhere inside the repository. Each commit is extracted with
`git archive`, and the same command list runs against each copy's `src/`
as `python3 -m routelearn.cli`, with `OPENBLAS_NUM_THREADS=1`:

    run --seed 0
    batch --seeds 0..5 --save-trajectories --workers 1, 2 and 3
    enumerate --grid-n 40
    check --grid-n 20

on every scenario below, plus `enumerate --grid-n 200` on the built-ins.
The scenarios are the built-ins, `three-edge-tolerances` (the
`three-edge` payload with every tolerance set away from its default:
equilibrium 1e-9, used edge 0.6, cost equality 1e-7), the benchmark's
Wheatstone table (`bench/reference.wheatstone_table`) and the 12
directed-grid tables `tests/oracles.grid_payload(r, 4, g)` for r = 3, 4
and g = 0..5, written as scenario files from the change's copy so both
sides read the same bytes. Every command runs in its side's own directory with a relative
`--out-dir`, so its standard output names the same paths on both sides.

Compared per command: the exit code, standard output, standard error and
every file under its output directory. Prints one line per command and,
when anything differs, the differing files, then exits 1; exits 0 when
every byte matches.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
BUILTINS = ("three-edge", "three-edge-accurate-prior", "three-edge-cond2")
COMMANDS = (
    ("run", ["run", "--seed", "0"]),
    ("batch-w1", ["batch", "--seeds", "0..5", "--save-trajectories", "--workers", "1"]),
    ("batch-w2", ["batch", "--seeds", "0..5", "--save-trajectories", "--workers", "2"]),
    ("batch-w3", ["batch", "--seeds", "0..5", "--save-trajectories", "--workers", "3"]),
    ("enumerate", ["enumerate", "--grid-n", "40"]),
    ("check", ["check", "--grid-n", "20"]),
)
BUILTIN_ONLY = (("enumerate-200", ["enumerate", "--grid-n", "200"]),)

# Writes the table files from a copy's tests/ and bench/ (argv[1] is the target directory).
WRITE_TABLES = """
import json, sys
from pathlib import Path
sys.path[:0] = ["src", "tests", "bench"]
import oracles, reference
from routelearn.scenario import _builtin_payloads
out = Path(sys.argv[1])
tolerances = {"equilibrium": 1e-9, "used_edge": 0.6, "cost_equality": 1e-7}
tables = {
    "three-edge-tolerances": {
        **_builtin_payloads()["three-edge"], "name": "three-edge-tolerances", "tolerances": tolerances
    },
    "wheatstone-poly": reference.wheatstone_table().to_scenario(),
}
for r in (3, 4):
    for g in range(6):
        tables[f"grid-{r}x4-g{g}"] = oracles.grid_payload(r, 4, g)
for name, payload in tables.items():
    (out / f"{name}.json").write_text(json.dumps(payload, indent=2))
print("\\n".join(sorted(tables)))
"""


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True).stdout


def extract(repo: Path, commit: str, dest: Path) -> None:
    """A fresh copy of the committed files of `commit` at `dest`."""
    archive = git(repo, "archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_cli(copy: Path, cwd: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, standard streams and output files of one command, by name."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(copy / "src")}
    proc = subprocess.run([sys.executable, "-m", "routelearn.cli", *argv],
                          cwd=cwd, capture_output=True, env=env)
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    out_dir = cwd / argv[argv.index("--out-dir") + 1]
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(cwd))] = path.read_bytes()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)

    repo = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel").decode().strip())
    commits = {s: git(repo, "rev-parse", f"{rev}^{{commit}}").decode().strip()
               for s, rev in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp).resolve()
        copies = {s: work / f"{s}-src" for s in SIDES}
        for side, commit in commits.items():
            extract(repo, commit, copies[side])
            (work / side).mkdir()
        tables = work / "tables"
        tables.mkdir()
        names = subprocess.run(
            [sys.executable, "-c", WRITE_TABLES, str(tables)], cwd=copies["change"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        scenarios = [(n, n, COMMANDS + BUILTIN_ONLY) for n in BUILTINS]
        scenarios += [(n, str(tables / f"{n}.json"), COMMANDS) for n in names]

        differing, n_commands = [], 0
        for name, scenario, commands in scenarios:
            for label, cmd in commands:
                out_dir = f"out/{name}/{label}"
                full = [*cmd, "--scenario", scenario, "--out-dir", out_dir]
                got = {s: run_cli(copies[s], work / s, full) for s in SIDES}
                keys = sorted(set(got["parent"]) | set(got["change"]))
                diff = [k for k in keys if got["parent"].get(k) != got["change"].get(k)]
                n_commands += 1
                code = got["change"]["exit code"].decode()
                status = "differs: " + ", ".join(diff) if diff else "identical"
                print(f"{name} {label}: exit {code}, {len(keys) - 3} files, {status}", flush=True)
                differing += [f"{name} {label}: {k}" for k in diff]
    print(json.dumps({"parent": commits["parent"], "change": commits["change"],
                      "commands": n_commands, "differing": differing}, indent=1))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
