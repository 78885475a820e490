"""Helpers the scripts in tools/ share: the parent and change commits, copies
of them, and CPU time.

Each script runs as `python3 tools/NAME.py`, so this directory is first on
`sys.path` and the scripts import this module as `common`. Only the
standard library is used.
"""

from __future__ import annotations

import io
import resource
import subprocess
import tarfile
from pathlib import Path

SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True).stdout


def resolve(parent: str, change: str) -> tuple[Path, dict[str, str]]:
    """The repository holding tools/, and each side's revision as a full commit hash."""
    repo = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel").decode().strip())
    commits = {s: git(repo, "rev-parse", f"{rev}^{{commit}}").decode().strip()
               for s, rev in zip(SIDES, (parent, change))}
    return repo, commits


def extract(repo: Path, commit: str, dest: Path) -> None:
    """A fresh copy of the committed files of `commit` at `dest`."""
    archive = git(repo, "archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    return sum(
        ru.ru_utime + ru.ru_stime
        for ru in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )
