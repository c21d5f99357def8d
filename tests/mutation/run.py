"""Apply each mutant of ``mutants.py`` to a copy of the tree and run tier-1 against it.

    python tests/mutation/run.py

The tree is the checkout's tracked files as they stand, staged or not
(``git stash create``; ``HEAD`` when nothing has changed). For each mutant
it is exported with ``git archive`` into a temporary directory, the
mutant's ``old`` text is replaced, and pytest runs there with ``-x``. A
killed row runs its ``killed_by`` file first; if the mutant survives that
file, or the row names none, all of tier-1 runs, the cheapest test files
first. Equivalent rows and the control, the unmutated tree that runs first,
always run all of tier-1. One JSON line per run goes to stdout: the mutant,
its expected and actual outcome, the test that killed it, the test files
run (``"tier-1"`` for all of them) and the seconds taken. The exit status is
1 if the control fails, a mutant's outcome differs from its ``expect``, its
``old`` text does not occur exactly once or its ``killed_by`` file is missing. Stdlib only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[2]

# Test files by their tier-1 run time, fastest first, so that most mutants die
# within seconds; a file not listed runs after these, in name order.
CHEAPEST_FIRST = [
    "test_readme.py",
    "test_line_budget.py",
    "test_scheduler.py",
    "test_list_inputs.py",
    "test_metrics.py",
    "test_losses.py",
    "test_data.py",
    "test_model.py",
    "test_harness.py",
    "test_golden.py",
    "test_acceptance.py",
    "test_properties.py",
]

TIMEOUT_S = 600


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def ordered_test_files(tree: Path) -> list[str]:
    rank = {name: i for i, name in enumerate(CHEAPEST_FIRST)}
    names = sorted((p.name for p in (tree / "tests").glob("test_*.py")), key=lambda name: (rank.get(name, len(rank)), name))
    return [f"tests/{name}" for name in names]


def run(archive: bytes, mutant=None) -> dict:
    """Tier-1 on the exported tree with ``mutant`` applied: the run's JSON record."""
    record = {"id": "control", "expect": "survived"} if mutant is None else {"id": mutant.id, "expect": mutant.expect}
    with tempfile.TemporaryDirectory(prefix="curricula-mutant-") as tmp:
        tree = Path(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                return record | {"outcome": "missing" if count == 0 else f"found {count} times"}
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        first = mutant.killed_by if mutant is not None and mutant.expect == "killed" else None
        if first and not (tree / first).is_file():  # pytest's usage error would read as a kill
            return record | {"outcome": f"killed_by file {first} does not exist"}
        env = os.environ | {"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        for files in ([first] if first else []) + ["tier-1"]:
            command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors", *(ordered_test_files(tree) if files == "tier-1" else [files])]
            try:
                done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return record | {"outcome": "killed", "killed_by": f"timeout after {TIMEOUT_S} s", "ran": files, "seconds": TIMEOUT_S}
            if done.returncode != 0:
                break
        seconds = round(time.perf_counter() - start, 2)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)  # a node id may hold spaces
    outcome = "survived" if done.returncode == 0 else "killed"
    return record | {"outcome": outcome, "killed_by": failed and failed.group(1), "ran": files, "seconds": seconds}


def main() -> int:
    # a stash commit needs a committer, which a fresh CI checkout may not have configured
    rev = git("-c", "user.name=mutation", "-c", "user.email=mutation@localhost", "stash", "create").decode().strip() or "HEAD"
    archive = git("archive", "--format=tar", rev)
    ok = True
    for mutant in [None, *MUTANTS]:
        record = run(archive, mutant)
        print(json.dumps(record), flush=True)
        ok &= record["outcome"] == {"equivalent": "survived"}.get(record["expect"], record["expect"])
        if not ok and mutant is None:
            print("the unmutated tree fails tier-1, so no mutant can be judged", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
