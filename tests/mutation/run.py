"""Apply each mutant of ``mutants.py`` to a copy of the tree and run tier-1 against it.

    python tests/mutation/run.py

The tree is the checkout's tracked files as they stand, staged or not
(``git stash create``; ``HEAD`` when nothing has changed). For each mutant
it is exported with ``git archive`` into a temporary directory, the
mutant's ``old`` text is replaced, and tier-1 runs there with ``-x``, the
cheapest test files first. The unmutated tree runs first as the control.
One JSON line per run goes to stdout: the mutant, its expected and actual
outcome, the test that killed it and the seconds taken. The exit status is
1 if the control fails, a mutant's outcome differs from its ``expect``, or
its ``old`` text does not occur exactly once. Stdlib only.
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
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", *ordered_test_files(tree)]
        env = os.environ | {"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return record | {"outcome": "killed", "killed_by": f"timeout after {TIMEOUT_S} s", "seconds": TIMEOUT_S}
        seconds = round(time.perf_counter() - start, 2)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)  # a node id may hold spaces
    outcome = "survived" if done.returncode == 0 else "killed"
    return record | {"outcome": outcome, "killed_by": failed and failed.group(1), "seconds": seconds}


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
