"""Mutation runner: each checked-in mutant of src/ must fail the tests named for it.

    python tools/mutants.py

Each entry of tools/mutants.json names a module under src/qreplica, a
fragment of its text, the fragment's replacement, and the test node IDs that
must kill the mutant. For each entry the runner copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the fragment, which must
occur exactly once in the module, and runs pytest there on the entry's tests
alone. Before any mutant it runs every listed test on an unmutated copy: a
kill means nothing if the test fails anyway. The copies run Hypothesis
without shrinking: a killer's first failing example already kills, and
shrinking it could take most of a run.

A mutant is killed when a listed test fails; one that stops pytest before
its tests run (a syntax or import error) is reported as an error. Exit
status: 0 if every mutant is killed; 1 if one survives or errs, if a
fragment does not occur exactly once, or if a listed test fails on the
unmutated copy. It uses only the standard library and the suite's pytest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
TIMEOUT_S = 600
# Appended to the copy's tests/conftest.py, after the suite loads its profile.
NO_SHRINK = """
from hypothesis import Phase as _Phase, settings as _settings

_settings.register_profile("mutants", _settings.default, phases=[p for p in _Phase if p is not _Phase.shrink])
_settings.load_profile("mutants")
"""


def copy_tree(into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=IGNORED)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    with open(into / "tests" / "conftest.py", "a", encoding="utf-8") as conftest:
        conftest.write(NO_SHRINK)


def run_tests(where: Path, tests: list[str]) -> tuple[int, str]:
    """pytest's exit status on ``tests`` in the copy at ``where`` (0 all
    passed, 1 some failed, other values an error), and its last lines."""
    # The copy's own src/ is imported; its pyproject.toml puts it first on the path too.
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(argv, cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # A run that hangs has not passed: a mutant that makes a test hang is killed.
        return 1, f"timed out after {TIMEOUT_S} s"
    return proc.returncode, "\n".join(proc.stdout.strip().splitlines()[-3:])


def main() -> int:
    entries = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))

    started = time.perf_counter()
    failures = 0
    mutants = []
    for entry in entries:
        text = (ROOT / "src" / "qreplica" / entry["module"]).read_text(encoding="utf-8")
        count = text.count(entry["fragment"])
        # With no test named, pytest would run the whole suite.
        if count == 1 and entry["tests"]:
            mutants.append((entry, text.replace(entry["fragment"], entry["replacement"])))
        else:
            print(f"MISSING   {entry['name']}: fragment occurs {count} times in {entry['module']}, "
                  f"{len(entry['tests'])} tests named")
            failures += 1

    with tempfile.TemporaryDirectory(prefix="qreplica-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = list(dict.fromkeys(test for entry in entries for test in entry["tests"]))
        status, tail = run_tests(base, tests)
        if status != 0:
            print(f"BASELINE  the listed tests fail on the unmutated source:\n{tail}")
            return 1
        print(f"baseline  {len(tests)} listed tests pass unmutated ({time.perf_counter() - started:.1f} s)")

        for k, (entry, mutated) in enumerate(mutants):
            where = Path(tmp) / f"mutant{k}"
            copy_tree(where)
            (where / "src" / "qreplica" / entry["module"]).write_text(mutated, encoding="utf-8")
            began = time.perf_counter()
            status, tail = run_tests(where, entry["tests"])
            took = time.perf_counter() - began
            if status == 1:
                print(f"killed    {entry['name']} ({took:.1f} s)")
            else:
                # A mutant that stops collection or import proves nothing either.
                failures += 1
                verdict = "SURVIVED" if status == 0 else "ERROR   "
                print(f"{verdict}  {entry['name']} ({took:.1f} s): {entry['why']}\n{tail}")
            shutil.rmtree(where)

    print(f"{len(entries)} mutants, {failures} not killed, {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
