"""Mutant catalogue: faults planted in the package, each with the tests
that must kill it.

    python tests/mutants.py [--only NAME]

Each mutant replaces one exact text of one source file.  The script first
runs every killer test on an unmutated `git archive` copy of HEAD (they
must pass there), then, for each mutant, extracts a fresh copy into a
temporary directory outside the repository, applies the mutant and runs
its killers with pytest.  It prints `killed` (a killer failed or its
module no longer imports), `survived` (all passed) or `broken` (pytest
ran none) with the time taken, and exits 1 unless every mutant is
killed.  Nothing is written inside the repository.
tests/test_traceio.py checks that each old text occurs exactly once in
its file, so a change that moves the code must update the table on
purpose.

Not collected by pytest: the file name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    killers: tuple[str, ...]  # pytest node ids


FORMULA, MONITOR, TRACEIO = "src/mtlmon/formula.py", "src/mtlmon/monitor.py", "src/mtlmon/traceio.py"
ENTRY = "tests/test_entry_points.py"
RULE = f"{ENTRY}::test_the_rule_names_the_node_and_the_field"

MUTANTS = (
    Mutant(
        "until-horizon-without-minus-1",
        FORMULA,
        "horizon = max(left_horizon + int(up) - 1, right_horizon + int(up))",
        "horizon = max(left_horizon + int(up), right_horizon + int(up))",
        (
            "tests/test_formula.py::test_bounds_agree_between_surface_and_core",
            "tests/test_formula.py::test_time_mirror_swaps_until_and_since_and_horizon_and_history",
        ),
    ),
    Mutant(
        "unbounded-since-history-without-minus-1",
        FORMULA,
        "history = max(left_history + max(lo, 1) - 1, right_history + lo)",
        "history = max(left_history + max(lo, 1), right_history + lo)",
        (
            "tests/test_formula.py::test_bounds_agree_between_surface_and_core",
            "tests/test_monitor.py::test_cr_unbounded_since_reads_table_index_0_at_its_leftmost_column",
        ),
    ),
    Mutant(
        "rule-accepts-upper-0",
        FORMULA,
        "type(iv) is not Interval or iv.upper < 1 or",
        "type(iv) is not Interval or iv.upper < 0 or",
        (
            "tests/test_monitor.py::test_zero_window_compiles_to_its_trigger",
            f"{RULE}[until-0-0]",
            f"{ENTRY}::test_a_zero_window_until_at_horizon_4100_is_refused_before_it_is_monitored",
        ),
    ),
    Mutant(
        "rule-accepts-an-unbounded-until",
        FORMULA,
        "(kind == UNTIL and iv.upper == math.inf)",
        "(kind == UNTIL and False)",
        (f"{RULE}[until-unbounded]",),
    ),
    Mutant(
        "rule-accepts-an-operand-at-its-own-index",
        FORMULA,
        "(k < m < count if used else m == -1)",
        "(k <= m < count if used else m == -1)",
        (f"{RULE}[not-of-itself]",),
    ),
    Mutant(
        "rule-ignores-an-unused-operand",
        FORMULA,
        "(k < m < count if used else m == -1)",
        "(k < m < count if used else True)",
        (f"{RULE}[true-with-operand]",),
    ),
    Mutant(
        "rule-ignores-an-interval-where-none-belongs",
        FORMULA,
        "if kind not in (UNTIL, SINCE) and iv is not None:",
        "if False:",
        (f"{RULE}[or-with-interval]",),
    ),
    Mutant(
        "rule-drops-the-name-check",
        FORMULA,
        "if type(node.name) is not _NAME_TYPE[kind]:",
        "if False:",
        (f"{RULE}[atom-without-name]",),
    ),
    Mutant(
        "derivation-runs-root-first",
        FORMULA,
        "for k in range(len(nodes) - 1, -1, -1):  # operands before their users",
        "for k in range(len(nodes)):",
        ("tests/test_formula.py::test_bounds_agree_between_surface_and_core",),
    ),
    Mutant(
        "compiler-keeps-a-zero-window",
        FORMULA,
        "if interval.upper == 0:\n            return n",
        "if False:\n            return n",
        ("tests/test_monitor.py::test_zero_window_compiles_to_its_trigger",),
    ),
    Mutant(
        "predict-hold-guard-dropped",
        TRACEIO,
        "if (size := 8 * horizon) > (ram := semantics.physical_memory()):",
        "if False:",
        ("tests/test_traceio.py::test_predict_hold_refuses_copies_larger_than_physical_memory",),
    ),
    Mutant(
        "predict-trace-check-dropped",
        TRACEIO,
        '    if not isinstance(trace, Trace):\n        raise TypeError(f"trace must be a Trace, got {trace!r}")\n'
        '    i = checked_index(i, "step", 0, len(trace) - 1)\n',
        '    i = checked_index(i, "step", 0, len(trace) - 1)\n',
        (f"{ENTRY}::test_one_odd_argument_is_refused_by_a_package_check",),
    ),
    Mutant(
        "first-recomputed-column-one-right",
        MONITOR,
        "jlo = max(row.start, 1 - self.i, new - row.horizon)",
        "jlo = max(row.start, 1 - self.i, new - row.horizon + 1)",
        ("tests/test_monitor.py::test_cells_left_of_row_horizon_are_shifted_unchanged",),
    ),
    Mutant(
        "core-node-not-public",
        "src/mtlmon/__init__.py",
        '    "CoreNode",\n',
        "",
        (f"{ENTRY}::test_every_public_callable_has_a_valid_call",),
    ),
)


# pytest's exit code on a mutant whose killers all pass on HEAD unmutated:
# 2 or 4 when a killer's module no longer imports, as when a mutant breaks
# every compiled formula
VERDICTS = {0: "survived", 1: "killed", 2: "killed (import failed)", 4: "killed (import failed)"}


def fresh_copy(into: Path) -> None:
    """The files of HEAD that the killers read, extracted into `into`."""
    archive = subprocess.run(
        ["git", "archive", "HEAD", "src", "tests", "pyproject.toml"], cwd=REPO, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_killers(root: Path, killers: tuple[str, ...]) -> int:
    """pytest's exit code for the killers run in root: 0 passed, 1 failed."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAME", help="run this mutant alone")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m.name)]
    if not mutants:
        parser.error(f"no mutant named {args.only!r}")
    with tempfile.TemporaryDirectory(prefix="mtlmon-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        fresh_copy(clean)
        killers = tuple(dict.fromkeys(k for m in mutants for k in m.killers))
        if (code := run_killers(clean, killers)) != 0:
            print(f"the killers do not pass on HEAD unmutated (pytest exit {code})")
            return 1
        survivors = 0
        for n, mutant in enumerate(mutants):
            start = time.perf_counter()
            root = Path(tmp) / f"mutant-{n}"
            fresh_copy(root)
            path = root / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
                return 1
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            code = run_killers(root, mutant.killers)
            verdict = VERDICTS.get(code, f"broken (pytest exit {code})")
            survivors += not verdict.startswith("killed")
            print(f"{verdict:10} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
