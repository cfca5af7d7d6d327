"""Run textual mutants of the geometry core against tier-1 and the reports.

Each mutant replaces a text that occurs exactly once under src/ by another,
breaking one formula.  For each mutant the script copies this checkout
(without .git and caches) to a temporary directory and applies the mutant
there.  It then runs the tier-1 suite in the copy, stopping at the first
failure (tests/test_mutants.py, which checks that every old text is in
place, is left out); if every test passes, it runs tests/compare_reports.py in the copy
against this checkout.  It prints one line per mutant, `killed by <first
failing test>`, `killed by report <first differing key>` or `SURVIVED`, with
its wall time, and exits 1 if any mutant survived:

    python tests/mutants.py [NAME ...]

NAME picks mutants by name (default: all).  Nothing is written into this
checkout: the children write no bytecode and no pytest cache.  Each mutant
costs one tier-1 run, and one report comparison if tier-1 passes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str       # relative to the checkout
    old: str        # occurs exactly once under src/
    new: str
    breaks: str     # the formula it breaks


MUTANTS = {
    "lambda-ode-factor": Mutant(
        "src/torseform/warped.py",
        'b_val = abs(np.einsum("...a,...a->...", grad_lam, u) - f * (1.0 - lam ** 2))',
        'b_val = abs(np.einsum("...a,...a->...", grad_lam, u) - 0.0)',
        "ambient-decomposition's E₁(λ) = f(1 − λ²) loses f(1 − λ²)"),
    "metric-derivative-term": Mutant(
        "src/torseform/metric.py",
        'np.einsum("...aij,...i,...j->...a", mp.dg, v, v)',
        '0.0 * np.einsum("...aij,...i,...j->...a", mp.dg, v, v)',
        "∂_a |V|² = ∂_a g_ij V^i V^j + 2 g_ij V^i ∂_a V^j loses its ∂g term"),
}

#: what a copy leaves out of the checkout
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", ".bench_work", ".benchmarks")
#: tier-1, stopping at the first failure, without the test that the old
#: texts are present, which every mutant fails by its making
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text in its file under `root`."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.file}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _first(text: str, test) -> str | None:
    """The first line of `text` that passes `test`, if any."""
    return next((line for line in text.splitlines() if test(line)), None)


def verdict(mutant: Mutant) -> str:
    """`killed by ...` or `SURVIVED` for one mutant, run in a copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="torseform-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(HERE, copy, ignore=IGNORED)
        apply(mutant, copy)
        tier1 = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                               capture_output=True, text=True)
        failed = _first(tier1.stdout, lambda line: line.startswith(("FAILED ", "ERROR ")))
        if failed:
            return "killed by " + failed.split(" - ")[0].split(" ", 1)[1]
        if tier1.returncode:
            return f"killed by tier-1 exit code {tier1.returncode}"
        compared = subprocess.run([sys.executable, "tests/compare_reports.py", str(HERE)],
                                  cwd=copy, env=env, capture_output=True, text=True)
        differs = _first(compared.stdout, lambda line: line.endswith(": DIFFERS"))
        if differs:
            return "killed by report " + differs.removesuffix(": DIFFERS")
        if compared.returncode:
            return f"killed by compare_reports.py exit code {compared.returncode}"
    return "SURVIVED"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to run (default: all of {', '.join(MUTANTS)})")
    names = parser.parse_args(argv).names or list(MUTANTS)
    for name in names:
        if name not in MUTANTS:
            parser.error(f"unknown mutant '{name}' (known: {', '.join(MUTANTS)})")
    survived = 0
    for name in names:
        start = time.perf_counter()
        outcome = verdict(MUTANTS[name])
        survived += outcome == "SURVIVED"
        print(f"{name}: {outcome} ({time.perf_counter() - start:.1f} s)  "
              f"[{MUTANTS[name].breaks}]", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
