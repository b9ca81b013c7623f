"""Same numbers: run a fixed list of spe commands with the ``src`` of a git
revision and with the working tree's ``src``, and compare what they write.

Usage: python3 tools/same_outputs.py REV

REV is checked out into a temporary ``git worktree`` (no network needed).
Each command of ``COMMANDS`` runs once per tree, from that tree's root (so
it reads that tree's scenarios) with ``PYTHONPATH`` set to its ``src``, into
a temporary directory of its own.  The two output trees of a command are
compared byte for byte, and so are the two exit codes.

One line per command: ``same`` or ``differs``, then every file that differs
or exists on one side only.  Exit status 0 when nothing differs, 1 when
something does, 2 when REV cannot be checked out or a tree's ``spe`` is not
the one imported.
"""

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DATA = "src/spe/data"
#: the argv of each command, without --out
COMMANDS = [
    [sub, "--scenario", f"{DATA}/{name}.json"]
    for sub in ("solve", "invariants", "stability") for name in ("s1", "s2")
] + [
    ["sweep", "--scenario", f"{DATA}/s1.json"],
    ["entropy-check", "--scenario", f"{DATA}/riemann.json"],
    ["entropy-check", "--scenario", f"{DATA}/riemann.json",
     "--constants", "13", "--bumps", "5,5"],
]


def run_all(tree: Path, out: Path) -> list:
    """Run every command with ``tree``'s src, the k-th into ``out``/k; return
    the exit codes, or None when ``spe`` is not imported from ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    where = subprocess.run([sys.executable, "-c", "import spe; print(spe.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if not where.stdout.startswith(str(tree / "src")):
        print(f"spe is imported from {where.stdout.strip() or where.stderr.strip()}, "
              f"not from {tree / 'src'}", file=sys.stderr)
        return None
    return [subprocess.run([sys.executable, "-m", "spe.cli", *argv,
                            "--out", str(out / str(k))],
                           cwd=tree, env=env, capture_output=True).returncode
            for k, argv in enumerate(COMMANDS)]


def differing_files(a: Path, b: Path) -> list:
    """The files under ``a`` or ``b`` that are not byte-identical on both."""
    names = {p.relative_to(top) for top in (a, b) if top.is_dir()
             for p in top.rglob("*") if p.is_file()}
    return sorted(str(name) for name in names
                  if not ((a / name).is_file() and (b / name).is_file()
                          and filecmp.cmp(a / name, b / name, shallow=False)))


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="spe-same-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                                "--quiet", str(base), rev])
        if added.returncode != 0:
            return 2
        try:
            codes = [run_all(tree, tmp / label)
                     for tree, label in ((base, "rev"), (ROOT, "work"))]
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)])
        if None in codes:
            return 2
        status = 0
        for k, argv in enumerate(COMMANDS):
            diffs = differing_files(tmp / "rev" / str(k), tmp / "work" / str(k))
            if codes[0][k] != codes[1][k]:
                diffs.insert(0, f"exit code {codes[0][k]} at {rev}, {codes[1][k]} here")
            print(f"{'differs' if diffs else 'same':8} spe {' '.join(argv)}")
            for diff in diffs:
                print(f"         {diff}")
            status = max(status, 1 if diffs else 0)
        return status


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
