#!/usr/bin/env python3
"""Net line delta of the shipped (non-test) Rust code between two revisions.

Usage: loc_delta.py BASE [HEAD]

BASE and HEAD are git revisions; without HEAD the working tree is compared
(tracked and untracked, not ignored files, read from disk). For every crate
the script counts the lines of `crates/<crate>/src/**/*.rs` (and of the root
`src/**/*.rs`) that come before the file's first `#[cfg(test)]` line; the
rest of such a file is test code and is not counted.

A source file that git sees renamed into a `tests/` directory counts in
the "moved to tests" column with its BASE non-test lines, and the last
column adds it back: a reference oracle moved out of the library is not a
reduction of the code. The output is a GitHub-flavoured markdown table
(pipe it into `$GITHUB_STEP_SUMMARY`). The script is advisory and always
exits 0 once it has printed the table.
"""

import os
import subprocess
import sys
from collections import defaultdict

TEST_MARK = "#[cfg(test)]"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def crate_of(path: str):
    """The crate a shipped source file belongs to, or None for other files."""
    if not path.endswith(".rs"):
        return None
    parts = path.split("/")
    if parts[0] == "src":
        return "(root)"
    if len(parts) > 3 and parts[0] == "crates" and parts[2] == "src":
        return f"crates/{parts[1]}"
    return None


def non_test_lines(text: str) -> int:
    count = 0
    for line in text.splitlines():
        if line.strip().startswith(TEST_MARK):
            break
        count += 1
    return count


def read(rev, path: str) -> str:
    if rev is None:
        with open(path, encoding="utf-8") as f:
            return f.read()
    return git("show", f"{rev}:{path}")


def files(rev) -> list:
    if rev is None:
        listed = git("ls-files", "--cached", "--others", "--exclude-standard")
        return [p for p in listed.splitlines() if os.path.exists(p)]
    return git("ls-tree", "-r", "--name-only", rev).splitlines()


def counts(rev) -> dict:
    out = defaultdict(int)
    for path in files(rev):
        crate = crate_of(path)
        if crate is not None:
            out[crate] += non_test_lines(read(rev, path))
    return out


def moved_to_tests(base: str, head) -> dict:
    """Per crate, the BASE non-test lines of sources renamed into tests/."""
    out = defaultdict(int)
    revs = [base] if head is None else [base, head]
    for line in git("diff", "-M", "--name-status", *revs).splitlines():
        fields = line.split("\t")
        if not fields[0].startswith("R") or len(fields) != 3:
            continue
        old, new = fields[1], fields[2]
        crate = crate_of(old)
        if crate is not None and (new.startswith("tests/") or "/tests/" in new):
            out[crate] += non_test_lines(read(base, old))
    return out


def main(argv: list) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base = argv[1]
    head = argv[2] if len(argv) == 3 else None
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    before, after, moved = counts(base), counts(head), moved_to_tests(base, head)
    print(f"### Non-test Rust lines, {base} → {head or 'working tree'}\n")
    print("| crate | base | head | delta | moved to tests | delta without moves |")
    print("|---|---:|---:|---:|---:|---:|")
    total = [0, 0, 0]
    for crate in sorted(set(before) | set(after)):
        b, a, m = before[crate], after[crate], moved[crate]
        total = [total[0] + b, total[1] + a, total[2] + m]
        print(f"| {crate} | {b} | {a} | {a - b:+d} | {m} | {a - b + m:+d} |")
    b, a, m = total
    print(f"| **total** | {b} | {a} | {a - b:+d} | {m} | {a - b + m:+d} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
