#!/usr/bin/env python3
"""List the public functions that no shipped code calls.

Usage: dead_api.py [ROOT]

Prints every `pub fn` defined in `crates/*/src` whose name appears nowhere
in shipped code except in its own definition. Shipped code is
`crates/*/src/**/*.rs` up to each file's first `#[cfg(test)]` line (so the
`crates/serve/src/bin/` binaries count), `src/`, `examples/` and
`perfbench/src`; comments are ignored. Test files and unit tests do not
count as callers.

A name is matched as a whole identifier, so two functions that share a name
(`new`, `len`) keep each other off the list: the list is a lower bound on
what is uncalled, and the script is advisory. The output is a
GitHub-flavoured markdown list (pipe it into `$GITHUB_STEP_SUMMARY`); the
script always exits 0 once it has printed it.
"""

import os
import re
import sys
from collections import Counter

TEST_MARK = "#[cfg(test)]"
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rust_files(root: str, top: str):
    base = os.path.join(root, top)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def shipped_lines(path: str):
    """The file's lines before its first `#[cfg(test)]`, comments removed."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip().startswith(TEST_MARK):
                break
            out.append(line.split("//", 1)[0])
    return out


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    crate_files = [
        path
        for crate in sorted(os.listdir(os.path.join(root, "crates")))
        for path in rust_files(root, os.path.join("crates", crate, "src"))
    ]
    other_files = [
        path
        for top in ("src", "examples", os.path.join("perfbench", "src"))
        for path in rust_files(root, top)
    ]
    uses = Counter()
    definitions = []
    for path in crate_files + other_files:
        lines = shipped_lines(path)
        for number, line in enumerate(lines, 1):
            uses.update(IDENT.findall(line))
            if path in crate_files:
                m = PUB_FN.match(line)
                if m:
                    definitions.append((os.path.relpath(path, root), number, m.group(1)))
    dead = [(p, n, name) for p, n, name in definitions if uses[name] == 1]
    print(f"### Public functions no shipped code calls ({len(dead)})\n")
    print("Matched by name, so the list is a lower bound.\n")
    for path, number, name in dead:
        print(f"- `{name}` ({path}:{number})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
