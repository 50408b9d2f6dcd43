#!/usr/bin/env python3
"""Diff the equivalence-class partition between two classification reports.

Usage: classify_delta.py PREVIOUS CURRENT

PREVIOUS is a directory (searched recursively for ``classification*.json``)
or a single file; CURRENT is the ``classification.json`` produced by this
run (the output of the ``classify_sweep`` example). Both hold a
``ClassificationReport``: subjects with family/stages/replication and the
class partition keyed by ``"n=<stages> <verdict>"``.

The script writes a GitHub-flavoured markdown summary to stdout (pipe it
into ``$GITHUB_STEP_SUMMARY``) and emits ``::warning`` annotations when the
partition changed — classes appearing or disappearing, or members moving
between classes. Like ``stability_delta.py`` it is advisory: it never exits
nonzero and never fails the job, because a partition change may be an
intentional grid change rather than a regression.
"""

import json
import pathlib
import sys


def subject_name(subject: dict) -> str:
    return f"{subject['family']}/n={subject['stages']}#{subject['replication']}"


def load_partition(path: pathlib.Path) -> dict:
    """class key -> sorted member names, from one report file or the first
    classification*.json found under a directory."""
    files = [path]
    if path.is_dir():
        files = sorted(path.rglob("classification*.json"))
    for f in files:
        try:
            report = json.loads(f.read_text())
            subjects = report["subjects"]
            partition = {}
            for cls in report["classes"]:
                members = sorted(subject_name(subjects[i]) for i in cls["members"])
                partition[cls["key"]] = members
            return partition
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            continue
    return {}


def verdict_breakdown(path: pathlib.Path) -> None:
    """Per-family verdict summary of the current report — with Benes, its
    variant, and rewritten catalog members in the grid the raw partition
    mixes equivalent and non-equivalent classes, so a family-level rollup
    makes the enlarged partition readable at a glance."""
    try:
        report = json.loads(path.read_text())
        subjects = report["subjects"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    families: dict = {}
    for s in subjects:
        eq, total = families.get(s["family"], (0, 0))
        families[s["family"]] = (eq + (1 if s["equivalent"] else 0), total + 1)
    print("### Verdicts by family\n")
    print("| family | equivalent | subjects | verdict |")
    print("|---|---:|---:|---|")
    for family in sorted(families):
        eq, total = families[family]
        if eq == total:
            verdict = "all Baseline-equivalent"
        elif eq == 0:
            verdict = "none Baseline-equivalent"
        else:
            verdict = "mixed"
        print(f"| `{family}` | {eq} | {total} | {verdict} |")
    print()


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} PREVIOUS CURRENT", file=sys.stderr)
        return 0
    current_path = pathlib.Path(sys.argv[2])
    previous = load_partition(pathlib.Path(sys.argv[1]))
    current = load_partition(current_path)

    print("## Equivalence-class partition vs. previous run\n")
    if current:
        verdict_breakdown(current_path)
    if not current:
        print("_No classification report was produced by this run._")
        return 0
    if not previous:
        print("_No previous-run artifact available; showing current partition only._\n")
        print("| class | size |")
        print("|---|---:|")
        for key in sorted(current):
            print(f"| `{key}` | {len(current[key])} |")
        return 0

    changes = []
    added_classes = sorted(set(current) - set(previous))
    removed_classes = sorted(set(previous) - set(current))
    print("| class | previous size | current size | change |")
    print("|---|---:|---:|---|")
    for key in sorted(current):
        cur = current[key]
        prev = previous.get(key)
        if prev is None:
            print(f"| `{key}` | — | {len(cur)} | new class |")
            continue
        if prev == cur:
            print(f"| `{key}` | {len(prev)} | {len(cur)} | unchanged |")
            continue
        joined = sorted(set(cur) - set(prev))
        left = sorted(set(prev) - set(cur))
        detail = []
        if joined:
            detail.append("joined: " + ", ".join(f"`{m}`" for m in joined))
        if left:
            detail.append("left: " + ", ".join(f"`{m}`" for m in left))
        print(f"| `{key}` | {len(prev)} | {len(cur)} | {'; '.join(detail)} |")
        changes.append((key, joined, left))
    for key in removed_classes:
        print(f"| `{key}` | {len(previous[key])} | — | removed class |")

    if added_classes:
        print(f"\n**Added classes ({len(added_classes)}):** "
              + ", ".join(f"`{k}`" for k in added_classes))
    if removed_classes:
        print(f"\n**Removed classes ({len(removed_classes)}):** "
              + ", ".join(f"`{k}`" for k in removed_classes))
    if not added_classes and not removed_classes and not changes:
        print("\n_Partition unchanged._")

    # Annotate (never fail) on any partition movement; a changed grid is a
    # legitimate cause, so this is advisory — the same policy as the bench
    # median deltas.
    for key in added_classes:
        print(f"::warning title=Partition change::new equivalence class `{key}`",
              file=sys.stderr)
    for key in removed_classes:
        print(f"::warning title=Partition change::equivalence class `{key}` disappeared",
              file=sys.stderr)
    for key, joined, left in changes:
        print(
            f"::warning title=Partition change::membership of `{key}` changed "
            f"(+{len(joined)}/-{len(left)})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
