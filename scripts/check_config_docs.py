#!/usr/bin/env python3
"""Configuration and counter documentation gate.

Every public field of ``PierConfig`` (crates/core/src/engine.rs) must have a
matching ``### `field_name` `` heading in ``docs/OPERATIONS.md`` — operators
read that file, not the source.  Likewise every public field of
``EngineStats`` must be named in the first column of the ``## Counters``
table there.  Both field lists are parsed from the struct definitions
themselves, so a newly added knob or counter fails CI until it is
documented; a documented-but-removed one fails too, so the docs cannot go
stale.

Usage:
    python3 scripts/check_config_docs.py [--repo .]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

STRUCT = "PierConfig"
COUNTERS = "EngineStats"
SOURCE = Path("crates/core/src/engine.rs")
DOCS = Path("docs/OPERATIONS.md")


def struct_fields(source: str, struct: str) -> list[str]:
    m = re.search(rf"pub struct {struct} \{{\n(.*?)\n\}}", source, re.DOTALL)
    if not m:
        sys.exit(f"check_config_docs: 'pub struct {struct}' not found in {SOURCE}")
    fields = re.findall(r"^    pub (\w+):", m.group(1), re.MULTILINE)
    if not fields:
        sys.exit(f"check_config_docs: no public fields parsed from {struct}")
    return fields


def documented_fields(docs: str) -> list[str]:
    return re.findall(r"^### `(\w+)`", docs, re.MULTILINE)


def documented_counters(docs: str) -> list[str]:
    """Names in the first column of the ``## Counters`` table (a row may
    name several counters: ``| `a` / `b` | ... |``)."""
    m = re.search(r"^## Counters\n(.*?)(?=^## |\Z)", docs, re.DOTALL | re.MULTILINE)
    if not m:
        sys.exit(f"check_config_docs: no '## Counters' section in {DOCS}")
    names = []
    for row in re.findall(r"^\|([^|\n]*)\|", m.group(1), re.MULTILINE):
        names.extend(re.findall(r"`(\w+)`", row))
    return names


def report(kind: str, fields: list[str], documented: list[str], fix: str) -> bool:
    """Print the mismatches between ``fields`` and ``documented``; True if none."""
    missing = [f for f in fields if f not in documented]
    stale = [d for d in documented if d not in fields]
    if missing:
        print(f"\ncheck_config_docs: FAILED — {kind} missing from {DOCS}:")
        for f in missing:
            print(f"  - {f}  ({fix.format(f)})")
    if stale:
        print(f"\ncheck_config_docs: FAILED — documented {kind} no longer in the source:")
        for d in stale:
            print(f"  - {d}  (remove or rename its entry)")
    return not missing and not stale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".", help="repository root")
    args = ap.parse_args()
    repo = Path(args.repo)

    source_path = repo / SOURCE
    docs_path = repo / DOCS
    if not source_path.exists():
        sys.exit(f"check_config_docs: missing {source_path}")
    if not docs_path.exists():
        sys.exit(f"check_config_docs: missing {docs_path} — every {STRUCT} knob "
                 f"must be documented there")

    source = source_path.read_text()
    docs = docs_path.read_text()
    fields = struct_fields(source, STRUCT)
    documented = documented_fields(docs)
    counters = struct_fields(source, COUNTERS)
    documented_ctrs = documented_counters(docs)

    print(f"check_config_docs: {len(fields)} {STRUCT} fields, "
          f"{len(documented)} documented knobs; {len(counters)} {COUNTERS} fields, "
          f"{len(documented_ctrs)} documented counters")
    ok = report(f"{STRUCT} knobs", fields, documented, "add a '### `{}`' section")
    ok &= report(f"{COUNTERS} counters", counters, documented_ctrs,
                 "add a row to the '## Counters' table")
    if not ok:
        return 1
    print("check_config_docs: every configuration knob and counter is documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
