#!/usr/bin/env python3
"""Run every built-in catalog problem with its declared task.

Prints one line per entry: id, task, exit code, and a short outcome note,
then the number of entries that failed: those whose exit code differs from
the entry's declared `exit`, and those whose JSON report is not byte for
byte what `json.dumps(json.loads(report), indent=2)` writes.  Exits 1 when
that number is non-zero.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from fpcert import catalog
from fpcert.cli import main


def run_entry(entry):
    argv = [entry.task, "@" + entry.id, "--format", "json", "--stable"]
    for key, value in entry.kwargs.items():
        argv += [f"--{key}", str(value)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    note = err.getvalue().strip().splitlines()
    return code, elapsed, note[0] if note else "", out.getvalue()


def is_indent2_json(report):
    """Whether report (stdout, one trailing newline) is exactly the text of
    json.dumps(json.loads(report), indent=2)."""
    try:
        return report == json.dumps(json.loads(report), indent=2) + "\n"
    except ValueError:
        return False


def main_script():
    width = max(len(e) for e in catalog.CATALOG) + 2
    failures = 0
    for entry_id in sorted(catalog.CATALOG):
        entry = catalog.CATALOG[entry_id]
        code, elapsed, note, report = run_entry(entry)
        line = f"{entry_id:<{width}} {entry.task:<9} exit={code}  {elapsed:6.2f}s"
        if code != entry.exit:
            failures += 1
            line += f"  FAILED, expected exit {entry.exit}"
        elif report and not is_indent2_json(report):
            failures += 1
            line += "  FAILED, report differs from json.dumps(indent=2)"
        if note:
            line += f"  ({note[:70]})"
        print(line)
    print(f"\n{len(catalog.CATALOG)} entries, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_script())
