"""The standing soundness experiment, small: scripts/fuzz_soundness.py on
100 problems of seed 7 (volume tiling, PROVEN oracles, metamorphic, memo,
region and edge-margin checks, holed balls whose tighten step takes
corner rows, planted degenerate fixed sets, and maps that raise on part
of their rectangle), in a subprocess as it is run from the command line."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fuzz_soundness_smoke_run_has_no_violation():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fuzz_soundness.py"), "--n", "100", "--seed", "7"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "violations: 0", out.stdout
    for pattern in (r"^translate checks=(\d+) ", r"^permute checks=(\d+) ",
                    r"^\d+ holed balls .* corner rows=(\d+) ",
                    r"^\d+ edge-margin problems .* edge checks=(\d+)$",
                    r"^\d+ degenerate localizations .* planted checks=(\d+) ",
                    r"^\d+ partial-domain localizations .* raised=(\d+)$"):
        found = re.search(pattern, out.stdout, re.M)
        assert found and int(found.group(1)) > 0, (pattern, out.stdout)
