"""Every example script must run clean, end to end.

Examples are the public face of the library; this test keeps them
from rotting.  Each script runs in a subprocess (fresh interpreter,
like a user would) and must exit 0 with non-trivial stdout and no
traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))

#: Minimal strings each example promises to print (a cheap output
#: contract: the script not only exits 0 but did its actual job).
EXPECTED_OUTPUT = {
    "quickstart.py": "1 flipping pattern(s)",
    "movies_example1.py": "Fig. 2(a) flip, recovered",
    "null_invariance_demo.py": "verify_mining_invariance: OK",
    "related_work_pipelines.py": "[Flipper]",
    "archive_and_compare_runs.py": "round-trip check",
    "pruning_ladder.py": "BASIC",
    "columnar_store_images.py": "warm patterns byte-identical to cold: yes",
}


def test_examples_directory_found():
    assert SCRIPTS, f"no examples found under {EXAMPLES_DIR}"


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[script.name for script in SCRIPTS]
)
def test_example_runs_clean(script):
    # The subprocess changes cwd, so a relative PYTHONPATH entry (the
    # documented `PYTHONPATH=src` invocation) would no longer resolve;
    # prepend the absolute src dir instead.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=EXAMPLES_DIR,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "Traceback" not in completed.stderr
    assert len(completed.stdout.strip()) > 50, "examples must narrate"
    expected = EXPECTED_OUTPUT.get(script.name)
    if expected is not None:
        assert expected in completed.stdout
