"""The differential digest (`tests/digest.py`) gives its pinned total.

A refactor keeps the total. A change that alters an output on purpose, or
the fixed input texts of `tests/digest_corpus.json`, updates the pin: run
the script with the parent commit's `src` and with the change's, both on the
change's `tests` directory, and diff their lines. Test edits leave the
total alone, since the digest reads no test file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptq

TOTAL = "a304419a288cd973"


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_total_is_pinned(seed):
    env = {**os.environ, "PYTHONPATH": str(Path(ptq.__file__).parents[1]), "PYTHONHASHSEED": seed}
    script = Path(__file__).with_name("digest.py")
    done = subprocess.run([sys.executable, str(script), "--total"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{TOTAL}  total\n"
