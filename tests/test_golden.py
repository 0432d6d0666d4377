"""The golden digests of `golden.py` hold: a change that moves one bit of a
seeded toy training run, a step's loss or gradients, a separation or a line
of `dpsep gradcheck`'s report fails here and names the first case that
moved."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import GOLDEN_PATH, GROUPS, group_digest

_HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def taken():
    """The stack stamp and every case digest, taken in a fresh process on one
    BLAS thread, as the CLI's default `threads=1` runs."""
    src = str(_HERE.parent / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, str(_HERE), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, str(_HERE / "golden.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("group", GROUPS)
def test_golden_digests_hold(group, taken):
    pins = json.loads(GOLDEN_PATH.read_text())
    if taken["stack"] != pins["stack"]:
        pytest.skip(f"digests pinned on {pins['stack']}; this stack is {taken['stack']}")
    cases = [tuple(case) for case in taken["groups"][group]]
    pinned = pins["groups"][group]
    if group_digest(cases) == pinned["digest"]:
        return
    moved = next(
        (name for name, digest in cases if pinned["cases"].get(name) != digest[:16]),
        "none by its own digest: the cases or their order changed",
    )
    pytest.fail(f"{group}: first case that moved: {moved}")
