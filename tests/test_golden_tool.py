"""The frozen oracle is what its generator writes.  The optimizer and
special-function tests compare against ``tests/_golden.py``; this test
reruns ``tools/make_golden_traces.py`` into a temporary file and asserts
the bytes match, so a hand edit or a stale regeneration shows up here."""

import importlib.util
from pathlib import Path

from mpmath import mp

ROOT = Path(__file__).resolve().parent.parent
TOOL_PATH = ROOT / "tools" / "make_golden_traces.py"


def test_golden_file_matches_generator(tmp_path):
    out = tmp_path / "_golden.py"
    with mp.workdps(mp.dps):  # the tool sets mpmath's global precision
        spec = importlib.util.spec_from_file_location("make_golden_traces", TOOL_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.OUT_PATH = out
        module.main()
    assert out.read_bytes() == (ROOT / "tests" / "_golden.py").read_bytes()
