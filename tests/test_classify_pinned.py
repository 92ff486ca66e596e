"""`classify` and `stabilizer` outputs pinned byte for byte.

tests/data/classify_pinned.json lists codes with the exit code and stdout
of `classify --format json` and `stabilizer --format json` on each,
recorded at commit 1e085cb, where the witness came from the first
sigma(0) block of the element search maps_into.  The codes: the 8
distance-4 pairs of H(4,2); the 36 three-word codes of H(3,3); the 15
four-word codes of H(6,2) with delta >= 3 that contain 000000 and that
their neighbour-set stabilizer moves; the doubled-vector family's C for
m = 4..12; the extended Hamming [8,4,4] code
and one relabelled image of it.
"""

import io
import json
from pathlib import Path

import pytest

from hamnt.cli import main

PINNED = json.loads((Path(__file__).parent / "data" / "classify_pinned.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=[case["name"] for case in PINNED])
def test_classify_and_stabilizer_match_pinned_output(case, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(case["code"])
    for command, (exit_code, stdout) in case["outputs"].items():
        out, err = io.StringIO(), io.StringIO()
        got = main([command, "--input", str(path), "--format", "json", *case["args"]], out, err)
        assert (got, out.getvalue(), err.getvalue()) == (exit_code, stdout, "")
