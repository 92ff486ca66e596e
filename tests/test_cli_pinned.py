"""`family` outputs and every cap's `feasibility:` line pinned byte for byte.

tests/data/family_pinned.json holds the exit code, stdout and stderr of
`family --m M` for M = 4, 6, 8, 10, 12, plain and `--exhaustive`, text
and JSON.  tests/data/caps_pinned.json holds one refusal per cap and per
form that the command line reaches: the exact size, and the `about 10^k`
form of a size past 100 digits.  A case with a "code" runs on that code
file, put where its argv says {input}.  Both were recorded at commit
6ec4e35, but for `family --m 10/12 --exhaustive`, recorded at 9dadecc with
the group cap raised, and the refusals of the search's masks and budget
and of the pair counts, recorded with the change that added those caps.
"""

import io
import json
from pathlib import Path

import pytest

from hamnt.cli import main

DATA = Path(__file__).parent / "data"
FAMILY = json.loads((DATA / "family_pinned.json").read_text())
CAPS = json.loads((DATA / "caps_pinned.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    return [main(argv, out, err), out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("case", FAMILY, ids=[" ".join(c["argv"][1:]) for c in FAMILY])
def test_family_matches_pinned_output(case):
    assert run(case["argv"]) == case["outputs"]


@pytest.mark.parametrize("case", CAPS, ids=[case["name"] for case in CAPS])
def test_cap_refusal_matches_pinned_line(case, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(case.get("code", ""))
    assert run([str(path) if a == "{input}" else a for a in case["argv"]]) == case["outputs"]
