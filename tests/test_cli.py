import io
import json
import random

import pytest

from hamnt import (Code, HammingScheme, LemmaSuiteReport, run_lemma_suite,
                   write_code_file)
from hamnt.cli import main
from hamnt.family_codes import build_family
from hamnt.transitivity import CASE2, VERDICT_FIXED
from helpers import random_code_min_distance


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_family_m4_exhaustive_json():
    code, out, _ = run(["family", "--m", "4", "--exhaustive", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["stabilizer_order"] == 192
    from hamnt import FamilyReport
    assert FamilyReport.from_json(data).all_pass


def test_family_m6_exhaustive_json():
    code, out, _ = run(["family", "--m", "6", "--exhaustive", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer_order"] == 384


def test_family_odd_m_is_usage_error():
    for fmt in ("text", "json"):
        code, out, err = run(["family", "--m", "5", "--format", fmt])
        assert code == 2
        assert "must be even" in err


def test_family_m10_default_mode():
    code, out, _ = run(["family", "--m", "10"])
    assert code == 0
    assert "all clauses pass: True" in out


def test_family_exhaustive_cap_exceeded():
    code, _, err = run(["family", "--m", "10", "--exhaustive",
                        "--group-cap", "1000"])
    assert code == 2
    assert "feasibility" in err


def test_classify_family_code(tmp_path):
    path = tmp_path / "family4.code"
    write_code_file(build_family(4).C, path)
    code, out, _ = run(["classify", "--input", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NONFIXING_WITNESS"
    assert data["theorem_case"] == CASE2
    assert data["stabilizer_order"] == 192
    # emitted JSON parses back into the structured report
    from hamnt import ClassificationReport, classify_theorem
    parsed = ClassificationReport.from_json(data, HammingScheme(4, 2))
    assert parsed == classify_theorem(build_family(4).C)


def test_classify_fixed_code(tmp_path):
    path = tmp_path / "rep5.code"
    rep5 = Code.from_entries(HammingScheme(5, 2), [[0] * 5, [1] * 5])
    write_code_file(rep5, path)
    code, out, _ = run(["classify", "--input", str(path)])
    assert code == 0
    assert "verdict: FIXED" in out


def test_classify_small_delta_is_usage_error(tmp_path):
    path = tmp_path / "d2.code"
    write_code_file(Code.from_entries(HammingScheme(4, 2),
                                      [[0, 0, 0, 0], [1, 1, 0, 0]]), path)
    for fmt in ("text", "json"):
        code, _, err = run(["classify", "--input", str(path), "--format", fmt])
        assert code == 2
        assert "hypothesis" in err


def test_classify_parse_error(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("not a header\n")
    code, _, err = run(["classify", "--input", str(path)])
    assert code == 2


def test_lemmas_h42_and_h33():
    code, out, _ = run(["lemmas", "--m", "4", "--q", "2"])
    assert code == 0
    assert "all checks pass: True" in out
    code, out, _ = run(["lemmas", "--m", "3", "--q", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert LemmaSuiteReport.from_json(data).all_pass


def test_lemmas_infeasible():
    code, _, err = run(["lemmas", "--m", "12", "--q", "5"])
    assert code == 2
    assert "feasibility" in err


def test_lemmas_degenerate_single_coordinate():
    code, out, _ = run(["lemmas", "--m", "1", "--q", "3"])
    assert code == 0
    assert "all checks pass: True" in out


def test_lemma_suite_seed_determinism():
    a = run_lemma_suite(3, 3, seed=5)
    b = run_lemma_suite(3, 3, seed=5)
    assert a == b


def test_analyze(tmp_path):
    path = tmp_path / "family6.code"
    write_code_file(build_family(6).C, path)
    code, out, _ = run(["analyze", "--input", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"m": 6, "q": 2, "size": 4, "delta": 4,
                    "neighbour_count": 24, "linear_binary": True,
                    "neighbourhoods_disjoint": True}


def test_stabilizer_command(tmp_path):
    path = tmp_path / "family4.code"
    write_code_file(build_family(4).C, path)
    code, out, _ = run(["stabilizer", "--input", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer_order"] == 192
    assert data["fixes_code"] is False
    assert data["transitive_on_neighbours"] is True
    assert data["first_nonfixing"].startswith("perm=[0,1,2,3]")


def test_stabilizer_command_agrees_with_classify(tmp_path):
    rng = random.Random(11)
    h33 = HammingScheme(3, 3)
    codes = [build_family(4).C,
             Code.from_entries(HammingScheme(5, 2), [[0] * 5, [1] * 5])]
    codes += [random_code_min_distance(rng, h33, rng.choice((2, 3)), 3)
              for _ in range(10)]
    transitive = set()
    for i, c in enumerate(codes):
        path = tmp_path / f"c{i}.code"
        write_code_file(c, path)
        _, out, _ = run(["classify", "--input", str(path), "--format", "json"])
        classified = json.loads(out)
        code, out, _ = run(["stabilizer", "--input", str(path), "--format", "json"])
        assert code == 0
        stab = json.loads(out)
        assert stab["first_nonfixing"] == classified["witness"]
        assert stab["fixes_code"] == (classified["verdict"] == VERDICT_FIXED)
        assert stab["transitive_on_neighbours"] == classified["transitive_on_neighbours"]
        assert stab["stabilizer_order"] == classified["stabilizer_order"]
        transitive.add(stab["transitive_on_neighbours"])
    assert transitive == {True, False}


def test_group_cap_env_override(tmp_path, monkeypatch):
    path = tmp_path / "family4.code"
    write_code_file(build_family(4).C, path)
    monkeypatch.setenv("HNT_GROUP_CAP", "10")
    code, _, err = run(["classify", "--input", str(path)])
    assert code == 2
    assert "feasibility" in err
    # explicit flag beats the environment
    code, _, _ = run(["classify", "--input", str(path), "--group-cap", "1000"])
    assert code == 0


def test_unknown_command_exits_2():
    code, _, _ = run(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv, group_cap_env", [
    (["lemmas", "--m", "0", "--q", "2"], None),
    (["lemmas", "--m", "2", "--q", "1"], None),
    (["family", "--m", "4"], "abc"),
])
def test_bad_input_is_one_line_usage_error(argv, group_cap_env, monkeypatch):
    if group_cap_env is None:
        monkeypatch.delenv("HNT_GROUP_CAP", raising=False)
    else:
        monkeypatch.setenv("HNT_GROUP_CAP", group_cap_env)
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
