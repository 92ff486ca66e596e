import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamnt
import hamnt.chain
from hamnt import (Code, HammingScheme, automorphism_to_text, neighbour_count,
                   neighbourhoods_disjoint, parse_code_text, run_lemma_suite,
                   translation, write_code_file)
from hamnt.cli import main
from hamnt.family_codes import build_family
from hamnt.transitivity import CASE2, VERDICT_FIXED
from helpers import HAMMING_7_4, binary_span, random_code_min_distance

# the [15,11,3] Hamming code: its parity checks are the 15 nonzero 4-bit columns
HAMMING_15_11 = [[int(i == j) for j in range(11)] +
                 [c >> b & 1 for b in range(4)]
                 for i, c in enumerate(c for c in range(1, 16) if c & (c - 1))]
EVEN_16 = ("16 2\n" + "\n".join(format(w, "016b") for w in range(2**16)
                                 if w.bit_count() % 2 == 0) + "\n").encode()


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
    from hamnt import verify_family
    assert data == verify_family(4, exhaustive=True).to_json()


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
    code, _, err = run(["family", "--m", "28", "--exhaustive"])
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
    # emitted JSON is the structured report's
    from hamnt import classify_theorem
    assert data == classify_theorem(build_family(4).C).to_json()


def test_classify_fixed_code(tmp_path):
    path = tmp_path / "rep5.code"
    rep5 = Code.from_entries(HammingScheme(5, 2), [[0] * 5, [1] * 5])
    write_code_file(rep5, path)
    code, out, _ = run(["classify", "--input", str(path)])
    assert code == 0
    assert "verdict: FIXED" in out


def test_classify_classic_hamming_codes(tmp_path):
    # the extended [8,4,4] code: its neighbour set is the 8 cosets of weight 1,
    # which every translation by an even-weight word preserves
    extended = binary_span([row + [sum(row) % 2] for row in HAMMING_7_4])
    hamming = binary_span(HAMMING_7_4)
    assert (len(extended), extended.min_distance) == (16, 4)
    assert (len(hamming), hamming.min_distance) == (16, 3)
    reports = {}
    for name, code in (("844", extended), ("743", hamming)):
        path = tmp_path / f"{name}.code"
        write_code_file(code, path)
        rc, out, _ = run(["classify", "--input", str(path), "--format", "json"])
        assert rc == 0
        reports[name] = json.loads(out)
        rc, out, _ = run(["stabilizer", "--input", str(path), "--format", "json"])
        assert rc == 0
        assert json.loads(out)["first_nonfixing"] == reports[name]["witness"]
    # the witness is the translation by 00000011
    shift = translation(extended.scheme.vertex([0] * 6 + [1, 1]))
    assert reports["844"] == {
        "delta": 4, "verdict": "NONFIXING_WITNESS", "theorem_case": CASE2,
        "witness": automorphism_to_text(shift),
        "stabilizer_order": 5160960, "transitive_on_neighbours": True}
    assert reports["743"] == {
        "delta": 3, "verdict": VERDICT_FIXED, "theorem_case": None, "witness": None,
        "stabilizer_order": 2688, "transitive_on_neighbours": True}


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
    assert data == run_lemma_suite(3, 3, seed=0).to_json()


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


def test_stabilizer_command_one_word_code(tmp_path):
    # the stabilizer of the vertex 0000 in H(4,4): S_3 wr S_4, 31,104 elements
    path = tmp_path / "zero.code"
    path.write_text("4 4\n0000\n")
    code, out, _ = run(["stabilizer", "--input", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert "stabilizer_order: 31104" in lines
    assert "fixes_code: True" in lines
    assert "transitive_on_neighbours: True" in lines


def test_analyze_by_arithmetic_when_delta_at_least_3(tmp_path):
    # |G1(C)| = |C| m (q-1) when delta >= 3; the neighbour set is not built
    text = "3 200000\n1,2,3\n4,5,6\n"
    path = tmp_path / "huge.code"
    path.write_text(text)
    code, out, err = run(["analyze", "--input", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "m: 3", "q: 200000", "size: 2", "delta: 3", "neighbour_count: 1199994",
        "linear_binary: False", "neighbourhoods_disjoint: True"]
    huge = parse_code_text(text)
    assert (neighbour_count(huge), neighbourhoods_disjoint(huge)) == (1199994, True)
    assert "neighbour_set" not in vars(huge)



def test_every_command_checks_the_neighbour_set_enumeration_cap(tmp_path, monkeypatch):
    # with a cap of 10, the neighbourhoods of the family's 8 (C) and 16 (U)
    # words at m = 8 are over it; analyze counts C's Gamma_1 by arithmetic
    # (delta = 4), and every command that builds a Gamma_1 refuses it with
    # the one message
    monkeypatch.setattr(hamnt.code_model, "DEFAULT_ENUMERATION_CAP", 10)
    inst = build_family(8)
    paths = {}
    for name in ("C", "U"):
        paths[name] = str(tmp_path / f"{name}.code")
        write_code_file(getattr(inst, name), paths[name])

    def refused(words):
        return (2, "", f"feasibility: the neighbourhoods of {words} codewords of "
                f"H(8,2) hold {8 * words} vertices, over the enumeration cap 10\n")

    assert run(["analyze", "--input", paths["U"]]) == refused(16)
    assert run(["stabilizer", "--input", paths["U"]]) == refused(16)
    for command in ("classify", "stabilizer"):
        assert run([command, "--input", paths["C"]]) == refused(8)
    code, out, err = run(["analyze", "--input", paths["C"]])
    assert (code, err) == (0, "")
    assert "neighbour_count: 64" in out.splitlines()


def test_search_refuses_h1_10_before_building_a_table(monkeypatch):
    # the table cap is checked before any row is built, so H(1,10), whose
    # rows would hold 10! permutations, permutes nothing
    rows = []
    real = hamnt.chain.permutations
    monkeypatch.setattr(hamnt.chain, "permutations", lambda *a: rows.append(a) or real(*a))
    code, out, err = run(["lemmas", "--m", "1", "--q", "10"])
    assert (code, out, rows) == (2, "", [])
    assert "permutation table for H(1,10) holds 36288000 masks" in err
    assert run(["lemmas", "--m", "1", "--q", "3"])[0] == 0 and rows


def test_every_command_checks_the_distance_2_count_of_d(tmp_path, monkeypatch):
    # with a cap of 100 on code_model's counts, the family C at m = 8 has a
    # Gamma_1 total of 8 * 8 = 64, within it, but counting D = C plus its
    # pre-codewords steps over 8 * C(8,2) = 224 distance-2 vertices;
    # analyze builds no D
    monkeypatch.setattr(hamnt.code_model, "DEFAULT_ENUMERATION_CAP", 100)
    path = str(tmp_path / "C.code")
    write_code_file(build_family(8).C, path)
    refused = (2, "", "feasibility: the distance-2 shells of 8 codewords of H(8,2) "
               "hold 224 vertices, over the enumeration cap 100\n")
    for command in ("classify", "stabilizer"):
        assert run([command, "--input", path]) == refused
    code, out, err = run(["analyze", "--input", path])
    assert (code, err) == (0, "")
    assert "neighbour_count: 64" in out.splitlines()


def test_search_checks_its_permutation_table_against_the_enumeration_cap(
        tmp_path, monkeypatch):
    # the search tabulates m * q! * q masks: 600 for H(1,5) and 4320 for
    # H(1,6) against a cap of 1000
    monkeypatch.setattr(hamnt.chain, "DEFAULT_ENUMERATION_CAP", 1000)
    assert run(["lemmas", "--m", "1", "--q", "5"])[0] == 0
    assert run(["lemmas", "--m", "1", "--q", "6"]) == (
        2, "", "feasibility: the search's permutation table for H(1,6) holds 4320 "
        "masks, over the enumeration cap 1000\n")
    # under the default caps, lemmas on H(1,10) and H(1,11), and stabilizer
    # on a code of theirs, are refused before the table is built
    monkeypatch.setattr(hamnt.chain, "DEFAULT_ENUMERATION_CAP", 10**7)
    for q, size in [(10, 36288000), (11, 439084800)]:
        line = (f"feasibility: the search's permutation table for H(1,{q}) holds "
                f"{size} masks, over the enumeration cap 10000000\n")
        assert run(["lemmas", "--m", "1", "--q", str(q)]) == (2, "", line)
        path = tmp_path / f"h1{q}.code"
        path.write_text(f"1 {q}\n3\n")
        assert run(["stabilizer", "--input", str(path)]) == (2, "", line)


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


def test_every_command_rejects_the_group_cap_option(tmp_path, monkeypatch):
    # the searches are bounded by what they build, so no command takes a
    # group cap, and HNT_GROUP_CAP changes nothing
    path = tmp_path / "family4.code"
    write_code_file(build_family(4).C, path)
    monkeypatch.setenv("HNT_GROUP_CAP", "abc")
    for argv in (["family", "--m", "4", "--exhaustive"], ["lemmas", "--m", "2", "--q", "3"],
                 ["classify", "--input", str(path)], ["analyze", "--input", str(path)],
                 ["stabilizer", "--input", str(path)]):
        assert run(argv)[0] == 0
        code, out, err = run(argv + ["--group-cap", "1000"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "hamnt: error: unrecognized arguments: --group-cap 1000"


def test_search_budget_refusal_is_deterministic(tmp_path):
    # the budget counts steps, not time: with the budget lowered to 10^6, the
    # [15,11,3] Hamming code's search is refused with one line, the same on
    # two runs and under a second hash seed
    path = tmp_path / "hamming.code"
    write_code_file(binary_span(HAMMING_15_11), path)
    script = ("import sys, hamnt.chain; hamnt.chain._SEARCH_BUDGET = 10**6; "
              "from hamnt.cli import main; sys.exit(main(sys.argv[1:]))")
    src = Path(hamnt.__file__).resolve().parent.parent
    runs = []
    for seed in ("0", "0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script, "classify", "--input", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        runs.append((done.returncode, done.stdout, done.stderr))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][:2] == (2, "")
    assert runs[0][2].startswith("feasibility: the search took ")
    assert runs[0][2].endswith(" steps, over the search budget 1000000\n")


def test_unknown_command_exits_2():
    code, _, _ = run(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv, group_cap_env", [
    (["lemmas", "--m", "0", "--q", "2"], None),
    (["lemmas", "--m", "2", "--q", "1"], None),
    # HNT_GROUP_CAP changes nothing
    (["family", "--m", "3"], "abc"),
    (["classify", "--input", b"\xff\xfe"], None),
    # code files take ASCII digits only, not int()'s other forms
    (["analyze", "--input", "3 3\n\u0662\u0660\u0661\n000\n".encode()], None),
    # sizes too long to print exactly, over the caps
    (["family", "--m", "20000"], None),
    (["lemmas", "--m", "20000", "--q", "2"], None),
    (["classify", "--input", b"3 200000\n1,2,3\n4,5,6\n"], None),
    # delta = 1: 2 * 3 * 1999999 neighbours to build, over the enumeration cap
    (["analyze", "--input", b"3 2000000\n0,0,0\n0,0,1\n"], None),
    # the lemma suite's pair walk: 2^17 * C(17,2) distance-2 vertices
    (["lemmas", "--m", "17", "--q", "2"], None),
    # two words over a 120-digit alphabet: no mask of m * q bits is built
    (["analyze", "--input", b"2 1" + b"0" * 119 + b"\n0,0\n1,1\n"], None),
    (["classify", "--input", b"2 1" + b"0" * 119 + b"\n0,0\n1,1\n"], None),
    # the search's masks: Gamma_1 of the even-weight code of H(16,2), 2^15 words
    (["stabilizer", "--input", EVEN_16], None),
])
def test_bad_input_is_one_line_usage_error(argv, group_cap_env, monkeypatch, tmp_path):
    """A bytes item of argv is written to a file and replaced by its path."""
    if group_cap_env is None:
        monkeypatch.delenv("HNT_GROUP_CAP", raising=False)
    else:
        monkeypatch.setenv("HNT_GROUP_CAP", group_cap_env)
    path = tmp_path / "input.code"
    for item in argv:
        if isinstance(item, bytes):
            path.write_bytes(item)
    code, out, err = run([str(path) if isinstance(a, bytes) else a for a in argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


@st.composite
def code_files(draw):
    """Arbitrary bytes, or an 'm q' header with m, q <= 4, random words and
    sometimes one junk line."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    m, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    word = st.lists(st.integers(0, max(q - 1, 0)), min_size=m, max_size=m)
    lines = [f"{m} {q}"] + ["".join(map(str, w)) for w in draw(st.lists(word, max_size=4))]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text("0123 ,#x", max_size=5)))
    return "\n".join(lines).encode()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=code_files(), command=st.sampled_from(("classify", "stabilizer", "analyze")))
def test_cli_fuzz_exit_codes(data, command, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.code"
    path.write_bytes(data)
    code, out, err = run([command, "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert "VIOLATION" in out


def test_argparse_output_goes_to_callers_streams(capsys):
    code, out, err = run(["classify"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: hamnt classify")
    assert "the following arguments are required: --input" in err
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: hamnt")
    assert capsys.readouterr() == ("", "")


def test_family_cap_counts_the_built_tuples():
    # the family builds 2^(m/2) words and m * 2^(m/2) neighbourhood tuples of
    # m entries each, not the 2^m vertices of H(m,2); memory grows with the
    # m^2 * 2^(m/2) entries: m = 24 and 26 are in, m = 28 and 38 over the cap
    inst = build_family(24)
    assert (len(inst.U), len(inst.C)) == (4096, 2048)
    inst = build_family(26)
    assert (len(inst.U), len(inst.C)) == (8192, 4096)
    for m, entries in ((28, 12845056), (38, 757071872)):
        code, out, err = run(["family", "--m", str(m)])
        assert (code, out) == (2, "")
        assert err == (f"feasibility: the family at m = {m} has {entries} neighbourhood "
                       "tuple entries, over the enumeration cap 10000000\n")


def test_python_dash_m_runs_the_cli():
    src = Path(hamnt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "hamnt", "family", "--m", "4", "--exhaustive"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-2:] == ["  stabilizer order: 192",
                                             "  all clauses pass: True"]
