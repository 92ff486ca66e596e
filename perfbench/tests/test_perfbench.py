"""Self-tests of the benchmark: tracing, counts, oracle, generator, entry point.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gc
import io
import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hamnt import cli  # noqa: E402

SMALL_EXTRA = (
    ["family", "--m", "6", "--exhaustive", "--format", "json"],
    ["lemmas", "--m", "4", "--q", "2", "--format", "json"],
)


@pytest.fixture(scope="module")
def classify_inputs(tmp_path_factory):
    return workloads.build("classify_sweep", workloads.DEFAULT_SEED,
                           tmp_path_factory.mktemp("codes"))


def small_pass(classify_inputs):
    """A few invocations that reach every traced layer."""
    return classify_inputs.argvs[:30] + classify_inputs.argvs[-30:] + [list(a) for a in SMALL_EXTRA]


def package_bindings():
    """Every attribute of every hamnt module and class, by identity."""
    owners = tracing._package_modules()
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("hamnt")]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def traced_pass(argvs):
    tr = tracing.Tracer()
    with tr:
        *_, outputs = run.run_pass(cli, argvs, tr)
    assert all(rc == 0 for rc, _, _ in outputs)
    return tr


def test_uninstall_restores_every_binding(classify_inputs):
    before = package_bindings()
    original = sys.modules["hamnt.transitivity"].setwise_stabilizer
    tr = tracing.Tracer()
    with tr:
        wrapped = sys.modules["hamnt.transitivity"].setwise_stabilizer
        assert wrapped is not original
        for name in ("hamnt.cli", "hamnt.family_codes", "hamnt"):
            assert sys.modules[name].setwise_stabilizer is wrapped
        run.run_pass(cli, small_pass(classify_inputs), tr)
    after = package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_counts_repeat_on_one_seed(classify_inputs):
    argvs = small_pass(classify_inputs)
    first, second = traced_pass(argvs).metrics(), traced_pass(argvs).metrics()
    counts = {k: v for k, v in first.items() if not k.endswith("self_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("self_s")}
    for layer in tracing.LAYERS:
        assert first[f"{layer}.self_s"] > 0
    assert counts["transitivity.setwise_stabilizer.calls"] == 63
    assert counts["wreath_group.enumerate_full_group.items"] == 384


def test_traced_pass_records_spans_with_parents(classify_inputs):
    tr = traced_pass(classify_inputs.argvs[:3])
    ids = {span[0] for span in tr.spans}
    mains = [span for span in tr.spans if span[3] == "cli.main"]
    assert [span[2] for span in mains] == [0, 1, 2]
    assert all(span[1] == -1 for span in mains)
    assert all(span[1] in ids for span in tr.spans if span[3] != "cli.main")
    assert all(start <= end for _, _, _, _, start, end in tr.spans)


def test_reference_probes_keep_gc_state_and_stay_out_of_pass_time(classify_inputs):
    ref = run.Reference()
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        ref.probe(2)
        assert gc.isenabled() is enabled
    gc.enable()
    handler = signal.getsignal(signal.SIGALRM)
    probed = len(ref.times)
    wall, _, op_wall, outputs = run.run_pass(cli, classify_inputs.argvs[:400], None, ref)
    assert all(rc == 0 for rc, _, _ in outputs)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(ref.times) > probed
    assert sum(op_wall) <= wall


def classify_output(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(argv, out, err)
    return rc, out.getvalue(), err.getvalue()


def test_oracle_accepts_and_flags_tampered_classify(classify_inputs):
    expected = oracle.expectations(classify_inputs)
    for op in (0, 45, 1039):
        rc, out, err = classify_output(classify_inputs.argvs[op])
        assert oracle.check("classify_sweep", expected[op], rc, out, err) is None
        report = json.loads(out)
        for key, bad in (("stabilizer_order", report["stabilizer_order"] + 1),
                         ("theorem_case", "VIOLATION"),
                         ("transitive_on_neighbours", not report["transitive_on_neighbours"])):
            tampered = json.dumps({**report, key: bad})
            assert oracle.check("classify_sweep", expected[op], rc, tampered, err)
        assert oracle.check("classify_sweep", expected[op], 1, out, err)
        assert oracle.check("classify_sweep", expected[op], rc, "not json", err)


def test_oracle_flags_tampered_family_and_lemmas():
    rc, out, err = classify_output(list(workloads.FAMILY_ARGVS[0]))
    expected = oracle.family_expectation(6)
    assert oracle.check("family_exhaustive", expected, rc, out, err) is None
    report = json.loads(out)
    tampered = json.dumps({**report, "stabilizer_order": 192})
    assert oracle.check("family_exhaustive", expected, rc, tampered, err)

    expected = oracle.lemma_expectation(6, 2)
    good = {"m": 6, "q": 2, "all_pass": True,
            "checks": [{"clause": c, "pass": True, "detail": d}
                       for c, d in expected["details"].items()]}
    assert oracle.check("lemma_suite", expected, 0, json.dumps(good), "") is None
    bad = json.loads(json.dumps(good))
    bad["checks"][1]["detail"] = "orbit 1919 of 1920 triples under 46080 elements"
    assert oracle.check("lemma_suite", expected, 0, json.dumps(bad), "")


def test_default_seed_reproduces_criterion6_sample():
    from helpers import random_code_min_distance
    from hamnt import HammingScheme

    rng = random.Random(0)
    h33 = HammingScheme(3, 3)
    sample = [tuple(w.entries for w in random_code_min_distance(rng, h33, rng.choice((2, 3)), 3))
              for _ in range(workloads.RANDOM_H33_CODES)]
    codes = workloads.classify_codes(workloads.DEFAULT_SEED)
    assert len(codes) == 40 + workloads.RANDOM_H33_CODES
    assert [words for _, _, words in codes[40:]] == sample


def test_other_seeds_relabel_with_the_same_mix(tmp_path):
    base = workloads.build("classify_sweep", workloads.DEFAULT_SEED, tmp_path / "a")
    other = workloads.build("classify_sweep", 7, tmp_path / "b")
    assert workloads.classify_codes(7) == other.codes != base.codes
    assert other.digest != base.digest

    def mix(inputs):
        return sorted((e["stabilizer_order"], e["verdict"], e["delta"])
                      for e in oracle.expectations(inputs))
    assert mix(other) == mix(base)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family_exhaustive",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
