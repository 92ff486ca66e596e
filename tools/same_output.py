"""Check that two source trees of hamnt give the same CLI output.

    python tools/same_output.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories (each holding the package
`hamnt`).  One fixed invocation list runs through `hamnt.cli.main` in one
subprocess per tree:

* `classify` and `stabilizer --format json` on the 1,040 criterion-6 codes
  of the benchmark (perfbench/workloads.py, imported read-only);
* `classify` and `stabilizer`, text and json, on the family's codes C
  and U written as code files, for even M = 6..16: C's non-fixing
  witness lies deep in a group of order 4^(M/2) (M/2)!, and `classify`
  refuses U (minimum distance 2);
* `family --m M` for even M = 4..16, plain and `--exhaustive`, and
  `--exhaustive` for even M = 18..24;
* `lemmas` on H(1..8,2), H(1..6,3), H(1..4,4), H(1..3,5), H(1..2,6),
  H(1..2,7), H(1,8) and H(1,9), seeds 0, 1, 7, and once on H(9..12,2),
  H(3,6), H(5,4), H(7,3), H(2,8), H(2,9) and H(3,7), the searches with
  the longest row lists (about 20 s of each tree's run);
* one refusal per cap and form that both trees pin: the cases of
  tests/data/caps_pinned.json whose names OLD_SRC/../tests/data/caps_pinned.json
  lists too (a cap new to NEW_SRC refuses what OLD_SRC runs).

Both trees run with HNT_GROUP_CAP=10**1000 in their environment, so a
tree that still reads the variable admits the runs that a tree without
the group cap admits (the pinned refusals reach full groups of order
about 10^640).  It prints the first invocation whose exit code, stdout
or stderr differ and exits 1, or prints the number of invocations
compared and exits 0.  Each tree takes about 50 s on a 2-vCPU VM.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def family_code_files(code_dir: Path, m: int) -> list[str]:
    """The paths of the family's U (every doubled word beta beta of H(m,2))
    and C (those with beta of even weight), written as code files in code_dir."""
    halves = [format(b, f"0{m // 2}b") for b in range(2 ** (m // 2))]
    paths = []
    for name, words in (("U", halves), ("C", [b for b in halves if b.count("1") % 2 == 0])):
        paths.append(str(code_dir / f"family_{name}_{m}.txt"))
        Path(paths[-1]).write_text(f"{m} 2\n" + "".join(b + b + "\n" for b in words))
    return paths


def invocations(code_dir: Path, old_src: Path) -> list[list[str]]:
    """The fixed invocation list, writing its code files into code_dir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = []
    paths: dict[str, str] = {}
    for m, q, words in workloads.criterion6_codes():
        text = workloads.code_text(m, q, words)
        if text not in paths:
            paths[text] = str(code_dir / f"code{len(paths):04d}.txt")
            Path(paths[text]).write_text(text)
        for command in ("classify", "stabilizer"):
            argvs.append([command, "--input", paths[text], "--format", "json"])
    for m in range(6, 17, 2):
        for path in family_code_files(code_dir, m):
            for command in ("classify", "stabilizer"):
                for fmt in ("text", "json"):
                    argvs.append([command, "--input", path, "--format", fmt])
    for m in range(4, 17, 2):
        argvs.append(["family", "--m", str(m)])
        argvs.append(["family", "--m", str(m), "--exhaustive"])
    for m in range(18, 25, 2):
        argvs.append(["family", "--m", str(m), "--exhaustive"])
    for q, top in ((2, 8), (3, 6), (4, 4), (5, 3), (6, 2), (7, 2), (8, 1), (9, 1)):
        for m in range(1, top + 1):
            for seed in (0, 1, 7):
                argvs.append(["lemmas", "--m", str(m), "--q", str(q), "--seed", str(seed)])
    for m, q in ((9, 2), (10, 2), (11, 2), (12, 2), (3, 6), (5, 4), (7, 3), (2, 8), (2, 9),
                 (3, 7)):
        argvs.append(["lemmas", "--m", str(m), "--q", str(q)])
    caps = json.loads((ROOT / "tests" / "data" / "caps_pinned.json").read_text())
    old = json.loads((old_src.parent / "tests" / "data" / "caps_pinned.json").read_text())
    for case in [c for c in caps if c["name"] in {o["name"] for o in old}]:
        path = code_dir / f"{case['name']}.code"
        path.write_text(case.get("code", ""))
        argvs.append([str(path) if a == "{input}" else a for a in case["argv"]])
    return argvs


def run_tree(src: str, argvs_file: str) -> None:
    """In the child: run every invocation against src and print the results as JSON."""
    sys.path.insert(0, src)
    from hamnt.cli import main

    results = []
    for argv in json.loads(Path(argvs_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        results.append([main(argv, out, err), out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print("usage: python tools/same_output.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["HNT_GROUP_CAP"] = str(10**1000)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = invocations(Path(tmp), Path(argv[0]).resolve())
        argvs_file = Path(tmp) / "argvs.json"
        argvs_file.write_text(json.dumps(argvs))
        outputs = []
        for src in argv:
            done = subprocess.run([sys.executable, __file__, "--run", str(Path(src).resolve()),
                                   str(argvs_file)], capture_output=True, text=True, env=env)
            if done.returncode != 0:
                print(f"{src}: the run failed\n{done.stderr}", file=sys.stderr)
                return 1
            outputs.append(json.loads(done.stdout))
    for args, old, new in zip(argvs, *outputs):
        if old != new:
            print("differs: " + " ".join(args))
            for label, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    print(f"  {label}:\n    old {a!r}\n    new {b!r}")
            return 1
    print(f"same output on {len(argvs)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
