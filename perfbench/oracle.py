"""Independent checks of the CLI outputs of each workload.

Nothing here imports hamnt or the test helpers: the expected classify
verdicts come from a brute-force filter over the raw wreath product
S_q wr S_m, built from scratch on plain tuples, and the family and lemma
expectations come from closed-form orders plus details pinned from the
verified outputs.  `check` returns None for a correct output and a one-line
reason otherwise; extra JSON keys are allowed.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations, product
from math import comb, factorial

from workloads import min_distance

FIXED = "FIXED"
NONFIXING = "NONFIXING_WITNESS"
CASE2 = "CASE2_delta4_q2_m_even"
CASE3 = "CASE3_delta3_mq1_even"
VIOLATION = "VIOLATION"

# Sample-dependent lemma details of `lemmas --seed 0`, pinned from the
# verified outputs: (m, q) -> clause -> detail.
PINNED_LEMMA_DETAILS = {
    (6, 2): {
        "code_automorphisms_stabilize_neighbours": "452 code automorphisms over 6 sampled codes",
        "pre_structure_on_witnesses": "verified 40 of 768 discovered (alpha, y) pairs",
    },
    (4, 3): {
        "code_automorphisms_stabilize_neighbours": "184 code automorphisms over 6 sampled codes",
        "pre_structure_on_witnesses": "verified 0 of 0 discovered (alpha, y) pairs",
    },
}


def raw_group(m: int, q: int) -> list[tuple]:
    """Every element of S_q wr S_m in canonical order, as (sigma, gs, image)
    with image[i] the index of the image of the vertex of index i; vertex
    indices follow the lexicographic vertex order."""
    verts = list(product(range(q), repeat=m))
    index = {v: i for i, v in enumerate(verts)}
    out = []
    for sigma in permutations(range(m)):
        for gs in product(list(permutations(range(q))), repeat=m):
            image = []
            for v in verts:
                w = [0] * m
                for i in range(m):
                    w[sigma[i]] = gs[i][v[i]]
                image.append(index[tuple(w)])
            out.append((sigma, gs, tuple(image)))
    return out


def _index(v, q) -> int:
    i = 0
    for e in v:
        i = i * q + e
    return i


def _neighbours(v, q):
    for i, e in enumerate(v):
        for c in range(q):
            if c != e:
                yield v[:i] + (c,) + v[i + 1:]


def _element_text(sigma, gs) -> str:
    parts = ["perm=[" + ",".join(map(str, sigma)) + "]"]
    parts += [f"g{i}=[" + ",".join(map(str, g)) + "]" for i, g in enumerate(gs)]
    return "; ".join(parts)


def classify_expectation(m: int, q: int, words, group) -> dict:
    """The classify report of a code with minimum distance >= 3, by brute force."""
    code = {_index(w, q) for w in words}
    delta = min_distance(words)
    nbrs = {_index(n, q) for w in words for n in _neighbours(w, q)} - code
    # a bijection that maps the finite set into itself maps it onto itself
    stab = [(s, gs, img) for s, gs, img in group if all(img[v] in nbrs for v in nbrs)]
    witness = next(((s, gs) for s, gs, img in stab
                    if {img[w] for w in code} != code), None)
    first = min(nbrs)
    transitive = {img[first] for _, _, img in stab} == nbrs
    if witness is None:
        case = None
    elif delta == 4 and q == 2 and m % 2 == 0:
        case = CASE2
    elif delta == 3 and (m * (q - 1)) % 2 == 0:
        case = CASE3
    else:
        case = VIOLATION
    return {
        "delta": delta,
        "verdict": NONFIXING if witness else FIXED,
        "witness": _element_text(*witness) if witness else None,
        "theorem_case": case,
        "stabilizer_order": len(stab),
        "transitive_on_neighbours": transitive,
    }


def family_expectation(m: int) -> dict:
    """Family members verify, with stabilizer N_U >| (S_2 wr S_h) of order
    2^h * 2^h * h!, h = m/2 (m >= 6)."""
    h = m // 2
    return {"m": m, "exhaustive": True, "all_pass": True,
            "stabilizer_order": 2 ** h * 2 ** h * factorial(h)}


def lemma_expectation(m: int, q: int) -> dict:
    """Every lemma check passes, with the details pinned clause by clause."""
    pairs = q ** m * comb(m, 2) * (q - 1) ** 2 // 2
    triples = 4 * pairs
    order = factorial(q) ** m * factorial(m)
    details = {
        "two_common_neighbours": f"{pairs} distance-2 pairs",
        "triples_single_orbit": f"orbit {triples} of {triples} triples under {order} elements",
        **PINNED_LEMMA_DETAILS[(m, q)],
    }
    return {"m": m, "q": q, "all_pass": True, "details": details}


def expectations(inputs) -> list[dict]:
    """One expectation per invocation of a pass of the workload."""
    if inputs.workload == "family_exhaustive":
        return [family_expectation(int(argv[2])) for argv in inputs.argvs]
    if inputs.workload == "lemma_suite":
        return [lemma_expectation(int(argv[2]), int(argv[4])) for argv in inputs.argvs]
    groups: dict[tuple[int, int], list] = {}
    cache: dict[tuple, dict] = {}
    out = []
    for m, q, words in inputs.codes:
        key = (m, q, words)
        if key not in cache:
            if (m, q) not in groups:
                groups[(m, q)] = raw_group(m, q)
            cache[key] = classify_expectation(m, q, words, groups[(m, q)])
        out.append(cache[key])
    return out


def check(workload: str, expected: dict, rc, out: str, err: str) -> str | None:
    """None if the invocation's output agrees with the expectation."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    if "Traceback" in err:
        return "traceback on stderr"
    try:
        report = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(report, dict):
        return "output is not a JSON object"
    if workload == "classify_sweep":
        if report.get("theorem_case") == VIOLATION:
            return "theorem_case VIOLATION"
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{key}: got {report.get(key)!r}, expected {value!r}"
        return None
    if workload == "family_exhaustive":
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{key}: got {report.get(key)!r}, expected {value!r}"
        failed = [c.get("clause") for c in report.get("clauses", []) if not c.get("pass")]
        return f"failed clauses {failed}" if failed else None
    for key in ("m", "q", "all_pass"):
        if report.get(key) != expected[key]:
            return f"{key}: got {report.get(key)!r}, expected {expected[key]!r}"
    got = {c.get("clause"): (c.get("pass"), c.get("detail")) for c in report.get("checks", [])}
    for clause, detail in expected["details"].items():
        if got.get(clause) != (True, detail):
            return f"{clause}: got {got.get(clause)!r}, expected passing {detail!r}"
    return None
