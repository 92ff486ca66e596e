"""Small shared report building blocks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClauseResult:
    """Verdict for one named verification clause."""

    clause: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"clause": self.clause, "pass": self.passed, "detail": self.detail}


def all_clauses_pass(clauses) -> bool:
    return all(c.passed for c in clauses)


def format_clauses_text(clauses) -> str:
    lines = []
    for c in clauses:
        mark = "PASS" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"  [{mark}] {c.clause}{detail}")
    return "\n".join(lines)
