"""Uniform result carriers for checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Hypothesis:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def sturm_range(k1: float, cap: float) -> Hypothesis:
    """k1 <= cap, the Sturm comparison cap on the upper curvature, to 1e-12 relative."""
    return Hypothesis("k1-within-sturm-range", k1 <= cap * (1 + 1e-12), f"k1 = {k1}, cap = {cap}")


@dataclass
class BoundReport:
    """A certified inequality instance.

    The convention is lhs <= rhs + slack for the verdict to hold; ops that
    check a family of inequalities put the worst violation in lhs and 0 in
    rhs.  `witness` locates the extremal (or violating) sample.
    """

    theorem: str
    hypotheses: list[Hypothesis] = field(default_factory=list)
    lhs: float = 0.0
    rhs: float = 0.0
    slack: float = 0.0
    equality: bool = False
    witness: Any = None
    notes: str = ""

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    @property
    def verdict(self) -> str:
        if not self.hypotheses_ok:
            return "hypotheses-failed"
        if self.lhs <= self.rhs + self.slack:
            return "holds"
        return "violated"

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "verdict": self.verdict,
            "equality": self.equality,
            "witness": self.witness,
            "notes": self.notes,
        }
