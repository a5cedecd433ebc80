"""Decision-procedure results.

Every checker in this package returns a :class:`Verdict` instead of a bare
boolean.  A positive verdict carries the witnesses realizing each existential
of the checked condition; a negative one carries the first universally
quantified instance for which the search space was exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Verdict:
    """The outcome of one check, with its witnesses or its counterexample.

    Verdicts are shared and read-only: ``check_sigma_filtered`` returns one
    verdict per closed class to every caller, and a verdict built from
    another (``flat``'s from the σ-filteredness search) holds the other's
    witness list, so no caller may change ``witnesses`` or ``counterexample``.
    """

    outcome: bool
    check: str
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    counterexample: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.outcome and self.counterexample is not None:
            raise ValueError("positive verdict cannot carry a counterexample")
        if not self.outcome and self.counterexample is None:
            raise ValueError("negative verdict must carry a counterexample")

    def __bool__(self) -> bool:
        return self.outcome

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"check": self.check, "outcome": self.outcome}
        if self.outcome:
            data["witnesses"] = self.witnesses
        else:
            data["counterexample"] = self.counterexample
        return data


def positive(check: str, witnesses: list[dict[str, Any]] | None = None) -> Verdict:
    return Verdict(True, check, witnesses=witnesses or [])


def negative(check: str, counterexample: dict[str, Any]) -> Verdict:
    return Verdict(False, check, counterexample=counterexample)
