"""Claim-based reports for the worked examples.

A report is a flat list of claims, each carrying the computed value, the
expected value and an exact pass flag: rational equality, series
equality or classification membership, never a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Classification

__all__ = [
    "Claim",
    "GalleryReport",
    "format_value",
    "equality_claim",
    "judged_claim",
]


def format_value(value: object) -> str:
    if isinstance(value, Classification):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class Claim:
    description: str
    computed: str
    expected: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "computed": self.computed,
            "expected": self.expected,
            "pass": self.passed,
        }

    def render_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.description}: {self.computed} (expected {self.expected})"


def equality_claim(description: str, computed: object, expected: object) -> Claim:
    return Claim(
        description=description,
        computed=format_value(computed),
        expected=format_value(expected),
        passed=computed == expected,
    )


def judged_claim(
    description: str, computed: object, expected_text: str, passed: bool
) -> Claim:
    """For claims whose expectation is a predicate rather than a value."""
    return Claim(
        description=description,
        computed=format_value(computed),
        expected=expected_text,
        passed=passed,
    )


@dataclass(frozen=True)
class GalleryReport:
    example_id: str
    parameters: tuple[str, ...]
    claims: tuple[Claim, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json(self) -> dict:
        return {
            "example": self.example_id,
            "parameters": list(self.parameters),
            "claims": [c.to_json() for c in self.claims],
            "pass": self.passed,
        }

    def render_text(self) -> str:
        lines = [f"example: {self.example_id}"]
        if self.parameters:
            lines.append("parameters: " + ", ".join(self.parameters))
        lines.extend(c.render_text() for c in self.claims)
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)
