"""Structured pass/fail reports for verification runs.

A report is a flat list of named check instances.  `flag` carries notes that
do not affect the verdict (for example a check that ran outside the scope of
the statement it probes, or a sub-check skipped for budget reasons).

`verdict` and `skipped` are the one encoding of a yes/no check and of a
check that did not run; every such instance in `hfg` is built by them.  An
instance's status is "pass", "fail" or "skipped": a skipped check has
``passed`` None, so it is neither a pass nor a fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckInstance:
    label: str
    expected: str
    computed: str
    passed: bool | None
    flag: str | None = None

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skipped"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "passed": self.passed,
            "flag": self.flag,
        }


def verdict(
    label: str,
    holds: bool,
    yes: str = "equal",
    no: str = "different",
    flag: str | None = None,
) -> CheckInstance:
    """A yes/no check: `yes` is expected, and computed when `holds`."""
    return CheckInstance(label, yes, yes if holds else no, holds, flag)


def skipped(label: str, expected: str, reason) -> CheckInstance:
    """A check that did not run: neither a pass nor a fail."""
    return CheckInstance(
        label, expected, "not computed", None, "skipped: %s" % reason
    )


@dataclass
class VerificationReport:
    subject: str
    instances: list[CheckInstance] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No instance failed."""
        return not self.failures()

    def failures(self) -> list[CheckInstance]:
        return [inst for inst in self.instances if inst.passed is False]

    def to_dict(self) -> dict:
        statuses = [inst.status for inst in self.instances]
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": len(self.instances),
            **{s: statuses.count(s) for s in ("pass", "fail", "skipped")},
            "instances": [inst.to_dict() for inst in self.instances],
        }
