"""Structured pass/fail reports for verification runs.

A report is a flat list of named check instances.  `flag` carries notes that
do not affect the verdict (for example a check that ran outside the scope of
the statement it probes, or a sub-check skipped for budget reasons).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckInstance:
    label: str
    expected: str
    computed: str
    passed: bool
    flag: str | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
            "flag": self.flag,
        }


@dataclass
class VerificationReport:
    subject: str
    instances: list[CheckInstance] = field(default_factory=list)

    def add(
        self,
        label: str,
        expected: str,
        computed: str,
        passed: bool,
        flag: str | None = None,
    ) -> CheckInstance:
        inst = CheckInstance(label, expected, computed, passed, flag)
        self.instances.append(inst)
        return inst

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def failures(self) -> list[CheckInstance]:
        return [inst for inst in self.instances if not inst.passed]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": len(self.instances),
            "instances": [inst.to_dict() for inst in self.instances],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
