"""The encoding of a verdict, and the verdict words of the point checks.

PINNED lists, for one case per branch of the power-product, lemma and join
checks, each instance as (label, expected, flag, as computed, forced), where
the last two are (computed, passed): once as computed, and once with the
oracle predicates `ideal_equal`, `contains` and `contains_ideal` forced to
False, so the words of a failing check are pinned as well.  The status word
follows from `passed`: "pass" for True, "fail" for False.
"""
from __future__ import annotations

import pytest

import hfg.verify
from hfg.polycore import IdealPresentation
from hfg.projective import Point
from hfg.report import CheckInstance, VerificationReport, skipped, verdict
from hfg.verify import (
    check_join_symbolic,
    check_lemma_irrelevant,
    check_point_power_product,
)

CONTAINS_TARGET = "universal containment: product contains I(P*Q)^(m+n-1)"
EQUALS_TARGET = "points off the coordinate triangle: equality with I(P*Q)^(m+n-1)"
EQUALS_Q_POWER = (
    "one point off the triangle, the other a coordinate point: product"
    " equals I(Q)^n"
)
CONTAINED_LOW = "product is contained in I(P*Q)^min(m,n)"
DIFFERS_OFF_UNIT = "equality with I(P*Q)^(m+n-1) fails away from unit powers"
OUTSIDE = "stratum outside the case statements; general containment only"
LINE_LEMMA = (
    "point on one coordinate line: product is (x_0) plus the power of the"
    " other two variables"
)
CONTAINS_POWER = "product contains the irrelevant power"
STRICT = "containment is strict for t > 1"

EQUAL, DIFFERENT = ("equal", True), ("different", False)
CONTAINS, MISSES = ("contains", True), ("misses", False)

CASES = {
    "(2,2)": (check_point_power_product, ((1, 2, 3), (2, 1, 1), 2, 2)),
    "unit powers": (check_point_power_product, ((1, 2, 3), (2, 1, 1), 1, 1)),
    "(2,0) m=1": (check_point_power_product, ((1, 2, 3), (1, 0, 0), 1, 2)),
    # the lower stratum first: the check swaps the points and the powers
    "(0,2) swapped": (check_point_power_product, ((1, 0, 0), (1, 2, 3), 2, 1)),
    "(2,0) m>1": (check_point_power_product, ((1, 2, 3), (1, 0, 0), 2, 1)),
    "(2,1) m=1": (check_point_power_product, ((1, 2, 3), (1, 1, 0), 1, 2)),
    "(2,1) m>1": (check_point_power_product, ((1, 2, 3), (1, 1, 0), 2, 1)),
    "(1,1) distinct": (check_point_power_product, ((1, 0, 1), (1, 1, 0), 2, 1)),
    "(1,1) shared": (check_point_power_product, ((1, 0, 1), (2, 0, 1), 2, 1)),
    "(1,0)": (check_point_power_product, ((1, 0, 1), (1, 0, 0), 2, 1)),
    "(0,0)": (check_point_power_product, ((1, 0, 0), (1, 0, 0), 2, 1)),
    "lemma d=2": (check_lemma_irrelevant, ((1, 2, 3), 2)),
    "lemma d=1 t=1": (check_lemma_irrelevant, ((0, 1, 2), 1)),
    "lemma d=1 t=2": (check_lemma_irrelevant, ((0, 1, 2), 2)),
    "lemma d=0": (check_lemma_irrelevant, ((0, 0, 1), 2)),
    "join": (check_join_symbolic, ((1, 2, 3), 2)),
}

PINNED = {
    "(2,2)": [(EQUALS_TARGET, "equal", None, EQUAL, DIFFERENT)],
    "unit powers": [
        ("unit powers: product ideal equals I(P*Q)", "equal", None, EQUAL, DIFFERENT),
        (EQUALS_TARGET, "equal", None, EQUAL, DIFFERENT),
    ],
    "(2,0) m=1": [(EQUALS_Q_POWER, "equal", None, EQUAL, DIFFERENT)],
    "(0,2) swapped": [(EQUALS_Q_POWER, "equal", None, EQUAL, DIFFERENT)],
    "(2,0) m>1": [
        (
            EQUALS_Q_POWER,
            "equal",
            "m > 1 sits outside the stated scope; the computed general form"
            " still predicts I(Q)^n",
            EQUAL,
            DIFFERENT,
        ),
        (
            "m > 1: product differs from I(P*Q)^(m+n-1)",
            "different",
            None,
            ("different", True),
            ("different", True),
        ),
    ],
    "(2,1) m=1": [
        (
            "one point off the triangle, one on a coordinate line, m=1:"
            " product equals I(P*Q)^n",
            "equal",
            None,
            EQUAL,
            DIFFERENT,
        )
    ],
    "(2,1) m>1": [
        (
            "witness power of the vanishing coordinate lies in the product",
            "member",
            "m > 1 on this stratum has no closed form; witness, inequality"
            " and containment checks only",
            ("member", True),
            ("missing", False),
        ),
        (
            "witness power avoids I(P*Q)^(m+n-1), so equality fails",
            "non-member",
            None,
            ("non-member", True),
            ("non-member", True),
        ),
        (CONTAINS_TARGET, "contains", None, CONTAINS, MISSES),
    ],
    "(1,1) distinct": [
        (
            "both points on distinct coordinate lines: product is the"
            " pure-power ideal (x_1^2, x_2^1)",
            "equal",
            None,
            EQUAL,
            DIFFERENT,
        ),
        (CONTAINED_LOW, "contained", None, ("contained", True), ("escapes", False)),
        (CONTAINS_TARGET, "contains", None, CONTAINS, MISSES),
        (DIFFERS_OFF_UNIT, "different", None, ("different", True), ("different", True)),
    ],
    "(1,1) shared": [
        (
            "witness power of the shared vanishing coordinate lies in the"
            " product",
            "member",
            "shared coordinate line: witness and containment checks only",
            ("member", True),
            ("missing", False),
        ),
        (CONTAINED_LOW, "contained", None, ("contained", True), ("escapes", False)),
        (CONTAINS_TARGET, "contains", None, CONTAINS, MISSES),
        (DIFFERS_OFF_UNIT, "different", None, ("different", True), ("different", True)),
    ],
    "(1,0)": [(CONTAINS_TARGET, "contains", OUTSIDE, CONTAINS, MISSES)],
    "(0,0)": [(CONTAINS_TARGET, "contains", OUTSIDE, CONTAINS, MISSES)],
    "lemma d=2": [
        (
            "point off the coordinate triangle: product equals the power",
            "equal",
            None,
            EQUAL,
            DIFFERENT,
        )
    ],
    "lemma d=1 t=1": [
        (LINE_LEMMA, "equal", None, EQUAL, DIFFERENT),
        (CONTAINS_POWER, "contains", None, CONTAINS, MISSES),
    ],
    "lemma d=1 t=2": [
        (LINE_LEMMA, "equal", None, EQUAL, DIFFERENT),
        (CONTAINS_POWER, "contains", None, CONTAINS, MISSES),
        (STRICT, "strict", None, ("strict", True), ("strict", True)),
    ],
    "lemma d=0": [
        (
            "coordinate point: product is (x_0, x_1) plus x_2^t",
            "equal",
            None,
            EQUAL,
            DIFFERENT,
        ),
        (CONTAINS_POWER, "contains", None, CONTAINS, MISSES),
        (STRICT, "strict", None, ("strict", True), ("strict", True)),
    ],
    "join": [
        (
            "join of the point ideal with the irrelevant power equals the"
            " ordinary power",
            "equal",
            None,
            EQUAL,
            DIFFERENT,
        )
    ],
}


def test_verdict_encodes_a_yes_no_check():
    assert verdict("c", True) == CheckInstance("c", "equal", "equal", True)
    assert verdict("c", False) == CheckInstance("c", "equal", "different", False)
    assert verdict("c", False, "member", "missing", flag="f") == CheckInstance(
        "c", "member", "missing", False, "f"
    )
    assert verdict("c", True).status == "pass"
    assert verdict("c", False).status == "fail"


def test_skipped_check_is_flagged_and_does_not_fail_the_report():
    inst = skipped("c", "equal", "over the cap")
    assert inst == CheckInstance(
        "c", "equal", "not computed", None, "skipped: over the cap"
    )
    assert inst.status == "skipped"
    assert VerificationReport("s", [inst]).passed


def test_a_skip_is_neither_a_pass_nor_a_fail():
    ran, failed = verdict("a", True), verdict("b", False)
    skip = skipped("c", "equal", "over the cap")
    report = VerificationReport("s", [ran, skip, failed])
    assert not report.passed
    assert report.failures() == [failed]
    data = report.to_dict()
    assert (data["passed"], data["checks"]) == (False, 3)
    assert (data["pass"], data["fail"], data["skipped"]) == (1, 1, 1)
    assert [(i["status"], i["passed"]) for i in data["instances"]] == [
        ("pass", True),
        ("skipped", None),
        ("fail", False),
    ]
    assert VerificationReport("s", [ran, skip]).to_dict()["passed"] is True


@pytest.mark.parametrize("forced", [False, True], ids=["computed", "forced"])
@pytest.mark.parametrize("case", list(CASES))
def test_verdict_words_are_pinned(monkeypatch, case, forced):
    if forced:
        monkeypatch.setattr(hfg.verify, "ideal_equal", lambda a, b: False)
        monkeypatch.setattr(IdealPresentation, "contains", lambda self, f: False)
        monkeypatch.setattr(
            IdealPresentation, "contains_ideal", lambda self, other: False
        )
    check, args = CASES[case]
    report = check(*(Point(a) if isinstance(a, tuple) else a for a in args))
    got = [
        (inst.label, inst.expected, inst.computed, inst.passed, inst.status, inst.flag)
        for inst in report.instances
    ]
    want = []
    for label, expected, flag, words, forced_words in PINNED[case]:
        computed, passed = forced_words if forced else words
        want.append(
            (label, expected, computed, passed, "pass" if passed else "fail", flag)
        )
    assert got == want


def test_lower_stratum_first_names_the_swapped_strata_and_powers():
    check, args = CASES["(0,2) swapped"]
    report = check(*(Point(a) if isinstance(a, tuple) else a for a in args))
    assert report.subject == "power product: strata (2,0), powers (1,2)"
