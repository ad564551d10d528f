"""CI's tier-1 gate: pass only when exactly acceptance 6, 7 and 8c fail.

Run after pytest with --junitxml: python .github/tier1_gate.py tier1.xml.
It also checks README's "Expected state" line against the run's counts.
"""

import re
import sys
import xml.etree.ElementTree as ET

expected = {
    "tests.test_acceptance::test_criterion_06_five_indicator_agreement",
    "tests.test_acceptance::test_criterion_07_gamma_decomposition_annihilation_uniqueness",
    "tests.test_acceptance::test_criterion_08c_theta_mirror",
}
cases = list(ET.parse(sys.argv[1]).getroot().iter("testcase"))
failing = {
    f"{case.get('classname')}::{case.get('name')}"
    for case in cases
    if case.find("failure") is not None or case.find("error") is not None
}
print(f"{len(cases)} tests, {len(failing)} failing")
if failing != expected:
    print("unexpected failures:", sorted(failing - expected))
    print("expected failures that passed:", sorted(expected - failing))
    sys.exit(1)
# README states the count this run must give: P of T tests pass.
passed = sum(
    all(case.find(tag) is None for tag in ("failure", "error", "skipped"))
    for case in cases
)
with open("README.md", encoding="utf-8") as handle:
    stated = re.search(r"Expected state:\s+(\d+)\s+of\s+(\d+)\s+tests\s+pass", handle.read())
if stated is None or (int(stated[1]), int(stated[2])) != (passed, len(cases)):
    found = stated[0] if stated else "no 'Expected state' line"
    print(f"README says {found!r}; this run: {passed} of {len(cases)} tests pass")
    sys.exit(1)
