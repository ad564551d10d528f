"""CI's tier-1 gate: run the tier-1 tests, pass only when exactly acceptance 6, 7 and 8c fail.

Usage: python .github/tier1_gate.py tier1.xml

It runs pytest from the repository root with src/ on PYTHONPATH, a numpy
RuntimeWarning as an error and --continue-on-collection-errors, writing the
JUnit report to the given path, then judges that report. pytest exits 1 when
tests fail, as acceptance 6, 7 and 8c do; any other nonzero status is an
error of the run itself and fails the gate. It also checks README's
"Expected state" line against the run's counts.
"""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

expected = {
    "tests.test_acceptance::test_criterion_06_five_indicator_agreement",
    "tests.test_acceptance::test_criterion_07_gamma_decomposition_annihilation_uniqueness",
    "tests.test_acceptance::test_criterion_08c_theta_mirror",
}
report = Path(sys.argv[1]).resolve()
env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
pytest = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-W", "error::RuntimeWarning"]
status = subprocess.call([*pytest, f"--junitxml={report}"], cwd=ROOT, env=env)
if status > 1:
    print(f"pytest exited with status {status}")
    sys.exit(status)

cases = list(ET.parse(report).getroot().iter("testcase"))
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
stated = re.search(r"Expected state:\s+(\d+)\s+of\s+(\d+)\s+tests\s+pass", (ROOT / "README.md").read_text("utf-8"))
if stated is None or (int(stated[1]), int(stated[2])) != (passed, len(cases)):
    found = stated[0] if stated else "no 'Expected state' line"
    print(f"README says {found!r}; this run: {passed} of {len(cases)} tests pass")
    sys.exit(1)
