"""The golden reference cases: every manifest entry reproduces bit for bit."""

import pytest

from oscurve.repro import repro_manifest, run_repro_case


@pytest.mark.parametrize("name", [case.name for case in repro_manifest()])
def test_repro_case_matches_reference(name):
    passed, _, _, bad = run_repro_case(name)
    assert passed, f"mismatched artifacts: {bad}"
