"""Acceptance battery: one test per criterion, one pass/fail line each.

Criterion 5b is executed but expected to fail: on a finite mode set the
linear-combination T+/T- have nonzero trace while every bilinear built on
the off-diagonal ladder pattern is traceless, so no frame can reconcile
them (see the selfcheck module docstring).  The xfail is strict; if the
gap ever closes, the marker itself fails.
"""

import pytest

from nhfermi.selfcheck import CRITERIA


def _run(cid):
    """Run one criterion; print and return it with its checks on one line."""
    result = CRITERIA[cid]()
    detail = "; ".join(str(c) for c in result.checks)
    status = "PASS" if result.passed else "FAIL"
    print(f"\ncriterion {cid}: {status} - {result.name}: {detail}")
    return result, detail


@pytest.mark.parametrize("cid", [c for c in CRITERIA if c != "5b"])
def test_criterion(cid):
    result, detail = _run(cid)
    assert result.passed, f"criterion {cid} failed: {detail}"


@pytest.mark.xfail(strict=True,
                   reason="finite-mode truncation obstruction: combination "
                          "T+/T- have nonzero trace, ladder-pattern bilinears "
                          "are traceless; the 1e-9 agreement cannot hold")
def test_criterion_5b():
    result, detail = _run("5b")
    assert result.passed, f"criterion 5b failed: {detail}"
