"""Paper-shape checks for Table 6: work file access mode frequencies.

Shape checks from §4.3: direct addressing (WF00-0F / WF10-3F /
constants) covers >=90% of WF accesses; Source-1 is the dominant field;
base-relative @PDR/CDR is used less than expected (a few percent at
most); the trail buffer (@WFAR2) and @WFCBR are nearly idle; >=90% of
WFAR indirect accesses use auto increment.
"""

import pytest

from repro.core.micro import WFMode
from repro.eval import table6

pytestmark = pytest.mark.slow


def test_table6():
    data = table6.generate()
    print()
    print(table6.render(data))

    # Direct addressing dominates.
    assert data["direct addressing", "share"] >= 85.0

    # Source-1 is the busiest field; its rate is large but below 100%.
    totals = {f: data["total", f"{f}.steps"] for f in table6.FIELDS}
    assert totals["source1"] > totals["source2"]
    assert totals["source1"] > totals["dest"]
    assert 30.0 < totals["source1"] < 90.0
    assert 10.0 < totals["dest"] < 60.0

    def source1(mode):
        """% of all steps with a source-1 access in ``mode``."""
        return data[mode.value, "source1.steps"]

    # Base-relative @PDR/CDR: present but small.
    assert source1(WFMode.PDR_CDR) < 5.0
    # Trail buffer and WFCBR nearly idle.
    assert source1(WFMode.WFAR2) < 1.0
    assert source1(WFMode.WFCBR) < 1.5
    # Frame buffer accesses via @WFAR1 exist but are minor.
    assert 0.0 < source1(WFMode.WFAR1) < 12.0

    # Auto-increment usage on WFAR accesses (percent).
    assert data["WFAR auto-increment", "share"] >= 80.0
