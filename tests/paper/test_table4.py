"""Paper-shape checks for Table 4: per-area access frequency.

Shape checks from §4.2: heap accesses (mostly instruction fetch) are
the single largest share (~30-55%); WINDOW's heap share is boosted by
heap-vector data; trail traffic is small everywhere; the stack mix is
program dependent (structure-heavy programs push the global stack up,
plain-variable programs the local stack).
"""

import pytest

from repro.core.memory import Area
from repro.eval import table4

pytestmark = pytest.mark.slow


def test_table4():
    data = table4.generate()
    print()
    print(table4.render(data))
    ratios = {program: {area: data[program, area.label] for area in Area}
              for program in data.programs}

    for program, shares in ratios.items():
        # Heap is a major consumer for every program.
        assert shares[Area.HEAP] > 20.0, (program, shares)
        # Trail accesses are low (paper: at most 6.4%).
        assert shares[Area.TRAIL] < 12.0, (program, shares)

    # WINDOW: heap-vector data lifts the heap share to the top.
    window = ratios["window-1"]
    assert window[Area.HEAP] == max(window.values())
    assert window[Area.HEAP] > 35.0

    # BUP processes many structured terms: global stack prominent.
    bup = ratios["bup"]
    assert bup[Area.GLOBAL] > 15.0

    # The search programs (8 PUZZLE, HARMONIZER) backtrack hardest:
    # they hold the top trail shares of the set.
    trail_ranked = sorted(ratios, key=lambda p: -ratios[p][Area.TRAIL])
    top_two = set(trail_ranked[:2])
    assert "puzzle8" in top_two or "harmonizer" in top_two
    assert ratios["puzzle8"][Area.TRAIL] > 3.0
