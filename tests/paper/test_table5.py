"""Paper-shape checks for Table 5: per-area cache hit ratios.

Shape checks from §4.2: the production cache achieves very high hit
ratios — "most of hit ratios are higher than 96% except for WINDOWs";
the process-switching WINDOW variants are the worst cases; Prolog
execution has strong memory-access locality.
"""

import pytest

from repro.eval import table5

pytestmark = pytest.mark.slow


def test_table5():
    rows = table5.generate()
    print()
    print(table5.render(rows))
    by_name = {row.program: row for row in rows}

    # Locality is high everywhere.
    for row in rows:
        assert row.total > 88.0, (row.program, row.total)

    # The non-window applications reach the mid-to-high 90s.
    for name in ("puzzle8", "bup", "harmonizer", "lcp"):
        assert by_name[name].total > 94.0, (name, by_name[name].total)
    assert max(by_name[name].total
               for name in ("puzzle8", "bup", "harmonizer")) > 96.0

    # Process switching degrades window-2/3 below window-1.
    assert by_name["window-2"].total < by_name["window-1"].total
    assert by_name["window-3"].total < by_name["window-1"].total
