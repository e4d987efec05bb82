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
    data = table5.generate()
    print()
    print(table5.render(data))
    total = {program: data[program, "total"] for program in data.programs}

    # Locality is high everywhere.
    for program, ratio in total.items():
        assert ratio > 88.0, (program, ratio)

    # The non-window applications reach the mid-to-high 90s.
    for name in ("puzzle8", "bup", "harmonizer", "lcp"):
        assert total[name] > 94.0, (name, total[name])
    assert max(total[name] for name in ("puzzle8", "bup", "harmonizer")) > 96.0

    # Process switching degrades window-2/3 below window-1.
    assert total["window-2"] < total["window-1"]
    assert total["window-3"] < total["window-1"]
