"""Paper-shape checks for Figure 1: improvement ratio vs cache capacity.

Shape checks: improvement grows monotonically-ish with capacity and
saturates near 512 words — the paper's argument that the 8K-word cache
"can be reduced to some extent".
"""

import pytest

from repro.eval import figure1

pytestmark = pytest.mark.slow


def test_figure1():
    result = figure1.generate()
    print()
    print(figure1.render(result))
    points = result.points

    # More capacity never hurts much (small set-conflict jitter allowed).
    for smaller, larger in zip(points, points[1:]):
        assert larger.improvement_percent >= smaller.improvement_percent - 3.0

    # Tiny caches are clearly worse than the full-size one.
    assert points[0].improvement_percent < 0.6 * points[-1].improvement_percent

    # Saturation: 512 words already delivers >=90% of the 8K-word
    # improvement (the paper: "saturates near the capacity of 512 words").
    by_capacity = {p.capacity_words: p for p in points}
    full = by_capacity[8192].improvement_percent
    assert by_capacity[512].improvement_percent >= 0.90 * full
    # ... and far-from-saturated well below 512.
    assert by_capacity[32].improvement_percent < 0.9 * full
