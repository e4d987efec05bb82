"""Paper-shape checks for the §4.2 ablations.

* one 4KW set loses only a few percent vs two 4KW sets (paper: ~3%);
* store-in beats store-through (paper: ~8% higher improvement ratio).
"""

import pytest

from repro.eval import ablations

pytestmark = pytest.mark.slow


def test_ablations():
    results = ablations.generate()
    print()
    print(ablations.render(results))

    for name, comparison in results.associativity.items():
        # Two sets never lose; the single-set penalty stays small.
        assert comparison.improvement_a >= comparison.improvement_b - 1.0, name
        assert comparison.relative_loss_percent < 15.0, (
            name, comparison.relative_loss_percent)

    policy = results.write_policy
    assert policy.improvement_a > policy.improvement_b, "store-in must win"
    gain = policy.relative_loss_percent
    assert 2.0 < gain < 30.0, f"store-in advantage {gain:.1f}% out of band"
