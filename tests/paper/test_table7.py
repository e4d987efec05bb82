"""Paper-shape checks for Table 7: branch operation frequencies.

Shape checks from §4.4: roughly 80% of steps carry a branch operation;
conditional branches are the biggest group (paper: 35-39% of steps);
multi-way tag dispatches account for over a tenth of steps (paper:
13-14%, "every eighth step"); indirect branching via JR is rare.
"""

import pytest

from repro.core.micro import BranchOp
from repro.eval import table7

pytestmark = pytest.mark.slow


def test_table7():
    data = table7.generate()
    print()
    print(table7.render(data))

    for program in data.programs:
        rate = data["branch ops", program]
        assert 60.0 < rate < 95.0, (program, rate)

        conditional = data["conditionals", program]
        assert 20.0 < conditional < 55.0, (program, conditional)

        multiway = data["multi-way", program]
        assert 8.0 < multiway < 25.0, (program, multiway)

        ratios = {op: data[op.value, program] for op in BranchOp}
        # Indirect branches via JR are rare.
        assert ratios[BranchOp.GOTO_JR1] < 4.0
        assert ratios[BranchOp.GOTO_JR3] < 1.0
        # gosub/return appear in matched, moderate amounts.
        assert 1.0 < ratios[BranchOp.GOSUB] < 12.0
        assert 1.0 < ratios[BranchOp.RETURN] < 12.0

    # case(irn) (packed-operand dispatch) is livelier in the
    # integer-packed 8 puzzle than in the atom-heavy BUP.
    case_irn = BranchOp.CASE_IRN.value
    assert data[case_irn, "puzzle8"] >= data[case_irn, "bup"] - 0.5
