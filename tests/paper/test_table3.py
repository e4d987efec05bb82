"""Paper-shape checks for Table 3: cache command rates.

Shape checks from §4.2: roughly one in five steps carries a cache
command; reads outnumber writes about 3:1; the specialised Write-stack
command carries 50-75% of all writes.
"""

import pytest

from repro.eval import table3

pytestmark = pytest.mark.slow


def test_table3():
    rows = table3.generate()
    print()
    print(table3.render(rows))

    for row in rows:
        # "16 to 23.1% of all microinstruction steps include cache
        # commands" — allow a modelling margin around that band.
        assert 12.0 < row.total < 32.0, (row.program, row.total)
        # Reads dominate writes (paper: ~3:1).
        assert 1.8 < row.read_write_ratio < 5.5, (row.program, row.read_write_ratio)
        # Write-stack is the majority write command.
        assert 45.0 < row.write_stack_share <= 95.0, (
            row.program, row.write_stack_share)
