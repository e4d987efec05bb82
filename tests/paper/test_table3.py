"""Paper-shape checks for Table 3: cache command rates.

Shape checks from §4.2: roughly one in five steps carries a cache
command; reads outnumber writes about 3:1; the specialised Write-stack
command carries 50-75% of all writes.
"""

import pytest

from repro.eval import table3

pytestmark = pytest.mark.slow


def test_table3():
    data = table3.generate()
    print()
    print(table3.render(data))

    for program in data.programs:
        # "16 to 23.1% of all microinstruction steps include cache
        # commands" — allow a modelling margin around that band.
        total = data[program, "total"]
        assert 12.0 < total < 32.0, (program, total)
        # Reads dominate writes (paper: ~3:1).
        ratio = data[program, "read_write_ratio"]
        assert 1.8 < ratio < 5.5, (program, ratio)
        # Write-stack is the majority write command.
        share = data[program, "write_stack_share"]
        assert 45.0 < share <= 95.0, (program, share)
