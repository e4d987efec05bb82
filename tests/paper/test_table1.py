"""Paper-shape checks for Table 1: PSI vs DEC-2060 execution time.

Regenerates every row of Table 1 and checks the reproduced *shape*:
DEC wins the compiler-friendly programs (nreverse, slow reverse, LCP),
PSI wins the runtime-heavy ones (BUP, harmonizer), and the headline
conclusion — overall comparable performance — holds.
"""

import pytest

from repro.eval import paper_data, table1

pytestmark = pytest.mark.slow


def test_table1_full():
    rows = table1.generate()
    print()
    print(table1.render(rows))

    by_name = {row.name: row for row in rows}

    # DEC is faster on the compiler-optimisable programs.
    assert by_name["nreverse"].ratio < 1.0, "DEC must win nreverse"
    assert by_name["lcp-2"].ratio < 1.0, "DEC must win LCP"
    assert by_name["lcp-3"].ratio < 1.0, "DEC must win LCP"

    # PSI is faster on the runtime-processing-heavy applications.
    for name in ("bup-2", "bup-3", "harmonizer-1", "harmonizer-2"):
        assert by_name[name].ratio > 1.0, f"PSI must win {name}"

    # Overall the two machines are comparable: geometric-mean ratio
    # within a factor ~1.5 of parity (the paper's 19 ratios span
    # 0.70-1.58 with geometric mean ~1.06).
    product = 1.0
    for row in rows:
        product *= row.ratio
    gmean = product ** (1.0 / len(rows))
    assert 0.67 < gmean < 1.5, f"geometric mean ratio {gmean:.2f} off scale"

    # Winner agreement with the paper on a clear majority of rows.
    agreement = sum(table1._winner_agrees(
        row.ratio, paper_data.paper("table1", row.name, "dec_over_psi"))
        for row in rows)
    assert agreement >= 14, f"only {agreement}/19 winners agree with the paper"
