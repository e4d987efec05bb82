"""Paper-shape checks for Table 2: interpreter module step ratios.

Shape checks, mirroring §3.2's observations:
* BUP and HARMONIZER are unification-dominated (largest module);
* 8 PUZZLE executes no cut at all;
* WINDOW is cut- and builtin-heavy with very little trail activity;
* builtin calls dominate the call mix for WINDOW (~82%) and are a
  majority for BUP (~65%) even though their *step* share is far lower —
  the paper's "a lot of time is spent for execution control" point.
"""

import pytest

from repro.core.micro import Module
from repro.eval import table2

pytestmark = pytest.mark.slow


def test_table2():
    data = table2.generate()
    print()
    print(table2.render(data))
    ratios = {program: {m: data[program, m.value] for m in Module}
              for program in data.programs}

    bup = ratios["bup"]
    # Unification is BUP's dominant *working* module (the paper's 43%).
    # Our model over-attributes call/return machinery to control (a
    # documented deviation), so the check is: unify near the top and
    # ahead of every non-control module by a wide margin.
    assert bup[Module.UNIFY] > 30.0
    assert bup[Module.UNIFY] >= max(v for m, v in bup.items()
                                    if m is not Module.CONTROL)
    assert bup[Module.CONTROL] - bup[Module.UNIFY] < 10.0

    harmonizer = ratios["harmonizer"]
    assert max(harmonizer, key=harmonizer.get) is Module.UNIFY

    puzzle = ratios["puzzle8"]
    assert puzzle[Module.CUT] == 0.0
    assert puzzle[Module.BUILT] + puzzle[Module.GET_ARG] > 15.0
    # Much backtracking -> visible trail activity.
    assert puzzle[Module.TRAIL] > 1.0

    window = ratios["window"]
    assert window[Module.CUT] > 3.0
    assert window[Module.BUILT] > 15.0
    assert window[Module.TRAIL] < 3.0
    assert window[Module.UNIFY] < bup[Module.UNIFY]

    # Builtin call rates: WINDOW highest, far above its step share.
    assert data["window", "builtin_call_rate"] > 55.0
    assert data["bup", "builtin_call_rate"] < \
        data["window", "builtin_call_rate"]
