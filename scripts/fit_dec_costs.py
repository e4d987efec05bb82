#!/usr/bin/env python
"""Calibration tool for the DEC-2060 cost model (development use).

Runs the PSI side of Table 1 once, then evaluates candidate cost-table
scalings on the DEC side against the paper's ratios.  The shipped
values in ``repro/baseline/isa.py`` are the fixed point of this fit;
rerun with ``--params g,alpha,beta,uv,lambda,gamma,delta`` to explore.
"""

from __future__ import annotations

import math
import sys

from repro.baseline import WAMMachine, isa
from repro.baseline.isa import Op
from repro.eval.paper_data import TABLE1
from repro.tools import collect
from repro.workloads import get

NAMES = ["nreverse", "qsort", "tree", "lisp-fib", "lisp-nreverse",
         "queens-one", "reverse-function", "slow-reverse", "bup-1", "bup-2",
         "harmonizer-1", "harmonizer-2", "lcp-2", "lcp-3"]

BASE_COSTS = dict(isa.COSTS_NS)
BASE_DYN = dict(isa.DYNAMIC_COSTS_NS)

ALPHA = [Op.GET_STRUCTURE, Op.PUT_STRUCTURE, Op.SWITCH_ON_STRUCTURE,
         Op.GET_VALUE, Op.UNIFY_LOCAL_VALUE]
ALPHA_DYN = ["general_unify_node"]
BETA = [Op.TRY, Op.RETRY, Op.TRUST, Op.TRY_ME_ELSE, Op.RETRY_ME_ELSE,
        Op.TRUST_ME]
BETA_DYN = ["backtrack", "untrail_entry", "trail_entry"]
LAMBDA = [Op.GET_LIST, Op.UNIFY_VARIABLE, Op.UNIFY_CONSTANT, Op.UNIFY_NIL,
          Op.GET_CONSTANT, Op.GET_NIL, Op.PUT_LIST, Op.PUT_CONSTANT,
          Op.PUT_NIL]
GAMMA = [Op.CALL, Op.EXECUTE, Op.PROCEED, Op.ALLOCATE, Op.DEALLOCATE,
         Op.PUT_VALUE, Op.PUT_VARIABLE, Op.GET_VARIABLE,
         Op.PUT_UNSAFE_VALUE, Op.SWITCH_ON_TERM, Op.SWITCH_ON_CONSTANT]
DELTA = [Op.BUILTIN, Op.BUILTIN_ARITH]
DELTA_DYN = ["builtin_step", "arith_node"]


def apply_params(g, alpha, beta, uv, lam, gamma, delta):
    for op in isa.COSTS_NS:
        isa.COSTS_NS[op] = int(BASE_COSTS[op] * g)
    for key in isa.DYNAMIC_COSTS_NS:
        isa.DYNAMIC_COSTS_NS[key] = int(BASE_DYN[key] * g)
    groups = [(ALPHA, alpha), (BETA, beta), (LAMBDA, lam), (GAMMA, gamma),
              (DELTA, delta), ([Op.UNIFY_VALUE], uv)]
    for ops_, factor in groups:
        for op in ops_:
            isa.COSTS_NS[op] = int(BASE_COSTS[op] * g * factor)
    for key, factor in [(k, alpha) for k in ALPHA_DYN] \
            + [(k, beta) for k in BETA_DYN] \
            + [("heap_cell", lam)] \
            + [(k, delta) for k in DELTA_DYN]:
        isa.DYNAMIC_COSTS_NS[key] = int(BASE_DYN[key] * g * factor)


def main() -> int:
    psi_ms = {}
    for name in NAMES:
        w = get(name)
        psi_ms[name] = collect(w.source, w.goal, record_trace=False).time_ms
    if len(sys.argv) > 1:
        params = tuple(float(x) for x in sys.argv[1].split(","))
    else:
        params = (1.0,) * 7   # evaluate the shipped table as-is
    apply_params(*params)
    err = 0.0
    for name in NAMES:
        w = get(name)
        wam = WAMMachine()
        wam.consult(w.source)
        assert wam.run(w.goal) is not None, name
        ratio = wam.stats.time_ms / psi_ms[name]
        paper = TABLE1[name][2]     # the paper's DEC/PSI ratio
        err += (math.log(ratio) - math.log(paper)) ** 2
        print(f"{name:18s} measured {ratio:5.2f}  paper {paper:5.2f}")
    print(f"params={params} log-ratio error={err:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
