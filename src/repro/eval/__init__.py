"""Evaluation harness: one module per table/figure of the paper."""

from repro.eval import (  # noqa: F401
    ablations,
    figure1,
    paper_data,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.eval.runner import (
    BaselineRun,
    clear_cache,
    run_many,
    run_spec,
)
from repro.eval.specs import (
    RunSpec,
    all_specs,
    default_spec,
    get_spec,
    register_spec,
    set_default_spec,
)

__all__ = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "figure1", "ablations", "paper_data",
    "run_spec", "run_many", "BaselineRun", "clear_cache",
    "RunSpec", "get_spec", "register_spec", "all_specs", "default_spec",
    "set_default_spec",
]
