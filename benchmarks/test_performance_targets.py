"""§2.3 target performance: "30K LIPS, comparable to the DEC-10 Prolog
compiler on the DEC-2060".

Checks that the modelled PSI runs in the right performance class on the
classic LIPS benchmark and that the two machines end up comparable
overall, the paper's headline conclusion.
"""

from repro.eval.runner import run_spec


def test_lips_target(once):
    run = once(run_spec, "nreverse", "faithful")
    klips = run.lips / 1000.0
    print(f"\nmodelled PSI speed on nreverse(30): {klips:.1f} KLIPS "
          f"(paper target: 30K LIPS)")
    # Same performance class as the hardware: tens of kLIPS.
    assert 8.0 < klips < 120.0

    # Cache effectiveness at the production configuration.
    assert run.cache.stats.hit_ratio > 90.0


def test_machines_comparable_on_lips_benchmark(once):
    psi = run_spec("nreverse", "faithful")
    dec = once(run_spec, "nreverse", "baseline")
    ratio = dec.time_ms / psi.time_ms
    print(f"\nnreverse DEC/PSI ratio: {ratio:.2f} (paper: 0.70)")
    # DEC wins nreverse, but within the same order of magnitude.
    assert 0.3 < ratio < 1.0
