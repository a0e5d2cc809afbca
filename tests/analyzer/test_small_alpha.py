"""A small α recycles level 1 before the analyzer reads it (§4.1.1).

The paper: a misconfigured α "may result in longer diagnosis time ...
but does not result in correctness violation".  So once level 1 has
reused the alert's epochs, the read must come from a coarser level or
the pushed history, never answer "no hosts": the incast verdict at a
small α is the verdict at the paper's α = 10.
"""

from repro.core.rng import seed_run
from repro.scenarios import run_scenario

SEED = 1729


def incast(alpha_ms):
    """(problem, hosts consulted, culprit flows) of one seeded run."""
    seed_run(SEED)
    result = run_scenario("incast", hosts=32, bg_flows=200,
                          alpha_ms=alpha_ms)
    verdict = result.verdicts[0]
    return (verdict.problem, sorted(verdict.hosts_consulted),
            sorted({c.flow for c in verdict.culprits}))


def test_alpha_4_gives_the_alpha_10_verdict():
    problem, hosts, culprits = incast(4)
    assert problem == "incast"
    assert (problem, hosts, culprits) == incast(10)


def test_alpha_2_still_diagnoses_incast():
    problem, hosts, culprits = incast(2)
    assert problem == "incast"
    assert hosts and culprits
