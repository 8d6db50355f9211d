"""Every cycle of the smallest cubes through all three engines, as an oracle.

``cycles.survey`` checks each filling of each cycle (boundary, certificate,
lower bound <= optimum <= both constructive fillings) and that no cycle's
optimum / norm^((k+1)/k) exceeds the alternating-block member's, then sums
the corpus.  The summed optimum and the largest optimum per norm are facts
about the cube and are pinned exactly: the member's norm reaches the member's
fill.  The engines' totals are pinned as bounds a better engine may beat.
All 131,071 1-cycles of Q_4 take 40-70 s, so tier-1 runs every 64th of the
walk, and ``PYTHONPATH=src python tests/test_exhaustive.py`` runs the whole
corpus against the same two tests and the (4, 1) pins, as CI does.
"""

import json
from functools import cache

import pytest

from cycles import survey

CORPORA = [(4, 2), (5, 3), (6, 4)]
# per corpus: cycles, summed optimum, largest optimum per norm
OPTIMA = {
    (4, 2): (127, 372, {6: 1, 10: 2, 12: 4, 14: 4, 16: 4}),
    (5, 3): (511, 1930, {8: 1, 14: 2, 16: 2, 18: 3, 20: 5, 22: 5, 24: 5}),
    (6, 4): (2047, 9516, {10: 1, 18: 2, 20: 2, 24: 3, 26: 3, 28: 4, 30: 6, 32: 6, 34: 6, 36: 6}),
    # every 1-cycle of Q_4, run as a script only
    (4, 1): (131071, 783296, {4: 1, 6: 3, 8: 6, 10: 6, 12: 7, 14: 7, 16: 8, 18: 8, 20: 8, 22: 8,
                              24: 8, 26: 9, 28: 7, 32: 8}),
}
# per corpus: most linear and recursive cells and exact-search nodes, fewest
# cycles whose slicing lower bound is the optimum
ENGINES = {
    (4, 2): (372, 372, 109, 100),
    (5, 3): (1930, 1930, 597, 401),
    (6, 4): (9516, 9876, 3170, 1617),
    (4, 1): (830972, 826956, 3090777, 32907),
}

# every 64th 1-cycle of Q_4's Gray-code walk, 2,048 of its 131,071: cycles and summed
# optimum, then most linear and recursive cells and nodes, fewest tight cycles
SAMPLE = (4, 1, 64)
SAMPLE_OPTIMA = (2048, 11690)
SAMPLE_ENGINES = (12006, 11950, 38656, 704)

surveyed = cache(survey)


@pytest.mark.parametrize("n, k", CORPORA)
def test_every_cycle_and_its_optimum(n, k):
    found = surveyed(n, k)
    assert (found.cycles, found.optimum, found.largest) == OPTIMA[n, k]


def assert_within(found, most_linear, most_recursive, most_nodes, fewest_tight):
    assert found.optimum <= found.linear <= most_linear
    assert found.optimum <= found.recursive <= most_recursive
    assert found.nodes <= most_nodes
    assert found.tight >= fewest_tight


@pytest.mark.parametrize("n, k", CORPORA)
def test_engine_totals_within_their_bounds(n, k):
    assert_within(surveyed(n, k), *ENGINES[n, k])


def test_a_strided_sample_of_the_q4_one_cycles():
    found = surveyed(*SAMPLE)
    assert (found.cycles, found.optimum) == SAMPLE_OPTIMA
    assert_within(found, *SAMPLE_ENGINES)


if __name__ == "__main__":
    print(json.dumps(surveyed(4, 1)._asdict()))
    test_every_cycle_and_its_optimum(4, 1)
    test_engine_totals_within_their_bounds(4, 1)
