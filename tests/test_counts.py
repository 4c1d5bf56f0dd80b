"""Count arguments: a count that is not an integer, is a bool, or is below its
minimum is an input error (ValidationError), never a verdict or a numpy error."""

import numpy as np
import pytest

from nsgleason.bases import twist_search, twisted_example_basis
from nsgleason.keller import SearchMode, clique_search
from nsgleason.linalg import ValidationError
from nsgleason.nosig import max_chsh_lp, pr_box, quantum_extension, with_qubit_realizations

EXHAUSTIVE, HEURISTIC = SearchMode.EXHAUSTIVE, SearchMode.HEURISTIC


def qubit_pr_box():
    return with_qubit_realizations(pr_box())


# Before, clique_search(2, 2.5) answered None, which reads as an exhaustive proof that
# no clique exists; twist_search ran 2.5 as three steps and -1 as an exhausted budget;
# max_chsh_lp took (True, 500); and the PR box's certificate decided before any sample
# count was read.
@pytest.mark.parametrize("call", [
    lambda: clique_search(2, 2.5, EXHAUSTIVE),
    lambda: clique_search(2.0, 4, EXHAUSTIVE),
    lambda: clique_search(True, 4, EXHAUSTIVE),
    lambda: clique_search(2, np.float64(4), HEURISTIC),
    lambda: clique_search(2, 4, HEURISTIC, budget=2.5),
    lambda: clique_search(2, 4, HEURISTIC, budget=True),
    lambda: twist_search(twisted_example_basis(), budget=2.5),
    lambda: twist_search(twisted_example_basis(), budget=-1),
    lambda: twist_search(twisted_example_basis(), budget=False),
    lambda: max_chsh_lp(qubit_pr_box(), (True, 500)),
    lambda: max_chsh_lp(qubit_pr_box(), (250.5, 500)),
    lambda: max_chsh_lp(qubit_pr_box(), (0, 500)),
    lambda: quantum_extension(qubit_pr_box(), positivity_samples=2.5),
    lambda: quantum_extension(qubit_pr_box(), positivity_samples=0),
    lambda: quantum_extension(qubit_pr_box(), positivity_samples=True),
], ids=["clique target 2.5", "clique n 2.0", "clique n True", "heuristic target float64",
        "heuristic budget 2.5", "heuristic budget True", "twist budget 2.5", "twist budget -1",
        "twist budget False", "schedule True", "schedule 250.5", "schedule 0",
        "extension samples 2.5", "extension samples 0", "extension samples True"])
def test_counts_must_be_integers_at_least_their_minimum(call):
    with pytest.raises(ValidationError, match="integer"):
        call()


def test_counts_at_their_minimum_are_accepted():
    assert clique_search(1, 1, EXHAUSTIVE).size == 1
    assert clique_search(np.int64(1), 1, HEURISTIC, budget=np.int8(1)).size == 1
    res = twist_search(twisted_example_basis(), budget=np.int64(0))
    assert not res.found and res.reason == "move budget exhausted"
