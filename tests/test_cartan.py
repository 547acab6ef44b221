"""The Cartan search stops at the first Cartan subalgebra it finds.

All Cartan subalgebras of a solvable Lie algebra share one dimension, so
the first accepted candidate is as small as any later one. The full scan
below, which tries every candidate and keeps the first of least
dimension, is the oracle: it must never find a smaller one, and the
Cartan and the semisimple tensor it leads to must be the search's, bit
for bit.
"""

import numpy as np
import pytest

from solvhull import CartanNotFound, builtin_problem, validate_algebra
from solvhull import algebra, linalg
from solvhull.algebra import (
    LieAlgebra,
    NotNilpotent,
    _canon_basis,
    _field_kernel,
    _fitting_null,
    lower_central_series,
    nilradical,
    restricted_structure,
    semisimple_adjoint,
)
from solvhull.tolerances import DEFAULT

from conftest import CORPUS_SEEDS, graded_filiform_structure, torus_heisenberg_structure

# Corpus seeds whose first candidate is accepted although the Cartan
# meets the nilradical, so no dimension bound could end a full scan.
FIRST_OF_MANY = (3, 6, 10, 11, 13, 16, 17, 18, 19, 20, 22)

CASES = (
    [f"corpus{seed}" for seed in CORPUS_SEEDS]
    + ["sol", "sect4"]
    + [f"filiform{m}" for m in range(4, 9)]
    + [f"torus_heisenberg{k}" for k in range(1, 4)]
)


def _problem(name, corpus):
    if name.startswith("corpus"):
        return corpus[int(name[len("corpus"):])], DEFAULT
    if name.startswith("filiform"):
        return validate_algebra(graded_filiform_structure(int(name[len("filiform"):]))), DEFAULT
    if name.startswith("torus_heisenberg"):
        k = int(name[len("torus_heisenberg"):])
        return validate_algebra(torus_heisenberg_structure(k)), DEFAULT
    problem = builtin_problem(name)
    return problem.algebra, problem.tolerances


def full_scan(alg, nil, tolerances):
    """Every candidate tried; the first one of least dimension wins.

    Returns (winning candidate index, its Cartan, dimensions of every
    accepted Cartan).
    """
    n = alg.dim
    best, best_index, dims = None, None, []
    for index, cand in enumerate(algebra._cartan_candidates(alg)):
        q, _ = algebra._try_cartan(alg, cand, tolerances)
        if q is None:
            continue
        combined = np.hstack([q.astype(complex), nil.basis.astype(complex)])
        if linalg.orthonormal_columns(combined, tolerances.alg).shape[1] != n:
            continue
        dims.append(q.shape[1])
        if best is None or q.shape[1] < best.shape[1]:
            best, best_index = q, index
    return best_index, best, dims


def _count_calls(monkeypatch):
    calls = []
    original = algebra._try_cartan

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(algebra, "_try_cartan", counted)
    return calls


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_cartan_search_tries_one_candidate_on_the_corpus(seed, corpus, monkeypatch):
    alg = corpus[seed]
    nil = nilradical(alg)
    calls = _count_calls(monkeypatch)
    semisimple_adjoint(alg, nil)
    assert len(calls) == 1


def test_full_scan_goes_on_past_the_first_candidate(corpus):
    """The seeds above accept e0, and the full scan accepts more after it."""
    for seed in FIRST_OF_MANY:
        alg = corpus[seed]
        index, _, dims = full_scan(alg, nilradical(alg), DEFAULT)
        assert index == 0
        assert len(dims) > 1, seed


@pytest.mark.parametrize("name", CASES)
def test_no_later_cartan_is_smaller(name, corpus, monkeypatch):
    alg, tol = _problem(name, corpus)
    nil = nilradical(alg, tol)
    index, best, dims = full_scan(alg, nil, tol)
    assert set(dims) == {best.shape[1]}
    ads = semisimple_adjoint(alg, nil, tol)
    assert ads.cartan.tobytes() == best.tobytes()

    # The tensor the full scan's choice leads to, built from that candidate alone.
    winner = list(algebra._cartan_candidates(alg))[index]
    monkeypatch.setattr(algebra, "_cartan_candidates", lambda a: iter([winner]))
    oracle = semisimple_adjoint(alg, nil, tol)
    assert oracle.cartan.tobytes() == ads.cartan.tobytes()
    assert oracle.tensor.tobytes() == ads.tensor.tobytes()


def test_cartan_failure_counts_its_candidates():
    """Rank 10 has 11 + 55 + 20 candidates and none of them is a Cartan."""
    alg = validate_algebra(graded_filiform_structure(10))
    with pytest.raises(CartanNotFound, match="no Cartan subalgebra found among 86") as err:
        semisimple_adjoint(alg)
    assert err.value.stage == "semisimple_adjoint"
    assert err.value.tried == 86
    assert str(err.value).startswith("semisimple_adjoint: ")
    reasons = {
        "no zero eigenvalue cluster",
        "not closed under conjugation",
        "not a subalgebra",
        "not nilpotent",
        "not self-normalizing",
    }
    assert set(err.value.rejected) <= reasons
    for why, count in err.value.rejected.items():
        assert f"{why}: {count}" in str(err.value)


def test_cartan_that_misses_the_complement_is_rejected(monkeypatch):
    """A candidate that does not span g with the nilradical is counted as such."""
    problem = builtin_problem("sol")
    alg = problem.algebra
    monkeypatch.setattr(
        algebra, "_try_cartan", lambda a, x, t: (np.zeros((a.dim, 0)), None)
    )
    with pytest.raises(CartanNotFound) as err:
        semisimple_adjoint(alg, tolerances=problem.tolerances)
    tried = len(list(algebra._cartan_candidates(alg)))
    assert err.value.rejected == {"does not span g with the nilradical": tried}
    assert err.value.tried == tried


def canon_first_try_cartan(alg, x, tolerances):
    """_try_cartan with the canonical basis built before the checks run."""
    q, dim = _fitting_null(alg.adjoint(x).astype(complex), tolerances.cluster_scale)
    if q is None or dim == 0:
        return None, "no zero eigenvalue cluster"
    if not alg.is_complex:
        if not linalg.is_real_subspace(q, tolerances.num):
            return None, "not closed under conjugation"
        q = linalg.realify_columns(q, tolerances.num)
    q = _canon_basis(q, alg.is_complex, tolerances, "semisimple_adjoint")
    table, resid = restricted_structure(alg, q)
    if resid > tolerances.num:
        return None, "not a subalgebra"
    try:
        lower_central_series(LieAlgebra(structure=table, names=()), tolerances)
    except NotNilpotent:
        return None, "not nilpotent"
    n = alg.dim
    ad_q = np.moveaxis(alg.brackets(np.eye(n), q), -1, 0)
    rows = (np.eye(n) - q @ q.conj().T) @ ad_q
    if _field_kernel(rows.reshape(-1, n), alg.is_complex, tolerances.num).shape[1] != q.shape[1]:
        return None, "not self-normalizing"
    return q, None


@pytest.mark.parametrize("name", CASES + ["filiform9"])
def test_only_the_accepted_candidate_is_canonicalized(name, corpus, monkeypatch):
    """Checking the orthonormal basis keeps every verdict and accepted basis."""
    alg, tol = _problem(name, corpus)
    canonicalized = []

    def counted(*args):
        canonicalized.append(args)
        return _canon_basis(*args)

    for cand in algebra._cartan_candidates(alg):
        expected, expected_reason = canon_first_try_cartan(alg, cand, tol)
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_canon_basis", counted)
            q, reason = algebra._try_cartan(alg, cand, tol)
        assert reason == expected_reason
        assert len(canonicalized) == (q is not None)
        canonicalized.clear()
        if q is not None:
            assert q.tobytes() == expected.tobytes()
