"""Tests for frame functions: operator-induced, tabulated, signalling."""

import numpy as np
import pytest

from nsgleason.bases import ProductBasis, ProductState
from nsgleason.framefn import (
    OperatorInduced,
    make_signalling_example,
    read_samples_json,
    sample_from_operator,
    weight_check,
    write_samples_json,
)
from nsgleason.linalg import (
    HermitianOperator,
    make_rng,
    proj,
    random_density,
    random_onb,
    random_unit,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def random_product_bases(rng, dims, count):
    return [
        ProductBasis(tuple(tuple(random_onb(rng, d).T) for d in dims))
        for _ in range(count)
    ]


def test_maximally_mixed_evaluates_constant():
    rng = make_rng(1)
    f = OperatorInduced(HermitianOperator((3, 3), np.eye(9) / 9))
    for _ in range(10):
        s = ProductState((random_unit(rng, 3), random_unit(rng, 3)))
        assert f(s) == pytest.approx(1 / 9, abs=1e-12)


def test_swap_half_gives_overlap_squared():
    rng = make_rng(2)
    f = OperatorInduced(HermitianOperator((2, 2), SWAP / 2))
    for _ in range(10):
        v, w = random_unit(rng, 2), random_unit(rng, 2)
        expected = abs(np.vdot(v, w)) ** 2 / 2
        assert f(ProductState((v, w))) == pytest.approx(expected, abs=1e-12)


def test_bell_projector_on_00():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    f = OperatorInduced(HermitianOperator((2, 2), proj(phi)))
    s = ProductState((np.array([1.0, 0]), np.array([1.0, 0])))
    assert f(s) == pytest.approx(0.5, abs=1e-12)


def test_weight_equals_trace_over_any_product_basis():
    rng = make_rng(3)
    t = random_density(rng, (3, 3))
    f = OperatorInduced(t)
    rep = weight_check(f, random_product_bases(rng, (3, 3), 10))
    assert rep.spread <= 1e-10
    assert rep.weight == pytest.approx(t.trace(), abs=1e-10)


def test_partial_transpose_is_conjugation_relabel():
    from nsgleason.linalg import partial_transpose, random_hermitian

    rng = make_rng(4)
    t = random_hermitian(rng, (3, 3))
    f_pt = OperatorInduced(partial_transpose(t, 1))
    f = OperatorInduced(t)
    for _ in range(20):
        v, w = random_unit(rng, 3), random_unit(rng, 3)
        lhs = f_pt(ProductState((v, w)))
        rhs = f(ProductState((v, w.conj())))
        assert abs(lhs - rhs) <= 1e-12


def test_signalling_family_weight_constant():
    rng = make_rng(5)
    f = make_signalling_example((3, 3), np.pi / 4)
    rep = weight_check(f, random_product_bases(rng, (3, 3), 50))
    assert rep.spread <= 1e-10
    assert rep.weight == pytest.approx(1.0, abs=1e-10)


def test_signalling_family_values_in_unit_interval():
    rng = make_rng(6)
    f = make_signalling_example((3, 3), np.pi / 4)
    for _ in range(100):
        s = ProductState((random_unit(rng, 3), random_unit(rng, 3)))
        assert -1e-12 <= f(s) <= 1 + 1e-12


def test_signalling_marginal_depends_on_basis():
    # Explicit two-basis witness: sum_j f(v_j (x) w) differs between the
    # computational site-1 basis and a rotated one.
    f = make_signalling_example((2, 2), np.pi / 4)
    w = np.array([1.0, 0.0])
    comp = np.eye(2)
    rot = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

    def marginal(basis):
        return sum(f(ProductState((basis[:, k], w))) for k in range(2))

    assert abs(marginal(comp) - marginal(rot)) >= 1e-3


def test_tabulated_lookup_and_miss():
    rng = make_rng(7)
    t = random_density(rng, (2, 2))
    design = [
        ProductState((random_unit(rng, 2), random_unit(rng, 2))) for _ in range(5)
    ]
    f = sample_from_operator(t, design)
    for s in design:
        assert f(s) == pytest.approx(t.expectation(s.full()), abs=1e-12)
    with pytest.raises(KeyError):
        f(ProductState((random_unit(rng, 2), random_unit(rng, 2))))


def test_tabulated_perturbation_shows_in_spread():
    rng = make_rng(8)
    t = HermitianOperator((2, 2), np.eye(4) / 4)
    basis = ProductBasis(tuple(tuple(random_onb(rng, 2).T) for _ in range(2)))
    design = basis.elements()
    f = sample_from_operator(t, design)
    g = f.perturbed(design[0].key(), 0.05)
    rep = weight_check(g, [basis])
    # Single basis: spread 0, but the weight shifted by the perturbation.
    assert rep.weight == pytest.approx(1.0 + 0.05, abs=1e-12)


def test_sample_values_within_rayleigh_bounds():
    rng = make_rng(9)
    t = random_density(rng, (3, 3))
    design = [
        ProductState((random_unit(rng, 3), random_unit(rng, 3))) for _ in range(50)
    ]
    f = sample_from_operator(t, design)
    assert all(0 <= v <= 1 for v in f.table.values())


def test_sample_table_serialization(tmp_path):
    rng = make_rng(10)
    t = random_density(rng, (2, 2))
    design = [
        ProductState((random_unit(rng, 2), random_unit(rng, 2))) for _ in range(4)
    ]
    values = [t.expectation(s.full()) for s in design]
    path = tmp_path / "t.json"
    write_samples_json(path, design, values)
    back_design, back_values = read_samples_json(path)
    np.testing.assert_allclose(back_values, values)
    for s, bs in zip(design, back_design):
        assert abs(s.overlap(bs)) == pytest.approx(1.0, abs=1e-12)
