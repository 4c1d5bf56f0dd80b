"""Tests for product contexts, sections, and marginalization consistency."""

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.bases import ProductState
from nsgleason.framefn import (
    OperatorInduced,
    make_signalling_example,
    sample_from_operator,
)
from nsgleason.gleason import feature_of
from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    make_rng,
    partial_transpose,
    product_rows,
    proj,
    random_density,
    random_hermitian,
    random_onb,
    random_onbs,
)
from nsgleason.nosig import singlet
from nsgleason.presheaf import (
    ConsistencyReport,
    Context,
    ProductContext,
    RefinementEdge,
    SectionTable,
    check_section,
    random_context_family,
    restrict,
    section_from_framefn,
    section_from_operator,
)
from nsgleason.tolerances import NEGATIVE_PROBABILITY, SECTION_CONSISTENT


def comp_context(d, label):
    return Context(np.eye(d, dtype=complex), label)


def coarse_table(t, edge):
    """tr(t (P_k (x) Q_l)), P_k and Q_l the projectors of the fine context's bases summed
    over each outcome group of the edge: the coarse node's table evaluated directly, not
    by restriction."""
    left, right = ([sum(proj(ctx.basis[:, i]) for i in g) for g in groups] for ctx, groups in
                   ((edge.fine.left, edge.left_groups), (edge.fine.right, edge.right_groups)))
    return np.array([[np.trace(t.mat @ np.kron(p, q)).real for q in right] for p in left])


def test_context_validation():
    with pytest.raises(ValidationError):
        Context(np.eye(2) / 2, "bad")  # columns not unit vectors
    with pytest.raises(ValidationError):
        Context(np.array([[1.0], [0.0]]), "incomplete")


def test_context_holds_a_read_only_copy_of_its_basis():
    basis = random_onb(make_rng(0), 3)
    ctx = Context(basis, "L")
    basis[0, 0] = 7.0
    assert ctx.basis.dtype == complex and not ctx.basis.flags.writeable
    np.testing.assert_array_equal(ctx.basis, random_onb(make_rng(0), 3))


FULL3 = ((0,), (1,), (2,))


def comp3_edge(side, groups):
    """Edge from comp x comp at d = 3 to a node that aggregates one side by groups."""
    ctx = comp_context(3, "C")
    grouping = {"left_groups": FULL3, "right_groups": FULL3, f"{side}_groups": groups}
    return RefinementEdge(ProductContext(ctx, ctx), "Cc", **grouping)


def comp3_section():
    """The uniform section on comp x comp at d = 3, with no coarse tables."""
    ctx = ProductContext(comp_context(3, "C"), comp_context(3, "C"))
    return SectionTable((ctx,), {ctx.label: np.full((3, 3), 1 / 9)})


def family_22():
    return random_context_family((2, 2), 1, seed=0)[0]


def with_nan(basis):
    basis = np.array(basis, dtype=complex)
    basis[1, 0] = np.nan
    return basis


NOT_ORTHONORMAL = "context c: basis columns are not orthonormal"
REJECTED = {
    "context-not-square": (lambda: Context(np.ones((2, 3)) / np.sqrt(2), "c"),
                           "context c: basis of shape (2, 3) is not (d, d)"),
    "context-incomplete": (lambda: Context(np.eye(3)[:, :2], "c"),
                           "context c: basis of shape (3, 2) is not (d, d)"),
    "context-projector-stack": (lambda: Context([proj(v) for v in np.eye(2)], "c"),
                                "context c: basis of shape (2, 2, 2) is not (d, d)"),
    "context-empty": (lambda: Context(np.zeros((0, 0)), "c"),
                      "context c: basis of shape (0, 0) is not (d, d)"),
    "context-not-unit": (lambda: Context(np.eye(2) / 2, "c"), NOT_ORTHONORMAL),
    "context-not-orthogonal": (lambda: Context(np.array([[1, 1], [0, 1]]) / [1, np.sqrt(2)], "c"),
                               NOT_ORTHONORMAL),
    "context-zero-column": (lambda: Context(np.diag([1.0, 1.0, 0.0]), "c"), NOT_ORTHONORMAL),
    "context-nan-entry": (lambda: Context(with_nan(np.eye(3)), "c"), NOT_ORTHONORMAL),
    "operator-dims": (lambda: section_from_operator(random_density(make_rng(0), (3, 3)),
                                                    family_22()),
                      "context L0|R0 has dims (2, 2), not the operator's (3, 3)"),
    "framefn-dims": (lambda: section_from_framefn(make_signalling_example((2, 3), 1.0),
                                                  family_22()),
                     "context L0|R0 has dims (2, 2), not the frame function's (2, 3)"),
    "restrict-shape": (lambda: restrict(np.full((2, 3), 1 / 6), comp3_edge("right", ((0, 1), (2,)))),
                       "does not live on the fine context"),
    "section-parent-shapes": (lambda: check_section(comp3_section(), [
        comp3_edge("right", ((0, 1), (2,))), comp3_edge("right", ((0, 1, 2),))]),
        "C|C restricts to shape (3, 1), but node Cc has shape (3, 2)"),
    "section-stored-shape": (lambda: check_section(
        SectionTable((), comp3_section().distributions | {"Cc": np.full((3, 1), 1 / 3)}),
        [comp3_edge("right", ((0, 1), (2,)))]),
        "C|C restricts to shape (3, 2), but node Cc has shape (3, 1)"),
    "section-missing-source": (lambda: check_section(SectionTable((), {}), [comp3_edge("left", FULL3)]),
                               "edge source missing from section: C|C -> Cc"),
}
for _side in ("left", "right"):
    REJECTED |= {
        f"edge-{_side}-not-partition": (lambda s=_side: comp3_edge(s, ((0, 1), (1,))),
                                        f"{_side} aggregation is not a partition"),
    }


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_invalid_inputs_are_rejected(case):
    # Each defect alone, with the message that names it: the checks are batched,
    # so a dropped comparison shows up as a missing or different message.
    build, message = REJECTED[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


def test_restrict_uniform():
    fine = ProductContext(comp_context(3, "L"), comp_context(3, "R"))
    groups_r = ((0, 1), (2,))
    edge = RefinementEdge(fine, "L|Rc", tuple((i,) for i in range(3)), groups_r)
    out = restrict(np.full((3, 3), 1 / 9), edge)
    np.testing.assert_allclose(out, np.array([[2 / 9, 1 / 9]] * 3), atol=1e-12)


def test_restrict_point_mass():
    fine = ProductContext(comp_context(2, "L"), comp_context(2, "R"))
    edge = RefinementEdge(fine, "L|Rc", ((0,), (1,)), ((0, 1),))
    d = np.zeros((2, 2))
    d[1, 0] = 1.0
    out = restrict(d, edge)
    np.testing.assert_allclose(out, [[0.0], [1.0]])


def test_restrict_matches_direct_coarse_evaluation():
    t = singlet()
    rng = make_rng(1)
    fine = ProductContext(Context(random_onb(rng, 2), "L"), Context(random_onb(rng, 2), "R"))
    edge = RefinementEdge(fine, "L|Rc", ((0,), (1,)), ((0, 1),))
    table = section_from_operator(t, [fine])
    np.testing.assert_allclose(
        restrict(table[fine], edge), coarse_table(t, edge), atol=1e-12
    )


def test_section_uniform_for_maximally_mixed():
    t = HermitianOperator((3, 3), np.eye(9) / 9)
    ctxs, _ = random_context_family((3, 3), 3, seed=2)
    table = section_from_operator(t, ctxs)
    fine = ctxs[0]
    np.testing.assert_allclose(table[fine], np.full((3, 3), 1 / 9), atol=1e-12)


def test_singlet_aligned_contexts_anticorrelate():
    ctx = ProductContext(comp_context(2, "L"), comp_context(2, "R"))
    table = section_from_operator(singlet(), [ctx])
    np.testing.assert_allclose(
        table[ctx], [[0.0, 0.5], [0.5, 0.0]], atol=1e-12
    )


def test_swap3_equal_bases_diagonal():
    d = 3
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1
    t = HermitianOperator((3, 3), swap / 3)
    ctx = ProductContext(comp_context(3, "L"), comp_context(3, "R"))
    table = section_from_operator(t, [ctx])
    np.testing.assert_allclose(table[ctx], np.eye(3) / 3, atol=1e-12)


def test_section_from_operator_rejects_non_product_positive():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    t = HermitianOperator((2, 2), swap / 2 - 0.3 * np.eye(4))
    ctxs, _ = random_context_family((2, 2), 2, seed=3)
    with pytest.raises(ValidationError):
        section_from_operator(t, ctxs)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_section_from_operator_negativity_cut_off(scale):
    # The cut-off is the one Box applies: <00|t|00> = -eps passes only for
    # eps <= NEGATIVE_PROBABILITY.
    eps = scale * NEGATIVE_PROBABILITY
    t = HermitianOperator((2, 2), np.diag([-eps, 0.5, 0.5, 0.5 + eps]))
    ctx = ProductContext(comp_context(2, "L"), comp_context(2, "R"))
    if scale > 1:
        with pytest.raises(ValidationError):
            section_from_operator(t, [ctx])
    else:
        assert section_from_operator(t, [ctx])[ctx][0, 0] == -eps


def test_section_from_operator_is_not_normalized():
    # Entries sum to tr(t); nothing rescales a trace-2 operator's distributions.
    t = HermitianOperator((2, 2), 2 * singlet().mat)
    ctx = ProductContext(comp_context(2, "L"), comp_context(2, "R"))
    assert section_from_operator(t, [ctx])[ctx].sum() == pytest.approx(2.0, abs=1e-12)


def test_check_section_passes_for_operator_tables():
    rng = make_rng(4)
    t = random_density(rng, (3, 3))
    ctxs, edges = random_context_family((3, 3), 10, seed=5)
    table = section_from_operator(t, ctxs)
    rep = check_section(table, edges)
    assert rep.max_distance <= 1e-10


def test_check_section_associativity_of_restriction():
    # coarse-of-coarse equals direct coarse, and both equal the coarse tables of t.
    rng = make_rng(6)
    fine = ProductContext(Context(random_onb(rng, 3), "L"), Context(random_onb(rng, 3), "R"))
    mid = SimpleNamespace(label="L|Rm", shape=(3, 2))  # a coarse node: no Context is (3, 2)
    e1 = RefinementEdge(fine, mid.label, FULL3, ((0, 1), (2,)))
    e2 = RefinementEdge(mid, "L|Rt", FULL3, ((0, 1),))
    e_direct = RefinementEdge(fine, "L|Rt", FULL3, ((0, 1, 2),))
    d = rng.random((3, 3))
    d /= d.sum()
    np.testing.assert_allclose(
        restrict(restrict(d, e1), e2), restrict(d, e_direct), atol=1e-12
    )
    t = random_density(rng, (3, 3))
    fine_table = section_from_operator(t, [fine])[fine]
    mid_table = coarse_table(t, e1)
    np.testing.assert_allclose(restrict(fine_table, e1), mid_table, atol=1e-12)
    coarse = coarse_table(t, e_direct)
    np.testing.assert_allclose(restrict(mid_table, e2), coarse, atol=1e-12)


def test_signalling_family_fails_on_cross_site_edge():
    f = make_signalling_example((2, 2), np.pi / 4)
    # Two fine contexts sharing the same coarse node: site 1 measured in
    # two different bases while its outcome is aggregated away.
    comp = np.eye(2, dtype=complex)
    rot = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    r = Context(comp, "R")
    fine1 = ProductContext(Context(comp, "L1"), r)
    fine2 = ProductContext(Context(rot, "L2"), r)
    table = section_from_framefn(f, [fine1, fine2])
    # No coarse table is stored: fine1's restriction is the node's reference,
    # and the edge from fine2 must then fail.
    edges = [RefinementEdge(fine, "·|R", ((0, 1),), ((0,), (1,))) for fine in (fine1, fine2)]
    rep = check_section(table, edges)
    assert rep.max_distance >= 1e-3
    assert rep.worst_edge is not None


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_signalling_frame_function_fails_on_a_generated_family(dims):
    contexts, edges = random_context_family(dims, 10, seed=sum(dims))
    rep = check_section(section_from_framefn(make_signalling_example(dims, np.pi / 4), contexts),
                        edges)
    assert rep.max_distance >= 1e-3 and not rep.passed
    t = random_density(make_rng(0), dims)
    assert check_section(section_from_framefn(OperatorInduced(t), contexts), edges).passed


def test_generated_family_shares_its_coarse_nodes():
    contexts, edges = random_context_family((2, 3), 3, seed=1)
    assert [c.label for c in contexts] == ["L0|R0", "L0|R1", "L1|R1", "L1|R2", "L2|R2", "L2|R3"]
    parents = {}
    for e in edges:
        parents.setdefault(e.coarse, []).append(e.fine.label)
        assert restrict(np.ones((2, 3)), e).shape == ((2, 1) if e.coarse.endswith("·") else (1, 3))
    assert parents == {"L0|·": ["L0|R0", "L0|R1"], "·|R0": ["L0|R0"], "·|R1": ["L0|R1", "L1|R1"],
                       "L1|·": ["L1|R1", "L1|R2"], "·|R2": ["L1|R2", "L2|R2"],
                       "L2|·": ["L2|R2", "L2|R3"], "·|R3": ["L2|R3"]}


def test_hand_perturbed_table_reports_distance():
    rng = make_rng(7)
    t = random_density(rng, (2, 2))
    ctxs, edges = random_context_family((2, 2), 1, seed=8)
    table = section_from_operator(t, ctxs)
    fine = ctxs[0]
    perturbed = dict(table.distributions)
    p = perturbed[fine.label].copy()
    p[0, 0] += 0.05
    perturbed[fine.label] = p
    rep = check_section(SectionTable(table.contexts, perturbed), edges)
    assert rep.max_distance == pytest.approx(0.05, abs=1e-10)


def test_consistency_report_decides_by_its_tolerance(monkeypatch):
    ctxs, edges = random_context_family((2, 2), 1, seed=8)
    rep = check_section(section_from_operator(random_density(make_rng(7), (2, 2)), ctxs), edges)
    assert rep.tolerance == ConsistencyReport.tolerance == SECTION_CONSISTENT and rep.passed
    assert ConsistencyReport(SECTION_CONSISTENT, "e").passed
    assert not ConsistencyReport(2 * SECTION_CONSISTENT, "e").passed
    monkeypatch.setattr(ConsistencyReport, "tolerance", 1.0)
    assert ConsistencyReport(0.5, "e").passed


def test_rank1_sections_match_framefn_values():
    from nsgleason.framefn import OperatorInduced
    from nsgleason.bases import ProductState

    rng = make_rng(9)
    t = random_density(rng, (2, 2))
    u, v = random_onb(rng, 2), random_onb(rng, 2)
    ctx = ProductContext(Context(u, "L"), Context(v, "R"))
    table = section_from_operator(t, [ctx])
    f = OperatorInduced(t)
    for i in range(2):
        for j in range(2):
            val = f(ProductState((u[:, i], v[:, j])))
            assert table[ctx][i, j] == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4)])
@pytest.mark.parametrize("kind", ["density", "partial_transpose"])
def test_section_from_operator_matches_kron_features(dims, kind):
    rng = make_rng(sum(dims))
    t = random_density(rng, dims)
    if kind == "partial_transpose":
        t = partial_transpose(t, 1)
    contexts, _ = random_context_family(dims, 6, seed=3)
    got = section_from_operator(t, contexts)
    for ctx in contexts:
        # Each entry from the product projectors: kron, then features.
        ops = [np.kron(proj(u), proj(v)) for u in ctx.left.basis.T for v in ctx.right.basis.T]
        want = (feature_of(np.array(ops)) @ feature_of(t.mat)).reshape(ctx.shape)
        np.testing.assert_allclose(got[ctx], want, rtol=0, atol=1e-14)


def ref_section_states(ctx):
    """The outcome states of a product context, one ProductState each."""
    return [ProductState((u, v)) for u in ctx.left.basis.T for v in ctx.right.basis.T]


def section_or_error(call):
    """The distributions a section call returns, or the type of the error it raises."""
    try:
        return call()
    except (ValidationError, KeyError) as exc:
        return type(exc)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (3, 3), (2, 3), (4, 3)]),
       st.sampled_from(["density", "indefinite", "tabulated", "tabulated_miss",
                        "signalling", "other_dims"]))
@settings(max_examples=60, deadline=None)
def test_section_from_framefn_matches_per_state_loop(seed, dims, kind):
    rng = make_rng(seed)
    fine, _ = random_context_family(dims, 3, seed=seed)
    # "other_dims": a family whose left site has one more dim than f's; both paths reject it.
    if kind == "other_dims":
        family = random_context_family((dims[0] + 1, dims[1]), 2, seed=seed)[0]
    else:
        family = fine
    states = [s for ctx in fine for s in ref_section_states(ctx)]
    if kind == "density" or kind == "other_dims":
        f = OperatorInduced(random_density(rng, dims))
    elif kind == "indefinite":
        f = OperatorInduced(random_hermitian(rng, dims))
    elif kind.startswith("tabulated"):
        f = sample_from_operator(random_density(rng, dims),
                                 states[1:] if kind.endswith("miss") else states)
    else:
        f = make_signalling_example(dims, rng.uniform(0, np.pi))
    got = section_or_error(lambda: section_from_framefn(f, family).distributions)
    want = section_or_error(lambda: {ctx.label: np.array([f(s) for s in ref_section_states(ctx)])
                                     .reshape(ctx.shape) for ctx in family})
    if isinstance(want, type):
        assert got is want
        return
    assert got.keys() == want.keys()
    for label, p in want.items():
        assert got[label].dtype == p.dtype and got[label].shape == p.shape
        if kind.startswith("tabulated"):
            assert got[label].tobytes() == p.tobytes()
        # One batched contraction per context sums in another order than f(s).
        np.testing.assert_allclose(got[label], p, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", ["density", "partial_transpose"])
def test_section_from_operator_is_the_operator_induced_section(dims, kind):
    t = random_density(make_rng(sum(dims)), dims)
    if kind == "partial_transpose":  # product-positive, not positive
        t = partial_transpose(t, 1)
    contexts, _ = random_context_family(dims, 4, seed=5)
    got = section_from_operator(t, contexts)
    want = section_from_framefn(OperatorInduced(t), contexts)
    assert got.contexts == want.contexts and got.distributions.keys() == want.distributions.keys()
    for label, p in want.distributions.items():
        assert got.distributions[label].tobytes() == p.tobytes()
    for empty in (section_from_operator(t, []), section_from_framefn(OperatorInduced(t), [])):
        assert empty.contexts == () and empty.distributions == {}


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
def test_tabulated_section_is_one_batched_lookup(dims):
    # A Tabulated built from each context's outcome states, phased as ProductState phases
    # a factor, finds every row of the family's one stacked values() call.
    t = random_density(make_rng(1), dims)
    contexts, edges = random_context_family(dims, 4, seed=2)
    f = sample_from_operator(t, [s for ctx in contexts for s in ref_section_states(ctx)])
    calls = []

    class Counted:
        def values(self, stacks):
            calls.append(len(stacks[0]))
            return f.values(stacks)

    Counted.dims = f.dims
    table = section_from_framefn(Counted(), contexts)
    assert calls == [len(contexts) * np.prod(dims)]
    want = section_from_framefn(OperatorInduced(t), contexts)
    for ctx in contexts:
        np.testing.assert_allclose(table[ctx], want[ctx], rtol=0, atol=1e-15)
    assert check_section(table, edges).passed


@pytest.mark.parametrize("n_fine", [0, -2])
def test_random_context_family_needs_a_fine_context(n_fine):
    # Zero contexts would make every section trivially consistent.
    with pytest.raises(ValidationError, match="n_fine >= 1"):
        random_context_family((3, 3), n_fine)


@pytest.mark.parametrize("dims", [(2, 2, 2), (4,)])
def test_random_context_family_needs_two_sites(dims):
    with pytest.raises(ValidationError, match="need two sites"):
        random_context_family(dims, 3)


def parent_restrict(dist, edge):
    """restrict as it was when every coarse node was a ProductContext (a test-only copy)."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != edge.fine.shape:
        raise ValidationError(
            f"distribution shape {dist.shape} does not live on the fine context"
        )
    return edge.left_aggregation @ dist @ edge.right_aggregation.T


def parent_check_section(s, edges):
    """check_section as it was when every coarse node was a ProductContext (a test-only copy)."""
    worst, worst_edge = 0.0, None
    for e in edges:
        if e.fine.label not in s.distributions or e.coarse.label not in s.distributions:
            raise ValidationError(f"edge endpoints missing from section: {e.fine.label} -> {e.coarse.label}")
        d = float(np.sum(np.abs(parent_restrict(s[e.fine], e) - s[e.coarse])))
        if d > worst:
            worst, worst_edge = d, f"{e.fine.label} -> {e.coarse.label}"
    return ConsistencyReport(worst, worst_edge)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 3)]),
       st.integers(1, 4), st.sampled_from(["density", "partial_transpose", "perturbed", "signalling"]))
@settings(max_examples=60, deadline=None)
def test_check_section_matches_the_parent_on_stored_coarse_tables(seed, dims, n_fine, kind):
    # Every coarse table stored: the node's reference is that table, as it was.
    rng = make_rng(seed)
    contexts, edges = random_context_family(dims, n_fine, seed=seed)
    coarse = {e.coarse: SimpleNamespace(label=e.coarse) for e in edges}
    t = random_density(rng, dims)
    if kind == "partial_transpose":
        t = partial_transpose(t, 1)
    tables = dict(section_from_operator(t, contexts).distributions)
    for e in edges:  # each node's table from its first parent's summed projectors
        tables.setdefault(e.coarse, coarse_table(t, e))
    if kind == "perturbed":
        for label in rng.choice(sorted(tables), size=3):
            p = tables[label].copy()
            p[tuple(rng.integers(0, n) for n in p.shape)] += rng.choice([1e-11, 1e-6, 0.05])
            tables[label] = p
    elif kind == "signalling":
        tables = dict(section_from_framefn(make_signalling_example(dims, rng.uniform(0, np.pi)),
                                           contexts).distributions)
        for e in edges:  # each node stores its last parent's restriction
            tables[e.coarse] = restrict(tables[e.fine.label], e)
    section = SectionTable(tuple(contexts) + tuple(coarse.values()), tables)
    parent_edges = [SimpleNamespace(fine=e.fine, coarse=coarse[e.coarse], left_aggregation=e.left_aggregation,
                                    right_aggregation=e.right_aggregation) for e in edges]
    want, got = parent_check_section(section, parent_edges), check_section(section, edges)
    assert np.float64(got.max_distance).tobytes() == np.float64(want.max_distance).tobytes()
    assert got.worst_edge == want.worst_edge


def parent_aggregation(groups, n_fine):
    """One site's aggregation matrix as each edge built its own (a test-only copy)."""
    flat = [i for g in groups for i in g]
    a = np.zeros((len(groups), n_fine))
    a[np.repeat(np.arange(len(groups)), [len(g) for g in groups]), flat] = 1.0
    return a


@st.composite
def partitions(draw):
    """A shuffled partition of range(n), in shuffled groups (some possibly empty)."""
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    groups = [[i for i in draw(st.permutations(range(n))) if labels[i] == k] for k in range(n + 1)]
    return n, draw(st.permutations(groups))


@given(partitions(), partitions())
@settings(max_examples=80, deadline=None)
def test_aggregation_maps_match_the_per_edge_construction(left, right):
    (n1, lg), (n2, rg) = left, right
    fine = ProductContext(comp_context(n1, "A"), comp_context(n2, "B"))
    edge = RefinementEdge(fine, "c", tuple(map(tuple, lg)), tuple(map(tuple, rg)))
    for a, want in ((edge.left_aggregation, parent_aggregation(lg, n1)),
                    (edge.right_aggregation, parent_aggregation(rg, n2))):
        assert a.dtype == want.dtype and a.shape == want.shape and a.tobytes() == want.tobytes()
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2.0


def test_list_valued_groups_are_accepted_and_share_the_tuple_map():
    fine = ProductContext(comp_context(3, "C"), comp_context(3, "C"))
    listed = RefinementEdge(fine, "Cc", [[0, 2], [1]], [[0], [1], [2]])
    tupled = RefinementEdge(fine, "Cc", ((0, 2), (1,)), FULL3)
    assert listed.left_aggregation is tupled.left_aggregation
    assert listed.right_aggregation is tupled.right_aggregation
    np.testing.assert_array_equal(listed.left_aggregation, [[1, 0, 1], [0, 1, 0]])
    # A float outcome is no index, whether or not its integer grouping is already built.
    with pytest.raises(TypeError):
        RefinementEdge(fine, "Cc", ((0.0, 2), (1,)), FULL3)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_generated_family_shares_one_map_per_grouping(dims):
    _, edges = random_context_family(dims, 10, seed=0)
    maps = {(e.left_groups, e.right_groups): (e.left_aggregation, e.right_aggregation)
            for e in edges}
    assert len(maps) == 2
    for e in edges:
        left, right = maps[e.left_groups, e.right_groups]
        assert e.left_aggregation is left and e.right_aggregation is right
    # One array per (groups, outcome count): at (3, 3) both sites share theirs.
    keys = {(g, n) for e in edges for g, n in zip((e.left_groups, e.right_groups), dims)}
    assert len({id(a) for pair in maps.values() for a in pair}) == len(keys) == 2 * len(set(dims))
    # Another family of these dims shares them too.
    other = random_context_family(dims, 2, seed=1)[1][0]
    assert other.left_aggregation is maps[other.left_groups, other.right_groups][0]


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 3), (5, 5)]),
       st.integers(1, 6), st.sampled_from(["density", "partial_transpose", "signalling"]))
@settings(max_examples=60, deadline=None)
def test_check_section_on_generated_families_matches_per_edge_maps(seed, dims, n_fine, kind):
    # The shared maps give the parent's distances, bit for bit.
    contexts, edges = random_context_family(dims, n_fine, seed=seed)
    rng = make_rng(seed)
    if kind == "signalling":
        f = make_signalling_example(dims, rng.uniform(0, np.pi))
    else:
        t = random_density(rng, dims)
        f = OperatorInduced(partial_transpose(t, 1) if kind == "partial_transpose" else t)
    section = section_from_framefn(f, contexts)
    parent_edges = [SimpleNamespace(fine=e.fine, coarse=e.coarse,
                                    left_aggregation=parent_aggregation(e.left_groups, dims[0]),
                                    right_aggregation=parent_aggregation(e.right_groups, dims[1]))
                    for e in edges]
    want, got = check_section(section, parent_edges), check_section(section, edges)
    assert np.float64(got.max_distance).tobytes() == np.float64(want.max_distance).tobytes()
    assert got.worst_edge == want.worst_edge


def looped_random_context_family(dims, n_fine, seed):
    """random_context_family as it was, one checked Context and RefinementEdge at a time
    (a test-only copy)."""
    d1, d2 = dims
    left, right = random_onbs(make_rng(seed), dims, n_fine + 1)
    full_l, full_r = tuple((i,) for i in range(d1)), tuple((i,) for i in range(d2))
    rights = [Context(right[j], f"R{j}") for j in range(n_fine + 1)]
    contexts, edges = [], []
    for k in range(n_fine):
        lb = Context(left[k], f"L{k}")
        for j in (k, k + 1):
            fine = ProductContext(lb, rights[j])
            contexts.append(fine)
            edges.append(RefinementEdge(fine, f"L{k}|·", full_l, (tuple(range(d2)),)))
            edges.append(RefinementEdge(fine, f"·|R{j}", (tuple(range(d1)),), full_r))
    return contexts, edges


def looped_check_section(s, edges):
    """check_section as it was, one restriction and one distance an edge (a test-only copy)."""
    refs, worst, worst_edge = {}, 0.0, None
    for e in edges:
        if e.fine.label not in s.distributions:
            raise ValidationError(f"edge source missing from section: {e.fine.label} -> {e.coarse}")
        r = restrict(s[e.fine], e)
        ref = refs.setdefault(e.coarse, s.distributions.get(e.coarse, r))
        if np.shape(ref) != r.shape:
            raise ValidationError(f"{e.fine.label} restricts to shape {r.shape}, but node "
                                  f"{e.coarse} has shape {np.shape(ref)}")
        d = float(np.sum(np.abs(r - ref)))
        if d > worst:
            worst, worst_edge = d, f"{e.fine.label} -> {e.coarse}"
    return ConsistencyReport(worst, worst_edge)


def same_report(got, want):
    return (np.float64(got.max_distance).tobytes() == np.float64(want.max_distance).tobytes()
            and got.worst_edge == want.worst_edge)


REFERENCE_DIMS = [(2, 2), (2, 3), (3, 3), (4, 3), (3, 5)]


@pytest.mark.parametrize("dims", REFERENCE_DIMS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_fine", [1, 2, 7])
def test_stacked_family_is_the_looped_family(dims, seed, n_fine):
    contexts, edges = random_context_family(dims, n_fine, seed=seed)
    want_contexts, want_edges = looped_random_context_family(dims, n_fine, seed)
    assert [c.label for c in contexts] == [c.label for c in want_contexts]
    for got, want in zip(contexts, want_contexts):
        assert got.shape == want.shape == dims
        for site in ("left", "right"):
            g, w = getattr(got, site), getattr(want, site)
            assert g.label == w.label and g.basis.dtype == w.basis.dtype == complex
            assert g.basis.tobytes() == w.basis.tobytes() and not g.basis.flags.writeable
    assert len(edges) == len(want_edges) == 4 * n_fine
    for got, want in zip(edges, want_edges):
        assert (got.fine.label, got.coarse) == (want.fine.label, want.coarse)
        assert (got.left_groups, got.right_groups) == (want.left_groups, want.right_groups)
        assert got.left_aggregation is want.left_aggregation
        assert got.right_aggregation is want.right_aggregation
    # One left context object per L_k and one right per R_j, shared by its fine contexts.
    assert all(contexts[2 * k].left is contexts[2 * k + 1].left for k in range(n_fine))
    assert all(contexts[2 * k + 1].right is contexts[2 * k + 2].right for k in range(n_fine - 1))
    # The same sections, and check_section reads them as the per-edge loop does.
    rng = make_rng(seed)
    t = random_density(rng, dims)
    for f in (OperatorInduced(t), OperatorInduced(partial_transpose(t, 1)),
              make_signalling_example(dims, rng.uniform(0, np.pi))):
        section, want_section = section_from_framefn(f, contexts), section_from_framefn(f, want_contexts)
        for label, p in want_section.distributions.items():
            assert section.distributions[label].tobytes() == p.tobytes()
        got, want = check_section(section, edges), looped_check_section(want_section, want_edges)
        assert same_report(got, want), (got, want)


@given(st.integers(0, 2**32 - 1), st.sampled_from(REFERENCE_DIMS + [(4, 4), (5, 5)]),
       st.integers(1, 6), st.sampled_from(["density", "partial_transpose", "signalling",
                                           "perturbed", "contiguous", "stored", "fortran",
                                           "transposed", "real_view"]))
@settings(max_examples=80, deadline=None)
def test_batched_check_section_is_the_per_edge_loop(seed, dims, n_fine, kind):
    # The tables as tabulated, perturbed, contiguous copies, stored coarse tables, and
    # equal tables laid out otherwise: F-ordered, transposed views of contiguous arrays, and
    # real parts of complex arrays: the same distance bytes and worst edge.
    contexts, edges = random_context_family(dims, n_fine, seed=seed)
    rng = make_rng(seed)
    t = random_density(rng, dims)
    if kind == "signalling":
        f = make_signalling_example(dims, rng.uniform(0, np.pi))
    else:
        f = OperatorInduced(partial_transpose(t, 1) if kind == "partial_transpose" else t)
    tables = dict(section_from_framefn(f, contexts).distributions)
    if kind == "perturbed":
        for label in rng.choice(sorted(tables), size=2):
            tables[label] = tables[label].copy()
            tables[label][tuple(rng.integers(0, n) for n in dims)] += rng.choice([1e-11, 1e-6, 0.05])
    elif kind == "contiguous":
        tables = {label: np.ascontiguousarray(p) for label, p in tables.items()}
    elif kind == "fortran":
        tables = {label: np.asfortranarray(p) for label, p in tables.items()}
    elif kind == "transposed":
        tables = {label: np.ascontiguousarray(p.T).T for label, p in tables.items()}
    elif kind == "real_view":
        tables = {label: (p + 0j).real for label, p in tables.items()}
    elif kind == "stored":
        for e in edges[::3]:
            tables[e.coarse] = coarse_table(t, e)
    section = SectionTable(tuple(contexts), tables)
    got, want = check_section(section, edges), looped_check_section(section, edges)
    assert same_report(got, want), (got, want)


def base_dtypes(a: np.ndarray) -> list:
    """The dtypes along an array's ``.base`` chain, the array's own first."""
    dtypes = []
    while isinstance(a, np.ndarray):
        dtypes.append(a.dtype)
        a = a.base
    return dtypes


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3), (5, 5)])
def test_operator_tables_own_float_memory(dims):
    # Before, each table was a strided .real view that kept its complex buffer alive.
    contexts, _ = random_context_family(dims, 3, seed=1)
    t = random_density(make_rng(1), dims)
    values = OperatorInduced(t).values(product_rows([c.basis.T for c in (contexts[0].left,
                                                                         contexts[0].right)]))
    tables = list(section_from_operator(t, contexts).distributions.values())
    for p in [values, *tables]:
        assert p.flags.c_contiguous and set(base_dtypes(p)) == {np.dtype(np.float64)}


def test_contexts_compare_and_hash_by_identity():
    # Before, == raised "truth value of an array is ambiguous" and hash "unhashable type".
    a, b = Context(np.eye(2), "L"), Context(np.eye(2), "L")
    assert a == a and a != b and len({a, b, a}) == 2
    p, q = ProductContext(a, b), ProductContext(a, b)
    assert p == p and p != q and len({p, q, p}) == 2
    contexts, edges = random_context_family((2, 3), 2, seed=0)
    assert edges[0] == edges[0] and len(set(edges)) == len(edges)


def test_sections_compare_and_hash_bit_for_bit():
    # Before, == raised "truth value of an array is ambiguous" and hash "unhashable type".
    contexts, _ = random_context_family((2, 3), 2, seed=0)
    t = random_density(make_rng(0), (2, 3))
    a, b = section_from_operator(t, contexts), section_from_operator(t, contexts)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    tables = {label: p.copy() for label, p in a.distributions.items()}
    tables[contexts[0].label].view(np.uint64)[0] ^= 1
    assert SectionTable(a.contexts, tables) != a
    others, _ = random_context_family((2, 3), 2, seed=0)  # equal bases, other contexts
    assert section_from_operator(t, others) != a


def test_check_section_raises_in_edge_order_as_the_loop_does():
    # Three edges with one defect each; the first of them in edge order is the one reported.
    contexts, edges = random_context_family((2, 3), 2, seed=0)
    tables = dict(section_from_operator(random_density(make_rng(0), (2, 3)), contexts).distributions)
    tables[edges[1].coarse] = np.ones((1, 1))  # node ·|R0 restricts to (1, 3)
    tables[edges[2].fine.label] = np.ones((3, 2))  # L0|R1 is a (2, 3) context
    del tables[edges[-1].fine.label]
    section = SectionTable(tuple(contexts), tables)
    for order, message in ((edges, "L0|R0 restricts to shape (1, 3), but node ·|R0 has shape (1, 1)"),
                           (edges[2:], "distribution shape (3, 2) does not live on the fine context"),
                           (edges[::-1], "edge source missing from section: L1|R2 -> ·|R2")):
        for check in (check_section, looped_check_section):
            with pytest.raises(ValidationError, match=re.escape(message)):
                check(section, order)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_table_fails_the_section_at_its_first_edge(value):
    # Before, a NaN distance never beat the running maximum, so the family passed.
    contexts, edges = random_context_family((3, 3), 3, seed=0)
    tables = dict(section_from_operator(random_density(make_rng(0), (3, 3)), contexts).distributions)
    tables["L1|R1"] = np.full((3, 3), np.nan)
    tables["L1|R1"][0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_section(SectionTable(tuple(contexts), tables), edges)
    assert np.isnan(rep.max_distance) and not rep.passed
    assert rep.worst_edge == "L1|R1 -> L1|·"  # edge 4: the first that touches L1|R1


def test_a_nan_frame_function_fails_every_section():
    class Undefined:
        dims = (2, 2)

        def values(self, stacks):
            return np.full(len(stacks[0]), np.nan)

    contexts, edges = random_context_family((2, 2), 2, seed=1)
    rep = check_section(section_from_framefn(Undefined(), contexts), edges)
    assert np.isnan(rep.max_distance) and not rep.passed and rep.worst_edge == "L0|R0 -> L0|·"


@pytest.mark.parametrize("n_fine", [True, False, 2.5, 2.0, np.float64(3), "3", None])
def test_random_context_family_needs_an_integer_n_fine(n_fine):
    # Before, True built one fine step and the others raised numpy's TypeError.
    with pytest.raises(ValidationError, match="an integer n_fine >= 1"):
        random_context_family((2, 2), n_fine)


@pytest.mark.parametrize("dims", [(3.5, 3), (0, 3), (3, True), (2, -1)])
def test_random_context_family_needs_integer_dims(dims):
    # Before, (3.5, 3) raised numpy's TypeError and (0, 3) a failed reshape.
    with pytest.raises(ValidationError, match="are not integers >= 1"):
        random_context_family(dims, 2)


def test_random_context_family_takes_numpy_integers():
    contexts, edges = random_context_family((np.int64(2), 2), np.int64(3), seed=4)
    want_contexts, _ = random_context_family((2, 2), 3, seed=4)
    assert len(contexts) == 6 and len(edges) == 12
    assert all(c.left.basis.tobytes() == w.left.basis.tobytes() for c, w in zip(contexts, want_contexts))


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3)])
def test_negative_section_names_the_first_negative_context(dims):
    # A traceless Hermitian operator is negative on many contexts; the error names the first.
    rng = make_rng(sum(dims))
    h = random_hermitian(rng, dims).mat
    t = HermitianOperator(dims, h - np.trace(h).real / len(h) * np.eye(len(h)))
    contexts, _ = random_context_family(dims, 5, seed=2)
    tables = section_from_framefn(OperatorInduced(t), contexts)
    first = next(c for c in contexts if tables[c].min() < -NEGATIVE_PROBABILITY)
    with pytest.raises(ValidationError) as exc:
        section_from_operator(t, contexts)
    assert str(exc.value) == (f"negative probability {tables[first].min():.3e} in context "
                              f"{first.label}: operator is not product-positive within tolerance")
