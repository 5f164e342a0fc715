import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdsample.boxes import HyperRectangle
from psdsample.models import (
    GaussianPsdModel,
    RankOneModel,
    lipschitz_bounds,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    tail_box,
)

from oracles import outside_mass


def unit_model():
    return GaussianPsdModel(
        A=np.array([[1.0]]), X=np.array([[0.0]]), eta=np.array([1.0])
    )


def random_model(seed, d=2, m=4, isotropic=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=1.2, size=(m, d))
    B = rng.normal(size=(m, m))
    A = B @ B.T
    if isotropic:
        eta = np.full(d, rng.uniform(0.4, 2.0))
    else:
        eta = rng.uniform(0.4, 2.0, size=d)
    return GaussianPsdModel(A=A, X=X, eta=eta)


def test_single_center_evaluates_to_squared_kernel():
    model = unit_model()
    assert model.evaluate(np.array([0.0])) == 1.0
    # f(x) = k(x,0)^2 = e^{-2x^2}
    assert np.isclose(model.evaluate(np.array([1.0])), np.exp(-2.0), rtol=1e-15)


def test_evaluate_is_nonnegative_with_mixed_sign_coefficients():
    model = GaussianPsdModel(
        A=np.array([[1.0, -0.9], [-0.9, 1.0]]),
        X=np.array([[-0.5], [0.5]]),
        eta=np.array([1.5]),
    )
    xs = np.linspace(-3, 3, 301)[:, None]
    assert np.all(model.evaluate(xs) >= 0.0)


def test_rank_one_examples():
    single = RankOneModel(a=np.array([1.0]), X=np.array([[0.0]]), eta=np.array([1.0]))
    assert np.isclose(single.linear_evaluate(np.array([1.0])), np.exp(-1.0))
    sym = RankOneModel(
        a=np.array([1.0, 1.0]), X=np.array([[-1.0], [1.0]]), eta=np.array([1.0])
    )
    assert np.isclose(sym.linear_evaluate(np.array([0.0])), 2.0 * np.exp(-1.0))
    assert np.isclose(sym.evaluate(np.array([0.0])), (2.0 * np.exp(-1.0)) ** 2)


def test_rank_one_square_matches_psd_form():
    rng = np.random.default_rng(5)
    a = rng.normal(size=3)
    X = rng.normal(size=(3, 2))
    eta = np.array([0.7, 1.1])
    r1 = RankOneModel(a=a, X=X, eta=eta)
    psd = r1.to_psd()
    pts = rng.normal(size=(50, 2))
    assert np.allclose(psd.evaluate(pts), r1.linear_evaluate(pts) ** 2, rtol=1e-12)
    assert psd.rank_one_a is not None


def test_rank_one_to_psd_is_built_once():
    r1 = RankOneModel(
        a=np.array([1.0, -0.5]), X=np.array([[0.0], [1.0]]), eta=np.array([1.0])
    )
    assert r1.to_psd() is r1.to_psd()


def test_rejects_asymmetric_and_indefinite_coefficients():
    X = np.array([[0.0], [1.0]])
    eta = np.array([1.0])
    with pytest.raises(ValueError):
        GaussianPsdModel(A=np.array([[1.0, 0.5], [0.0, 1.0]]), X=X, eta=eta)
    with pytest.raises(ValueError):
        GaussianPsdModel(A=np.array([[1.0, 2.0], [2.0, 1.0]]), X=X, eta=eta)


def test_rejects_rank_one_vector_that_does_not_factor_a():
    # A = I is not a a^T for a = (1, 0), whose Hellinger constant would
    # describe another model
    doc = {
        "format_version": 1, "A": [[1, 0], [0, 1]], "X": [[-1], [1]],
        "eta": [1], "rank_one_a": [1, 0],
    }
    with pytest.raises(ValueError, match="rank_one_a"):
        model_from_dict(doc)
    # exact outer products and ones off by roundoff still load
    a = np.array([0.3, -1.7])
    X, eta = np.array([[-1.0], [1.0]]), np.array([2.0])
    for A in (np.outer(a, a), np.outer(a, a) * (1.0 + 1e-13)):
        model = GaussianPsdModel(A=A, X=X, eta=eta, rank_one_a=a)
        assert np.array_equal(model.rank_one_a, a)


def test_repair_projects_indefinite_coefficients():
    X = np.array([[0.0], [1.0]])
    model = GaussianPsdModel(
        A=np.array([[1.0, 2.0], [2.0, 1.0]]), X=X, eta=np.array([1.0]), repair=True
    )
    assert np.linalg.eigvalsh(model.A).min() >= -1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        GaussianPsdModel(
            A=np.eye(2), X=np.zeros((2, 2)), eta=np.array([1.0])
        )
    model = unit_model()
    with pytest.raises(ValueError):
        model.evaluate(np.zeros((3, 2)))


# finite floats with both zeros and subnormals drawn often
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1060)])
_VALUES = st.one_of(_EDGE_FLOATS, st.floats(-4.0, 4.0))
_PRECISIONS = st.one_of(st.sampled_from([5e-324, 2.0**-1030]), st.floats(1e-3, 1e3))


@st.composite
def _serializable_models(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))

    def array(elements, *shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    X, eta, a = array(_VALUES, m, d), array(_PRECISIONS, d), array(_VALUES, m)
    if draw(st.booleans()):
        return RankOneModel(a=a, X=X, eta=eta)
    # PSD by construction; elementwise sums keep the -0.0 and subnormal
    # products of the off-diagonal entries, and A stays exactly symmetric
    b = array(_VALUES, m)
    A = np.outer(a, a)
    A += np.outer(b, b)
    A[np.diag_indices(m)] += array(st.floats(0.0, 4.0), m)
    return GaussianPsdModel(A=A, X=X, eta=eta)


@settings(max_examples=150, deadline=None)
@given(model=_serializable_models())
def test_serialization_round_trip_is_exact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    back = load_model(path)
    want = model.to_psd() if isinstance(model, RankOneModel) else model
    for key in ("A", "X", "eta", "rank_one_a"):
        got, expected = getattr(back, key), getattr(want, key)
        if expected is None:
            assert got is None
        else:
            # bytes, so -0.0 must come back as -0.0
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), key
    again = path.with_name("again.json")
    save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_save_load_preserves_rank_one_tag(tmp_path):
    r1 = RankOneModel(
        a=np.array([0.3, -1.7]), X=np.array([[-1.0], [1.0]]), eta=np.array([2.0])
    )
    path = tmp_path / "model.json"
    save_model(r1, path)
    back = load_model(path)
    assert back.rank_one_a is not None
    assert np.array_equal(back.rank_one_a, r1.a)
    xs = np.linspace(-2, 2, 41)[:, None]
    assert np.allclose(back.evaluate(xs), r1.evaluate(xs), rtol=1e-15)


def test_save_twice_is_byte_identical(tmp_path):
    model = random_model(11)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_from_dict_rejects_bad_version():
    doc = model_to_dict(unit_model())
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_lipschitz_bounds_dominate_finite_differences():
    # the sup-norm slope of f on a dense grid must sit below lip_f
    model = random_model(13, d=1, m=5, isotropic=True)
    bounds = lipschitz_bounds(model)
    xs = np.linspace(-4, 4, 4001)[:, None]
    f = model.evaluate(xs)
    slopes = np.abs(np.diff(f)) / np.diff(xs[:, 0])
    assert slopes.max() <= bounds.lip_f * (1 + 1e-9)


def test_lipschitz_sqrt_bound_for_rank_one():
    rng = np.random.default_rng(17)
    r1 = RankOneModel(
        a=rng.normal(size=4), X=rng.normal(size=(4, 1)), eta=np.array([1.3])
    )
    bounds = lipschitz_bounds(r1)
    xs = np.linspace(-4, 4, 4001)[:, None]
    g = np.sqrt(r1.evaluate(xs))
    slopes = np.abs(np.diff(g)) / np.diff(xs[:, 0])
    assert slopes.max() <= bounds.lip_sqrt_f * (1 + 1e-9)


def test_lipschitz_requires_isotropic_precision():
    model = GaussianPsdModel(
        A=np.eye(2),
        X=np.array([[0.0, 0.0], [1.0, 1.0]]),
        eta=np.array([1.0, 2.0]),
    )
    with pytest.raises(ValueError):
        lipschitz_bounds(model)


def test_tail_box_zero_inflation_formula():
    # delta = 0: bound reduces to 2 pi^{d/2} det(2 eta)^{-1/2} d sum(A o K)
    model = unit_model()
    box, bound = tail_box(model, 0.0)
    assert np.allclose(box.lower, 0.0) and np.allclose(box.upper, 0.0)
    assert np.isclose(bound, 2.0 * np.sqrt(np.pi / 2.0), rtol=1e-14)


def test_tail_box_single_center_value_and_domination():
    model = unit_model()
    box, bound = tail_box(model, 3.0)
    expected = 2.0 * np.sqrt(np.pi / 2.0) * np.exp(-18.0)
    assert np.isclose(bound, expected, rtol=1e-12)
    measured = outside_mass(model, box)
    assert bound >= measured


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_tail_bound_dominates_measured_mass(seed):
    model = random_model(seed, d=2, m=3)
    box, bound = tail_box(model, 1.0)
    assert bound >= outside_mass(model, box)
