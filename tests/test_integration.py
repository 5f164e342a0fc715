import numpy as np
import pytest

from psdsample import integration
from psdsample.boxes import HyperRectangle, bisect
from psdsample.exceptions import ResourceLimitError
from psdsample.integration import (
    IntegralAccounting,
    integrate,
    integrate_boxes,
    integrate_squared,
    quartic_gram,
)
from psdsample.models import GaussianPsdModel, RankOneModel

from oracles import gl_box_integral


def unit_model():
    return GaussianPsdModel(
        A=np.array([[1.0]]), X=np.array([[0.0]]), eta=np.array([1.0])
    )


def random_model(seed, d, m):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=1.1, size=(m, d))
    B = rng.normal(size=(m, m))
    return GaussianPsdModel(
        A=B @ B.T, X=X, eta=rng.uniform(0.4, 2.2, size=d)
    )


def test_unit_model_on_unit_box_frozen_value():
    # integral of e^{-2x^2} over [-1, 1) = sqrt(pi/2) erf(sqrt(2))
    acct = IntegralAccounting()
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    val = integrate(unit_model(), box, acct)
    assert np.isclose(val, 1.1962880133226081, rtol=0, atol=1e-15)
    assert acct.integral_evals == 1
    assert acct.erf_calls == 2  # 2 * d * m^2


def test_unit_model_whole_space_frozen_value():
    acct = IntegralAccounting()
    val = integrate(unit_model(), HyperRectangle.whole_space(1), acct)
    assert np.isclose(val, np.sqrt(np.pi / 2.0), rtol=1e-15)
    assert acct.erf_calls == 0  # infinite endpoints are substituted


def test_half_infinite_box_counts_only_finite_bounds():
    model = random_model(1, d=2, m=3)
    acct = IntegralAccounting()
    box = HyperRectangle(
        np.array([-np.inf, 0.0]), np.array([0.5, np.inf])
    )
    integrate(model, box, acct)
    assert acct.erf_calls == 2 * model.m**2


def test_empty_box_has_zero_mass():
    box = HyperRectangle(np.array([0.3]), np.array([0.3]))
    assert integrate(unit_model(), box) == 0.0


def test_erf_accounting_scales_with_d_m():
    model = random_model(2, d=3, m=4)
    acct = IntegralAccounting()
    box = HyperRectangle(-np.ones(3), np.ones(3))
    integrate(model, box, acct)
    assert acct.erf_calls == 2 * 3 * 16


@pytest.mark.parametrize("seed,d,m", [(3, 1, 1), (4, 1, 4), (5, 2, 3), (6, 3, 2)])
def test_closed_form_matches_cubature(seed, d, m):
    model = random_model(seed, d, m)
    rng = np.random.default_rng(seed + 100)
    lo = rng.uniform(-2.0, 0.0, size=d)
    hi = lo + rng.uniform(0.5, 2.5, size=d)
    box = HyperRectangle(lo, hi)
    exact = integrate(model, box)
    oracle = gl_box_integral(model.evaluate, lo, hi)
    assert np.isclose(exact, oracle, rtol=1e-10, atol=1e-13)


def test_batch_matches_single_box_calls(monkeypatch):
    model = random_model(7, d=2, m=3)
    rng = np.random.default_rng(8)
    lo = rng.uniform(-2, 0, size=(37, 2))
    hi = lo + rng.uniform(0.1, 2.0, size=(37, 2))
    acct = IntegralAccounting()
    batch = integrate_boxes(model, lo, hi, acct)
    singles = np.array(
        [integrate(model, HyperRectangle(a, b)) for a, b in zip(lo, hi)]
    )
    assert np.allclose(batch, singles, rtol=1e-14)
    assert acct.integral_evals == 37
    assert acct.erf_calls == 37 * 2 * 2 * 9

    # Four levels of longest-side bisection, so boxes share edges as in
    # the sampler, plus infinite and zero-width edges, over several chunks.
    model = random_model(14, d=3, m=4)
    lo = np.array([[-2.0, -1.0, -3.0]])
    hi = np.array([[2.0, 1.5, 0.0]])
    los, his = [], []
    for _ in range(4):
        # each box's left half, then its right half
        left_hi, right_lo = bisect(lo, hi, np.argmax(hi - lo, axis=1))
        lo = np.stack([lo, right_lo], axis=1).reshape(-1, 3)
        hi = np.stack([left_hi, hi], axis=1).reshape(-1, 3)
        los.append(lo)
        his.append(hi)
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    n = lo.shape[0]
    lo[3, 0] = -np.inf
    hi[8, 2] = np.inf
    lo[20, 1], hi[20, 1] = -np.inf, np.inf
    hi[5, 1] = lo[5, 1]
    lo[17] = hi[17]
    # 112 elements hold 11 boxes of 10 unique pairs: three chunks
    monkeypatch.setattr(integration, "_CHUNK_ELEMS", 7 * model.m**2)
    acct = IntegralAccounting()
    batch = integrate_boxes(model, lo, hi, acct)
    singles = np.array(
        [integrate(model, HyperRectangle(a, b)) for a, b in zip(lo, hi)]
    )
    assert n == 30
    assert batch[5] == batch[17] == 0.0
    assert np.all(np.delete(batch, [5, 17]) > 0.0)
    assert np.allclose(batch, singles, rtol=1e-14, atol=0.0)
    assert acct.integral_evals == n
    # four infinite bounds drop out of the 2 * d * m^2 count
    assert acct.erf_calls == (n * 2 * 3 - 4) * 16


def test_additivity_under_box_split():
    model = random_model(9, d=2, m=4)
    box = HyperRectangle(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    lo, hi = box.lower[None, :], box.upper[None, :]
    left_hi, right_lo = bisect(lo, hi, np.argmax(hi - lo, axis=1))
    left = HyperRectangle(box.lower, left_hi[0])
    right = HyperRectangle(right_lo[0], box.upper)
    whole = integrate(model, box)
    parts = integrate(model, left) + integrate(model, right)
    assert np.isclose(whole, parts, rtol=1e-13)


def test_rank_one_model_integrates_like_its_psd_form():
    rng = np.random.default_rng(10)
    r1 = RankOneModel(
        a=rng.normal(size=3), X=rng.normal(size=(3, 2)), eta=np.array([1.0, 0.6])
    )
    box = HyperRectangle(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    assert np.isclose(integrate(r1, box), integrate(r1.to_psd(), box), rtol=1e-14)


def test_corner_validation():
    model = unit_model()
    with pytest.raises(ValueError):
        integrate_boxes(model, np.array([[0.0]]), np.array([[np.nan]]))
    with pytest.raises(ValueError):
        integrate_boxes(model, np.array([[1.0]]), np.array([[0.0]]))


def test_integrate_squared_unit_model_frozen_value():
    # integral of e^{-4x^2} over R = sqrt(pi)/2; wide box captures it
    wide = HyperRectangle(np.array([-40.0]), np.array([40.0]))
    val = integrate_squared(unit_model(), wide)
    assert np.isclose(val, np.sqrt(np.pi) / 2.0, rtol=1e-15)


def test_integrate_squared_matches_gram_and_cubature():
    model = random_model(11, d=2, m=3)
    box = HyperRectangle(np.array([-2.0, -1.5]), np.array([1.0, 2.0]))
    direct = integrate_squared(model, box)
    G = quartic_gram(model.X, model.eta, box)
    via_gram = float(np.ravel(model.A) @ G @ np.ravel(model.A))
    oracle = gl_box_integral(
        lambda p: model.evaluate(p) ** 2, box.lower, box.upper
    )
    assert np.isclose(direct, via_gram, rtol=1e-12)
    assert np.isclose(direct, oracle, rtol=1e-9)


def test_quartic_gram_is_symmetric_psd():
    model = random_model(12, d=1, m=4)
    box = HyperRectangle(np.array([-2.0]), np.array([2.0]))
    G = quartic_gram(model.X, model.eta, box)
    assert G.shape == (16, 16)
    assert np.allclose(G, G.T, atol=1e-14)
    assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_pair_cap_raises():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 1))
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ResourceLimitError, match="2.56e\\+06 pair products"):
        quartic_gram(X, np.array([1.0]), box, pair_cap=1e4)
    # the squared integral counts unique pairs: (40 * 41 / 2)^2 = 672400
    model = GaussianPsdModel(A=np.eye(40), X=X, eta=np.array([1.0]))
    with pytest.raises(ResourceLimitError, match="6.72e\\+05 pair products"):
        integrate_squared(model, box, pair_cap=6e5)
    assert integrate_squared(model, box, pair_cap=6.8e5) > 0.0
