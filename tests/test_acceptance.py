"""Acceptance suite: one test per criterion, every check exact (integer or
set equality; no numeric tolerances anywhere).  Run with ``pytest -s`` to see
one PASS/FAIL line per criterion."""

import random
from contextlib import contextmanager

import pytest

from weightlab import (Box, MonoidSpec, bounded_perfect_closure, check_prv_chain,
                       classify, dominant_weights_below, enumerate_perfect,
                       factor_antifixed_sequence, is_saturated_monoid,
                       predicted_members, prv_component, support_growing_step,
                       tensor_decompose, verify_classification, w0_action,
                       weyl_dimension, weyl_group_elements)
from weightlab.rootdata import wneg
from conftest import get_datum
from oracles import brute_tensor, random_dominant

# Cap on the smaller factor's dimension in criterion 2, which keeps each
# decomposition's expanded weight system small.
MAX_FACTOR_DIM = 2_000_000

RANK_LE_3 = ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "D3", "G2"]
RANK_LE_4 = RANK_LE_3 + ["A4", "B4", "C4", "D4", "F4"]
RANK_LE_5 = RANK_LE_4 + ["A5", "B5", "C5", "D5"]
RANK_LE_6 = RANK_LE_5 + ["A6", "B6", "C6", "D6", "E6"]


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {text}")
        raise
    print(f"PASS  criterion {number}: {text}")


def test_criterion_1_tensor_oracle_equivalence():
    with criterion(1, "tensor decomposition matches brute-force character product"
                      " on 200 random pairs (A1, A2, B2, G2)"):
        rng = random.Random(101)
        caps = {"A1": 8, "A2": 4, "B2": 3, "G2": 2}
        for ts, cap in caps.items():
            datum = get_datum(ts)
            for _ in range(50):
                lam = random_dominant(rng, datum.rank, cap)
                mu = random_dominant(rng, datum.rank, cap)
                fast = tensor_decompose(datum, lam, mu).summands
                slow = brute_tensor(datum, lam, mu)
                assert fast == slow, (ts, lam, mu)


def test_criterion_2_dimension_conservation():
    with criterion(2, "sum of summand dimensions equals the product dimension"
                      " on 100 random pairs per type of rank <= 4"):
        rng = random.Random(102)
        caps = {"A1": 8, "A2": 5, "A3": 3, "A4": 2, "B2": 4, "B3": 2, "B4": 1,
                "C2": 4, "C3": 2, "C4": 1, "D3": 3, "D4": 2, "F4": 1, "G2": 2}
        for ts, cap in caps.items():
            datum = get_datum(ts)
            for _ in range(100):
                lam = random_dominant(rng, datum.rank, cap)
                mu = random_dominant(rng, datum.rank, cap)
                while min(weyl_dimension(datum, lam), weyl_dimension(datum, mu)) > MAX_FACTOR_DIM:
                    target = lam if weyl_dimension(datum, lam) <= weyl_dimension(datum, mu) else mu
                    nz = [i for i, x in enumerate(target) if x]
                    target = tuple(0 if i == rng.choice(nz) else x
                                   for i, x in enumerate(target))
                    if weyl_dimension(datum, lam) <= weyl_dimension(datum, mu):
                        lam = target
                    else:
                        mu = target
                dec = tensor_decompose(datum, lam, mu)
                total = sum(m * weyl_dimension(datum, w) for w, m in dec.summands.items())
                assert total == weyl_dimension(datum, lam) * weyl_dimension(datum, mu)


def test_criterion_3_prv_membership():
    with criterion(3, "dominant representative of lam + w(mu) is always a summand,"
                      " exhaustively over W for A2, B2, A1xA1"):
        rng = random.Random(103)
        for ts in ["A2", "B2", "A1xA1"]:
            datum = get_datum(ts)
            words = weyl_group_elements(datum)
            for _ in range(100):
                lam = random_dominant(rng, datum.rank, 4)
                mu = random_dominant(rng, datum.rank, 4)
                support = tensor_decompose(datum, lam, mu).support()
                for word in words:
                    assert prv_component(datum, lam, mu, word) in support, \
                        (ts, lam, mu, word)


def test_criterion_4_enumeration_counts():
    with criterion(4, "perfect submonoids with full support are counted by the"
                      " subgroups of the cocenter (A1:2 A2:2 A3:3 D4:5 A1xA1:5)"):
        expected = {"A1": 2, "A2": 2, "A3": 3, "D4": 5, "A1xA1": 5}
        for ts, count in expected.items():
            datum = get_datum(ts)
            descs = enumerate_perfect(datum, range(1, datum.n_factors + 1))
            assert len(descs) == count, ts


def test_criterion_5_closure_versus_prediction():
    with criterion(5, "box closures stay inside the symbolic prediction (B=5,"
                      " rank <= 3, every fundamental generator); equality where stated"):
        for ts in RANK_LE_3:
            datum = get_datum(ts)
            for i in range(datum.rank):
                gen = tuple(1 if j == i else 0 for j in range(datum.rank))
                report = verify_classification(MonoidSpec(datum, (gen,)), Box(5))
                assert not report.missing_from_prediction, (ts, gen)
        a1 = get_datum("A1")
        assert verify_classification(MonoidSpec(a1, ((1,),)), Box(6)).equal
        a2 = get_datum("A2")
        assert verify_classification(MonoidSpec(a2, ((1, 0),)), Box(4)).equal
        assert verify_classification(MonoidSpec(a2, ((0, 1),)), Box(4)).equal
        a3 = get_datum("A3")
        assert verify_classification(MonoidSpec(a3, ((1, 0, 0),)), Box(4)).equal


def test_criterion_6_membership_closed_under_weight_systems():
    with criterion(6, "predicted members absorb the dominant weight system of"
                      " each member (every descriptor, rank <= 3, B=4)"):
        box = Box(4)
        for ts in RANK_LE_3 + ["A1xA1", "A1xA2"]:
            datum = get_datum(ts)
            supports = [frozenset(range(1, datum.n_factors + 1))]
            if datum.n_factors > 1:
                supports += [frozenset({k}) for k in range(1, datum.n_factors + 1)]
            for support in supports:
                for desc in enumerate_perfect(datum, support):
                    members = predicted_members(datum, desc, box)
                    for lam in members:
                        for mu in dominant_weights_below(datum, lam):
                            if mu in box:
                                assert mu in members, (ts, desc, lam, mu)


def test_criterion_7_antifixed_sequences():
    with criterion(7, "per-type sequences from the all-ones weight reach a"
                      " w0-antifixed final through dominant steps, every PRV step"
                      " tensor-confirmed"):
        for ts in RANK_LE_6:
            datum = get_datum(ts)
            rho = datum.weyl_vector
            trace = factor_antifixed_sequence(datum, 1, rho)
            final = trace.final
            assert w0_action(datum, final) == wneg(final), ts
            for step in trace.steps:
                assert all(x >= 0 for x in step.weight) and any(step.weight), ts
            report = check_prv_chain(datum, trace)
            assert report.ok, (ts, report.failures)
            assert report.tensor_checked == report.prv_steps, ts
            if ts == "E6":
                assert all(x == 0 for i, x in enumerate(final) if i not in (1, 3)), final
                assert final[1] > 0 and final[3] > 0
            if ts == "D5":
                assert final == (4, 4, 8, 0, 0)
                assert [s.weight for s in trace.steps] == \
                    [(1, 1, 1, 1, 1), (2, 2, 3, 2, 0), (4, 4, 8, 0, 0)]


def test_criterion_8_support_growth():
    with criterion(8, "support growth step returns a dominant weight with"
                      " strictly larger support (100 random inputs, rank <= 5)"):
        rng = random.Random(108)
        types = [t for t in RANK_LE_5 if t != "A1"]
        for ts in types:
            datum = get_datum(ts)
            done = 0
            while done < 100:
                lam = tuple(rng.randrange(3) for _ in range(datum.rank))
                supp = {i for i, x in enumerate(lam) if x > 0}
                if not supp or all(n in supp
                                   for j in supp for n in datum.neighbors[j]):
                    continue
                mu = support_growing_step(datum, lam)
                assert all(x >= 0 for x in mu), (ts, lam)
                assert {i for i, x in enumerate(mu) if x > 0} > supp, (ts, lam)
                done += 1


def test_criterion_9_saturation_contrast():
    with criterion(9, "the even submonoid of rank 1 is perfect but not"
                      " divisibility-saturated; the full monoid is both"):
        a1 = get_datum("A1")
        box = Box(4)
        even = bounded_perfect_closure(MonoidSpec(a1, ((2,),)), box)
        assert even == {(0,), (2,), (4,)}
        full = bounded_perfect_closure(MonoidSpec(a1, ((1,),)), box)
        assert full == {(0,), (1,), (2,), (3,), (4,)}
        assert is_saturated_monoid(a1, even, box) is False
        assert is_saturated_monoid(a1, full, box) is True


def test_criterion_10_no_numeric_tables():
    with criterion(10, "no quantitative tables exist to reproduce; criteria 1-9"
                       " are the complete acceptance surface"):
        assert True
