"""Acceptance gate: one test per advertised guarantee, run with -v for the
per-criterion pass/fail listing.

Five tests are expected failures, marked strict-xfail with the reason
recorded on the marker: each quantifies over q = 9, and characteristic 3 is
outside the curve layer's domain, which requires p > 3.
"""

import json
import math
import time

import pytest

from lambda2 import cli
from lambda2.classify import (
    admissible_traces,
    isogeny_class_two_torsion_profile,
    kani_admissible,
    lambda_exact,
    lambda_formula,
    lambda_formula_resolved,
    lambda_set,
    ramification_solutions,
    two_torsion_profile_by_trace,
    weil_poly,
)
from lambda2.ecurve import curve_inventory, make_curve
from lambda2.ffield import field_of_order
from lambda2.fforacle import branch_degree, cover_census, lambda_oracle
from lambda2.galois2 import all_isos_are_restrictions
from object_reference import cover_point_count, cover_representatives, enumerate_curves

ELAPSED = {}


def _track(key, started):
    ELAPSED[key] = ELAPSED.get(key, 0.0) + (time.time() - started)


def _curves(q):
    return curve_inventory(field_of_order(q))


# --- criterion 1: the F_5 table reproduced field-for-field ------------------

TABLE_F5 = """\
a,b,j,a_q,two_torsion,supersingular,aut_count,lambda_traces
0,1,0,0,C2,true,2,-4;-2;0;2;4
0,2,0,0,C2,true,2,-4;-2;0;2;4
1,0,3,2,Full,false,4,-2;2
1,1,2,-3,Trivial,false,2,-3;-1;1;3
1,2,1,2,C2,false,2,-4;-2;0;2;4
2,0,3,4,C2,false,4,-2;0;2
2,1,4,-1,Trivial,false,2,-3;-1;1;3
3,0,3,-4,C2,false,4,-2;0;2
3,2,4,1,Trivial,false,2,-3;-1;1;3
4,0,3,-2,Full,false,4,-2;2
4,1,1,-2,C2,false,2,-4;-2;0;2;4
4,2,2,3,Trivial,false,2,-3;-1;1;3
"""


def test_criterion1_f5_table_golden(tmp_path, capsys):
    started = time.time()
    code = cli.main(["table", "--q", "5", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == TABLE_F5
    assert time.time() - started < 10.0


# --- criterion 2: route agreement -------------------------------------------


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_criterion2_three_way_agreement(q):
    started = time.time()
    for curve in _curves(q):
        formula = lambda_formula_resolved(curve).traces
        kani = lambda_exact(curve).traces
        oracle = lambda_oracle(curve).traces
        assert formula == kani == oracle, (q, str(curve.a), str(curve.b))
    _track("criterion2", started)


@pytest.mark.parametrize("q", [25, 49])
def test_criterion2_two_way_agreement(q):
    started = time.time()
    for curve in _curves(q):
        assert lambda_formula_resolved(curve).traces == lambda_exact(curve).traces
    _track("criterion2", started)


@pytest.mark.xfail(
    reason="q = 9 has characteristic 3; the curve layer requires p > 3, so this"
    " sub-case cannot be evaluated by this artifact",
    strict=True,
)
def test_criterion2_two_way_agreement_q9():
    for curve in _curves(9):
        assert lambda_formula_resolved(curve).traces == lambda_exact(curve).traces


def test_criterion2_total_runtime():
    assert ELAPSED.get("criterion2", 0.0) < 300.0


# --- criterion 3: no higher-degree covers ------------------------------------


def test_criterion3_higher_degree_empty():
    for q in (5, 7):
        for curve in _curves(q):
            for d in (3, 4):
                assert lambda_set(curve, d).traces == ()
    assert ramification_solutions("degree6").solutions == {
        (2, 1, 0),
        (1, 0, 3),
        (0, 2, 2),
    }
    assert ramification_solutions("degree8").solutions == {
        (2, 0, 1),
        (0, 3, 0),
        (0, 1, 3),
    }


# --- criterion 4: admissibility matches reality ------------------------------


@pytest.mark.parametrize("q", [5, 7, 11, 13, 25, 49])
def test_criterion4_waterhouse(q):
    started = time.time()
    realized = {curve.trace() for curve in enumerate_curves(field_of_order(q))}
    assert realized == set(admissible_traces(q).traces)
    _track("criterion4", started)


def test_criterion4_square_field_exclusions():
    assert 0 not in admissible_traces(25)
    assert 7 not in admissible_traces(49) and -7 not in admissible_traces(49)


@pytest.mark.xfail(
    reason="q = 9 has characteristic 3; curves cannot be enumerated here",
    strict=True,
)
def test_criterion4_waterhouse_q9():
    realized = {curve.trace() for curve in enumerate_curves(field_of_order(9))}
    assert realized == set(admissible_traces(9).traces)


def test_criterion4_total_runtime():
    assert ELAPSED.get("criterion4", 0.0) < 120.0


# --- criterion 5: property suites --------------------------------------------


def test_criterion5_twist_symmetry():
    for q in (5, 7, 11, 13):
        for curve in _curves(q):
            lam = lambda_exact(curve).traces
            assert lam == lambda_exact(curve.quadratic_twist()).traces
            assert lam == tuple(sorted(-t for t in lam))


def test_criterion5_parity_on_oracle_covers():
    for q in (5, 7):
        for curve in _curves(q):
            parity = curve.trace() % 2
            for ap in cover_census(curve):
                assert ap % 2 == parity


def test_criterion5_second_count_identity_on_covers():
    for q, a, b in [(5, 2, 1), (5, 3, 0), (7, 0, 3), (7, 2, 4)]:
        curve = make_curve(q, a, b)
        trace = curve.trace()
        for ucoeffs, v in cover_representatives(curve.field):
            if branch_degree(curve, ucoeffs, v) != 2:
                continue
            n1 = cover_point_count(curve, ucoeffs, v)
            n2 = cover_point_count(curve, ucoeffs, v, k=2)
            ap = q + 1 - n1 - trace
            assert n2 == q * q + 1 - (trace * trace - 2 * q) - (ap * ap - 2 * q)


@pytest.mark.xfail(
    reason="q = 9 has characteristic 3; the closed form equals the subset test"
    " on every same-j pair over q = 5 and 7, and the first failure is building"
    " the q = 9 inventory",
    strict=True,
)
def test_criterion5_rigidity_closed_form_equivalence():
    for q in (5, 7, 9, 11, 13):
        curves = _curves(q)
        for left in curves:
            for right in curves:
                if left.j_invariant() != right.j_invariant():
                    continue
                assert (not kani_admissible(left, right)) == all_isos_are_restrictions(
                    left, right
                ), (q, str(left.b), str(right.b))


@pytest.mark.parametrize("q", [5, 7, 11, 13, 25])
def test_criterion5_profile_theorem_even_traces(q):
    for a in admissible_traces(q):
        if a % 2 == 0:
            assert two_torsion_profile_by_trace(
                q, a
            ) == isogeny_class_two_torsion_profile(q, a)


@pytest.mark.xfail(
    reason="q = 9 has characteristic 3; no inventory to compare against",
    strict=True,
)
def test_criterion5_profile_theorem_q9():
    for a in admissible_traces(9):
        if a % 2 == 0:
            assert two_torsion_profile_by_trace(
                9, a
            ) == isogeny_class_two_torsion_profile(9, a)


def test_criterion5_mass_formula():
    for q in (5, 7):
        total = sum(
            1 / curve.automorphism_count() for curve in _curves(q)
        )
        assert math.isclose(total, q)


def test_criterion5_honda_tate_f5():
    by_trace = {}
    for curve in _curves(5):
        by_trace.setdefault(curve.trace(), []).append(curve)
    for trace, cls in by_trace.items():
        polys = {weil_poly(5, c.trace()) for c in cls}
        assert len(polys) == 1
        counts = {tuple(c.trace_over(k) for k in (1, 2, 3)) for c in cls}
        assert len(counts) == 1, trace


# --- criterion 6: exception bounds -------------------------------------------


def test_criterion6_exception_bounds():
    for q in (5, 7, 11, 13):
        field = field_of_order(q)
        j_zero = field.zero
        j_special = field.element(1728)
        for curve in _curves(q):
            j = curve.j_invariant()
            if j != j_zero and j != j_special:
                continue
            candidates, flagged = lambda_formula(curve)
            removed = set(candidates.traces) - set(lambda_exact(curve).traces)
            assert removed <= flagged, (q, str(curve.a), str(curve.b))
            assert len(removed) <= 6
            if j == j_special and curve.two_torsion_structure() == "C2":
                assert len(removed) <= 4


@pytest.mark.xfail(
    reason="q = 9 has characteristic 3; there are no curves to bound",
    strict=True,
)
def test_criterion6_exception_bounds_q9():
    assert _curves(9)


# --- CLI gate: the primary golden invocation ---------------------------------


def test_primary_gate_cmd_verify_q5(tmp_path, capsys):
    code = cli.main(["verify", "--q", "5", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "12 classes, 3 modes, all agree"


def test_gate_admissible_examples(capsys):
    assert cli.main(["admissible", "--q", "25"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        a for a in range(-10, 11) if a != 0
    ]
