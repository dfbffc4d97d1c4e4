import json

import pytest

from liaison import (
    DoubleLine,
    Ideal,
    LinkedTriple,
    classify,
    hilbert_data,
    local_ci_test,
    make_ring,
    regular_element_transfer_test,
    socle_lemma_test,
    verify_linked_triple,
)
from liaison.linkage import PointInvariants
from liaison.localrings import GorensteinInvariants, RationalPoint, local_gorenstein
from liaison.reports import Report


def _fossum():
    R = make_ring(["x1", "x2"], "Q", "grevlex")
    x1, x2 = R.gens()
    B = Ideal(R, [x1**2 + x1 * x2, x2**2])
    return LinkedTriple(B, Ideal(R, [x1, x2**2]), Ideal(R, [x1 + x2, x2**2])), x1, x2


def _reports():
    """One report of each class, with the dict it prints."""
    triple, x1, x2 = _fossum()
    P3 = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = P3.gens()
    vertex = RationalPoint.projective(P3, (0, 0, 0, 1))
    return [
        (
            hilbert_data(Ideal(triple.base.ring, [x1**2])),
            # the h-vector is left out
            {"krull_dimension": 1, "projective_dimension": 0, "degree": 2, "numerator": [1, 0, -1]},
        ),
        (
            local_ci_test(Ideal(P3, [x, y**2]), vertex),
            {
                "mu": 2,
                "codim": 2,
                "lci": True,
                "length": 2,
                "socle_dim": 1,
                "gorenstein": True,
                "point": "(0:0:0:1)",
                "note": "",
            },
        ),
        (
            classify(DoubleLine(P3, (0, 1), (z, u)), DoubleLine(P3, (0, 2), (y, u)), mode="both"),
            {
                "lal": True,
                "case_tag": "meeting_a",
                "witness": {"b1": "1", "b2": "1"},
                "mode": "both",
                "oracle_verdict": "lal",
                "points_tested": [
                    {
                        "mu": 2,
                        "codim": 2,
                        "lci": True,
                        "length": None,
                        "socle_dim": None,
                        "gorenstein": None,
                        "point": "(0:0:0:1)",
                        "note": "gorenstein not requested",
                    }
                ],
            },
        ),
        (
            socle_lemma_test(triple),
            {"socle_dim": 1, "dims": [1, 1, 1], "all_equal": True},
        ),
        (
            regular_element_transfer_test(triple, x2),
            {"regular_base": False, "regular_first": False, "regular_second": False, "consistent": True},
        ),
        (
            verify_linked_triple(triple, seed=0),
            {
                "containments": [True, True],
                "colon_first": True,
                "colon_second": True,
                "dimensions": [0, 0, 0],
                "degrees": [4, 2, 2],
                "degree_additive": True,
                "point_invariants": [{"point": "(0,0)", "length": 4, "socle_dim": 1, "gorenstein": True}],
                "gorenstein_ok": True,
                "passed": True,
                "note": (
                    "necessary-condition verification: colon symmetry, lengths, and socles "
                    "are the computable shadows of the defining exact sequences"
                ),
            },
        ),
    ]


@pytest.fixture(scope="module")
def reports():
    return {type(report).__name__: (report, expected) for report, expected in _reports()}


@pytest.mark.parametrize(
    "name",
    [
        "HilbertData",
        "LocalPointReport",
        "ClassificationVerdict",
        "SocleLemmaReport",
        "RegularTransferReport",
        "TripleReport",
    ],
)
def test_every_report_prints_its_fields_by_one_rule(reports, name):
    report, expected = reports[name]
    assert isinstance(report, Report)
    d = report.as_dict()
    assert d == expected
    assert json.loads(json.dumps(d)) == d


def test_triple_point_invariants_stay_tuples():
    # perfbench/workloads.py:175 reads a point's socle_dim as r[2], and
    # callers unpack the four values
    report = verify_linked_triple(_fossum()[0], seed=0)
    (entry,) = report.point_reports
    assert entry[2] == entry.socle_dim == 1
    point, length, socle_dim, gorenstein = entry
    assert (str(point), length, socle_dim, gorenstein) == ("(0,0)", 4, 1, True)
    # one name for the Gorenstein invariants: a point's entry is the point
    # and the named tuple local_gorenstein returns
    assert PointInvariants._fields == ("point", "length", "socle_dim", "gorenstein")
    invariants = local_gorenstein(_fossum()[0].base)
    assert isinstance(invariants, GorensteinInvariants)
    assert invariants == (length, socle_dim, gorenstein)
