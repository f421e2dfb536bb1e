"""Degeneration certificates: ledgers, normalizations, invariant stability."""

import dataclasses
import json

import pytest

from bidouble.cover import (
    NON_NORMAL_GLUING,
    QUARTER_POINT,
    BuildingData,
    InvalidBuildingData,
    building_data,
    invariants,
    singularity_scan,
)
from bidouble.degenerations import (
    DegenerationCertificate,
    DegenerationError,
    Normalization,
    availability_conditions,
    degenerate,
    degeneration_certificate,
    designated,
)
from bidouble.lattice import hirzebruch
from bidouble.recipes import FAMILY, NOETHER_LINE, _shared_section, construct


def covered_pairs(chi_max):
    for chi in range(1, chi_max + 1):
        for ksq in range(max(1, 2 * chi - 6), 8 * chi - 7):
            yield ksq, chi


class TestNoetherLine:
    def test_odd_chi_shared_whole_branch(self):
        dc = degenerate(construct(4, 5))
        assert dc.region == NOETHER_LINE
        assert not dc.data.reduced
        assert dc.invariants == dc.parent_invariants
        assert [e.kind for e in dc.ledger] == [NON_NORMAL_GLUING]
        entry = dc.ledger[0]
        assert entry.count == 6
        assert entry.gorenstein_index == 2
        assert list(entry.witness_class.coords) == [1, 0]
        assert not dc.gorenstein
        assert dc.ok

    def test_even_chi_shared_section_plus_fibers(self):
        dc = degenerate(construct(2, 4))
        assert not dc.data.reduced
        assert dc.data.d2 == dc.data.ambient.divisor(1, 2)
        names = [c.name for c in dc.data.components if c.branch == 2]
        assert names == ["d1", "f1", "f2"]
        assert [e.kind for e in dc.ledger] == [NON_NORMAL_GLUING]
        assert dc.ledger[0].count == 2
        assert dc.ok

    @pytest.mark.parametrize("d1, d2", [((1, 2), (1, 0)), ((1, 0), (3, 0))], ids=["-2F", "2D0"])
    def test_misfit_refused_by_the_branch_sum(self, d1, d2):
        # D3 = D0 on F_0, and D2 - D1 = -2F or 2D0, no fiber multiple:
        # sharedComponentFits reads the data as unfit, and building_data
        # refuses the second branch of its shared section
        f0 = hirzebruch(0)
        src = building_data(f0, f0.divisor(*d1), f0.divisor(*d2), f0.divisor(1, 0))
        (fits,) = FAMILY[NOETHER_LINE].degeneration.availability(None, src)
        assert (fits.name, fits.satisfied) == ("sharedComponentFits", False)
        with pytest.raises(InvalidBuildingData, match="components of branch 2 sum to"):
            _shared_section(src)

    def test_normalization_frozen_odd(self):
        dc = degenerate(construct(4, 5))
        n = dc.normalization
        assert n is not None
        assert n.c1.is_zero()
        assert n.c2.is_zero()
        assert list(n.c3.coords) == [4, 6]
        assert n.to_doc()["twoDisjointCopies"] is True

    def test_normalization_frozen_even(self):
        n = degenerate(construct(6, 6)).normalization
        assert list(n.c2.coords) == [0, 2]
        assert list(n.c3.coords) == [4, 10]
        assert n.to_doc()["twoDisjointCopies"] is True


class TestMarkedPointFamilies:
    @pytest.mark.parametrize(
        "ksq, chi, witness, candidates",
        [
            (1, 2, "p", 9),
            (1, 3, "p", 5),
            (20, 7, "p", 12),
            (8, 3, "p1", 16),
            (7, 3, "p2", 15),
            (17, 5, "p4", 11),
            (16, 4, "p1", 16),
        ],
    )
    def test_single_quarter_point(self, ksq, chi, witness, candidates):
        dc = degenerate(construct(ksq, chi))
        assert [e.kind for e in dc.ledger] == [QUARTER_POINT]
        entry = dc.ledger[0]
        assert entry.count == 1
        assert entry.gorenstein_index == 2
        assert entry.witness_point == witness
        assert dc.data.reduced
        assert not dc.gorenstein
        by_name = {c.name: c for c in dc.side_conditions}
        assert by_name["triplePointCandidates"].value == candidates
        assert dc.ok

    def test_genus2_point_sits_on_all_named_components(self):
        dc = degenerate(construct(20, 7))
        (point,) = dc.data.incidence
        assert point.name == "p"
        assert point.components == ("d1", "d2", "d3")
        doc = {"name": "p", "branches": [1, 2, 3], "components": ["d1", "d2", "d3"], "general": True}
        assert point.to_doc() == doc
        assert BuildingData.from_doc(dc.data.to_doc()) == dc.data

    def test_line5_marks_a_fresh_fiber(self):
        # alpha = 2 and epsilon = 1: the one spare fiber moves, so no bulk
        # fiber is left
        dc = degenerate(construct(7, 3))
        names = [c.name for c in dc.data.components if c.branch == 1]
        assert names == ["f1", "f2"]
        assert [(p.name, p.components) for p in dc.data.incidence] == [
            ("p2", ("f2", "d2", "d3"))
        ]
        # the resolved construction point is in the ambient, not incidence,
        # and the new fiber keeps the lifted class, off the exceptional curve
        assert [p.name for p in dc.data.ambient.points] == ["p1"]
        assert [c.cls.coords for c in dc.data.components if c.name == "f2"] == [(0, 1, 0)]
        by_name = {c.name: c for c in dc.side_conditions}
        assert by_name["spareFibers"].value == 1
        assert dc.ok

    def test_genus3_splits_the_bulk_fiber(self):
        dc = degenerate(construct(17, 5))
        names = [c.name for c in dc.data.components if c.branch == 1]
        assert names == ["f1", "f2", "f3", "f4", "f_rest"]
        assert [c.count for c in dc.data.components if c.name == "f_rest"] == [1]
        assert [(p.name, p.components) for p in dc.data.incidence] == [
            ("p4", ("f4", "d2", "d3"))
        ]
        by_name = {c.name: c for c in dc.side_conditions}
        assert by_name["spareFibers"].value == 2

    def test_genus3_with_no_remainder_fiber(self):
        dc = degenerate(construct(5, 2))
        names = [c.name for c in dc.data.components if c.branch == 1]
        assert names == ["f1", "f2", "f3", "f4"]
        assert [(p.name, p.components) for p in dc.data.incidence] == [
            ("p4", ("f4", "d2", "d3"))
        ]
        assert dc.ok


class TestAvailability:
    def test_product_line_refuses(self):
        cert = construct(8, 1)
        with pytest.raises(DegenerationError, match="product"):
            degenerate(cert)

    def test_every_covered_pair_degenerates(self):
        for ksq, chi in covered_pairs(10):
            dc = degenerate(construct(ksq, chi))
            assert dc.ok, (ksq, chi, dc.side_conditions)
            assert dc.invariants == dc.parent_invariants
            assert dc.ledger
            assert not dc.gorenstein
            assert all(e.gorenstein_index == 2 for e in dc.ledger)
            if dc.region == NOETHER_LINE:
                assert [e.kind for e in dc.ledger] == [NON_NORMAL_GLUING]
                assert dc.normalization is not None
            else:
                assert [e.kind for e in dc.ledger] == [QUARTER_POINT]
                assert dc.normalization is None

    @pytest.mark.parametrize("ksq, chi", [(4, 5), (20, 7), (45, 10)])
    def test_parent_not_ok_is_not_ok(self, ksq, chi):
        # the degenerate data and every condition of its own are as for an
        # ok parent, so only the parent's ok can make the difference
        parent = construct(ksq, chi)
        assert degenerate(parent).ok
        assert not degenerate(dataclasses.replace(parent, ok=False)).ok


class TestFieldsFromForeignData:
    # on every genuine certificate the invariants equal the parent's and
    # gorenstein equals not ok, so only data of another pair shows that each
    # derived value lands in its own field
    @pytest.mark.parametrize(
        "parent, data",
        [
            # smooth data of the next Genus3 pair: empty ledger, not ok
            (construct(45, 10), construct(46, 10).data),
            # non-reduced degenerate data of another Noether line pair
            (construct(4, 5), degenerate(construct(6, 6)).data),
        ],
    )
    def test_each_value_in_its_field(self, parent, data):
        dc = degeneration_certificate(parent, data)
        assert (dc.requested_ksq, dc.requested_chi) == (parent.requested_ksq, parent.requested_chi)
        assert dc.region == parent.region and dc.data is data
        assert dc.invariants == invariants(data)
        assert dc.parent_invariants == parent.invariants
        assert dc.invariants != dc.parent_invariants
        assert dc.ledger == singularity_scan(data)
        assert dc.gorenstein is (not dc.ledger)
        assert dc.ok is False
        assert dc.side_conditions == availability_conditions(parent, data)
        assert dc.family_note == designated(parent.region).note
        if data.reduced:
            assert dc.gorenstein is True and dc.normalization is None
        else:
            n = dc.normalization
            assert (n.c1, n.c2, n.c3) == (data.ambient.zero(), data.d2 - data.d1, data.d1 + data.d3)
            assert "two disjoint copies" in n.note

    def test_records_are_slotted_and_equal_to_the_constructors(self):
        dc = degenerate(construct(4, 5))
        fields = [getattr(dc, f.name) for f in dataclasses.fields(dc)]
        assert DegenerationCertificate(*fields) == dc
        assert hash(DegenerationCertificate(*fields)) == hash(dc)
        n = dc.normalization
        assert Normalization(n.c1, n.c2, n.c3, n.note) == n
        for value in (dc, n):
            assert not hasattr(value, "__dict__"), type(value).__name__
            name = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))


class TestDoc:
    def test_doc_shape(self):
        doc = degenerate(construct(4, 5)).to_doc()
        assert doc["kind"] == "degeneration"
        assert doc["requested"] == {"ksq": 4, "chi": 5}
        assert doc["gorenstein"] is False
        assert doc["ledger"][0]["kind"] == NON_NORMAL_GLUING
        assert doc["ledger"][0]["gorensteinIndex"] == 2
        assert doc["ledger"][0]["witness"] == {"class": [1, 0]}
        assert doc["normalization"]["classes"] == {
            "c1": [0, 0],
            "c2": [0, 0],
            "c3": [4, 6],
        }
        assert doc["normalization"]["twoDisjointCopies"] is True
        json.dumps(doc)

    def test_quarter_point_doc_witness(self):
        doc = degenerate(construct(20, 7)).to_doc()
        assert doc["ledger"] == [
            {
                "kind": QUARTER_POINT,
                "count": 1,
                "gorensteinIndex": 2,
                "witness": {"point": "p"},
            }
        ]
        assert doc["normalization"] is None

    def test_data_doc_reimports_nonreduced(self):
        from bidouble.cover import BuildingData

        dc = degenerate(construct(2, 4))
        clone = BuildingData.from_doc(dc.data.to_doc())
        assert clone == dc.data
        assert not clone.reduced
