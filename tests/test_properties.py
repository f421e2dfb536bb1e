"""Hypothesis properties tying the layers together.

Generated parity-consistent data must agree with both independent
invariant paths; generated covered pairs must construct exactly and
degenerate stably; classification must stay total.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bidouble.cover import (
    BuildingData,
    CoverError,
    building_data,
    chi_oracle,
    invariants,
    ksq_oracle,
)
from bidouble.degenerations import DegenerationError, degenerate
from bidouble.lattice import hirzebruch
from bidouble.recipes import (
    FAMILY,
    NOT_ADMISSIBLE,
    NOT_COVERED,
    PRODUCT_LINE,
    admissible,
    classify,
    construct,
)


@st.composite
def ruled_data(draw):
    amb = hirzebruch(draw(st.integers(0, 3)))
    a3 = draw(st.integers(0, 10))
    b3 = draw(st.integers(0, 10))

    def matching_class():
        a = 2 * draw(st.integers(0, 5)) + a3 % 2
        b = 2 * draw(st.integers(0, 5)) + b3 % 2
        return amb.divisor(a, b)

    d1 = matching_class()
    d2 = matching_class()
    d3 = amb.divisor(a3, b3)
    try:
        return building_data(amb, d1, d2, d3)
    except CoverError:
        assume(False)


@st.composite
def covered_pair(draw):
    chi = draw(st.integers(1, 40))
    choices = list(range(max(1, 2 * chi - 6), 8 * chi - 7)) + [8 * chi]
    return draw(st.sampled_from(choices)), chi


class TestCoverProperties:
    @given(bd=ruled_data())
    def test_invariants_match_both_oracles(self, bd):
        inv = invariants(bd)
        assert inv.ksq == ksq_oracle(bd)
        assert inv.chi == chi_oracle(bd)
        assert inv.pg >= 0
        assert inv.q >= 0

    @given(bd=ruled_data())
    def test_document_round_trip(self, bd):
        assert BuildingData.from_doc(bd.to_doc()) == bd


class TestRecipeProperties:
    @given(ksq=st.integers(-30, 400), chi=st.integers(-5, 45))
    def test_classification_is_total(self, ksq, chi):
        region = classify(ksq, chi)
        assert region in frozenset(FAMILY) | {NOT_COVERED, NOT_ADMISSIBLE}
        assert (region == NOT_ADMISSIBLE) == (not admissible(ksq, chi))

    @given(pair=covered_pair())
    @settings(max_examples=200)
    def test_construct_realizes_requested_pair(self, pair):
        ksq, chi = pair
        cert = construct(ksq, chi)
        assert cert.ok
        assert (cert.invariants.ksq, cert.invariants.chi) == (ksq, chi)
        assert not cert.invariants.pg_estimated

    @given(pair=covered_pair())
    @settings(max_examples=200)
    def test_degeneration_is_stable_or_refused(self, pair):
        cert = construct(*pair)
        if cert.region == PRODUCT_LINE:
            with pytest.raises(DegenerationError):
                degenerate(cert)
            return
        dc = degenerate(cert)
        assert dc.ok
        assert dc.invariants == cert.invariants
        assert dc.ledger
        assert not dc.gorenstein
