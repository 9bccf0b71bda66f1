import numpy as np
import pytest

import repstab as rs
from repstab.errors import ValidationError
from repstab.presets import group_preset, group_preset_names

from conftest import brute_force_conjugacy_classes


def test_trivial_group():
    g = rs.validate_group([[0]])
    assert g.order == 1
    assert g.identity == 0
    assert g.classes == ((0,),)


def test_z2_from_table():
    g = rs.validate_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.classes == ((0,), (1,))
    assert g.inv[1] == 1


def test_s3_classes_match_brute_force():
    s3 = rs.symmetric_group(3)
    assert sorted(len(c) for c in s3.classes) == [1, 2, 3]
    assert [len(c) for c in s3.classes] == [1, 3, 2]  # ordered by least element
    assert s3.classes == brute_force_conjugacy_classes(s3.mult)


def test_classes_ordered_by_least_element():
    for name in ("S3", "D4", "Q8", "A4"):
        g = group_preset(name)
        leads = [c[0] for c in g.classes]
        assert leads == sorted(leads)
        assert g.classes == brute_force_conjugacy_classes(g.mult)


def test_non_square_table_rejected():
    with pytest.raises(ValidationError, match="square"):
        rs.validate_group([[0, 1]])


def test_out_of_range_entry_rejected():
    with pytest.raises(ValidationError, match="range"):
        rs.validate_group([[0, 1], [1, 5]])


def test_non_associative_table_named_triple():
    with pytest.raises(ValidationError, match="associative"):
        rs.validate_group([[0, 1, 2], [1, 0, 0], [2, 0, 1]])


def test_missing_identity_rejected():
    with pytest.raises(ValidationError, match="identity"):
        rs.validate_group([[0, 0], [0, 0]])


def test_relabelled_identity_found():
    g = rs.validate_group([[1, 0], [0, 1]])  # identity is element 1
    assert g.identity == 1


def test_missing_inverse_rejected():
    with pytest.raises(ValidationError, match="inverse"):
        rs.validate_group([[0, 1], [1, 1]])


def test_group_axioms_on_presets():
    for name in group_preset_names():
        g = group_preset(name)
        e = g.identity
        assert np.array_equal(g.mult[e], np.arange(g.order))
        for a in range(g.order):
            assert g.mult[a, g.inv[a]] == e
        covered = sorted(x for c in g.classes for x in c)
        assert covered == list(range(g.order))


def test_group_hom_validation():
    z2, z4 = rs.cyclic_group(2), rs.cyclic_group(4)
    hom = rs.group_hom(z2, z4, [0, 2], require_injective=True)
    assert hom.map[1] == 2 and hom.injective
    with pytest.raises(ValidationError, match="homomorphism"):
        rs.group_hom(z2, z4, [0, 1])
    with pytest.raises(ValidationError, match="injective"):
        rs.group_hom(z2, rs.cyclic_group(1), [0, 0], require_injective=True)


def test_group_json_roundtrip():
    from repstab.groups import group_from_json, group_to_json
    g = rs.symmetric_group(3)
    g2 = group_from_json(group_to_json(g))
    assert np.array_equal(g.mult, g2.mult)
    assert g2.name == "S3"
    with pytest.raises(ValidationError):
        group_from_json({"order": 3, "mult": [[0, 1], [1, 0]]})
