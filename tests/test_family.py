"""Tests for the mirror-quartic threefold family calculator."""

import gc

import pytest
from test_package import fresh

from mirrorcheck import errors, family as fam, hodge as hg


def test_params_validation():
    with pytest.raises(errors.InvalidPartition):
        fam.FamilyParams.of(3, 1, [2, 2])
    with pytest.raises(errors.InvalidPartition):
        fam.FamilyParams.of(1, 1, [3])
    with pytest.raises(errors.InvalidPartition):
        fam.FamilyParams.of(1, 1, [2, 0])
    params = fam.FamilyParams.of(2, 4, [1, 3, 2])
    assert params.mu == (3, 2, 1)


@pytest.mark.parametrize("i,j,mu", [(1.5, 2, [2.7, 1]), (1, 2.5, [2, 1]), (1, 2, [2, 0.5]),
                                    ("1", 2, [2, 1])])
def test_params_refuse_non_integers(i, j, mu):
    # int() would truncate 1.5 to 1 and 2.7 to 2, and read "1" as 1.
    with pytest.raises(errors.InputError):
        fam.FamilyParams.of(i, j, mu)
    assert fam.FamilyParams.of(2.0, 1, [2.0, 1]) == fam.FamilyParams(2, 1, (2, 1))


# Each was once accepted (True as i, or as parts), or raised a bare TypeError.
@pytest.mark.parametrize("make", [
    lambda: fam.FamilyParams(True, 1, (2,)),
    lambda: fam.FamilyParams(1, 1, (True, True)),
    lambda: fam.FamilyParams.of(1, 1, None),
], ids=["i-bool", "parts-bool", "parts-none"])
def test_params_refuse_non_integers_when_built_directly(make):
    with pytest.raises(errors.InputError):
        make()


# Each once failed later: a bare TypeError in the report, an UnknownType
# 'I2.0^Delta', or a list [2] called "not non-increasing".
@pytest.mark.parametrize("make", [
    lambda: fam.FamilyParams(1.0, 1, (2,)),
    lambda: fam.FamilyParams(1, 1, (2.0,)),
    lambda: fam.FamilyParams(1, 1, [2]),
], ids=["i-float", "part-float", "parts-list"])
def test_params_built_directly_are_stored_as_ints(make):
    params = make()
    assert params == fam.FamilyParams(1, 1, (2,)) and type(params.mu) is tuple
    assert all(type(x) is int for x in (params.i, params.j, *params.mu))
    assert fam.family_consistency_report(params).to_json() == \
        fam.family_consistency_report(fam.FamilyParams(1, 1, (2,))).to_json()


@pytest.mark.parametrize("i,j,mu,w,v", [
    (1, 1, (2,), (89, 1), (1, 89)),
    (4, 4, (1,) * 8, (44, 8), (8, 44)),
    (2, 4, (3, 2, 1), (61, 3), (3, 61)),
    (4, 4, (8,), (149, 1), (1, 149)),
])
def test_hodge_number_formulas(i, j, mu, w, v):
    params = fam.FamilyParams.of(i, j, mu)
    assert fam.w_hodge(params) == w
    assert fam.v_hodge(params) == v


@pytest.mark.parametrize("i,j,mu,tags", [
    (1, 1, (2,), ["IV_3f", "IV_3f", "I2^Delta", "I_odp", "I_odp"]),
    (2, 4, (3, 2, 1), ["II_3f", "I0", "I3^Delta", "I2^Delta", "I1^Delta"] + ["I_odp"] * 6),
    (4, 4, (1,) * 8, ["I0", "I0"] + ["I1^Delta"] * 8 + ["I_odp"] * 8),
])
def test_singular_fibre_profiles(i, j, mu, tags):
    profile = fam.singular_fibre_profile(fam.FamilyParams.of(i, j, mu))
    assert [f.tag for f in profile.fibres] == tags
    assert profile.ell == 19


def test_report_quartic_pair():
    report = fam.family_consistency_report(fam.FamilyParams.of(1, 1, (2,)))
    assert report.all_pass
    assert report.chi_v == -176 and report.chi_w == 176
    assert hg.picard_from_fibration(report.profile) == 89
    assert {c.name for c in report.checks} == {
        "mirror_duality", "picard_identity", "euler_gluing",
        "lee_smoothing", "ell_plus_k"}


def test_report_eight_lines():
    report = fam.family_consistency_report(fam.FamilyParams.of(4, 4, (1,) * 8))
    assert report.all_pass
    assert report.chi_v == -72 and report.chi_w == 72


def test_exhaustive_sweep_all_pass():
    reports = fam.sweep()
    # partitions of 2..8 over the nine (i, j) pairs
    assert len(reports) == 71
    assert all(r.all_pass for r in reports)


def test_one_sweep_builds_each_constant_diamond_once():
    # A fresh interpreter: nothing is carried over from an earlier sweep.
    found = fresh("""
        import json
        from mirrorcheck import family as fam, hodge as hg
        built = 0
        finish = hg.HodgeDiamond._finish
        def counted(self, *args):
            global built
            built += 1
            return finish(self, *args)
        hg.HodgeDiamond._finish = counted
        reports = fam.sweep()
        print(json.dumps({"built": built, "reports": len(reports),
                          "checks": sorted({len(r.checks) for r in reports}),
                          "passed": sum(r.all_pass for r in reports)}))
    """)
    # Three diamonds per member (blown-up X_i, W, V), plus K3 and X_1, X_2, X_4;
    # the closed-form builders and the generic constructor share the finisher.
    assert found == {"built": 217, "reports": 71, "checks": [5], "passed": 71}


def test_one_sweep_reads_each_partition_once(monkeypatch):
    # FamilyParams.of reads mu and hands it on; the constructor's checks do
    # not read it again.
    calls = []
    real = fam.as_int_vector

    def counting(v):
        calls.append(1)
        return real(v)

    monkeypatch.setattr(fam, "as_int_vector", counting)
    assert len(fam.sweep()) == 71
    assert len(calls) == 71


def test_sweep_symmetry():
    by_params = {(r.params.i, r.params.j, r.params.mu): r for r in fam.sweep()}
    for (i, j, mu), report in by_params.items():
        twin = by_params[(j, i, mu)]
        assert report.w == twin.w and report.v == twin.v
        assert [c.status for c in report.checks] == [c.status for c in twin.checks]


def test_component_bookkeeping():
    for i in (1, 2, 4):
        for j in (1, 2, 4):
            for mu in fam.partitions(i + j):
                params = fam.FamilyParams.of(i, j, mu)
                profile = fam.singular_fibre_profile(params)
                excess = sum(f.components - 1 for f in profile.fibres)
                assert excess == fam.w_hodge(params)[0] - 20


def test_partitions_generator():
    assert list(fam.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(fam.partitions(8))) == 22


def test_partitions_leave_no_cyclic_garbage():
    # A recursive closure would hold itself through its own cell: one cycle
    # per call, freed only by the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        assert len(list(fam.partitions(8))) == 22
        assert gc.collect() == 0
    finally:
        gc.enable()
