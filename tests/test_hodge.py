"""Diamond arithmetic, fibre catalogs, slicing and conjecture reports."""

import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcheck import errors, hodge as hg


# --- diamonds and Euler numbers ---------------------------------------------


def test_euler_characteristics():
    assert hg.euler_char(hg.k3_diamond()) == 24
    assert hg.euler_char(hg.cy_threefold_diamond(89, 1)) == 176
    assert hg.euler_char(hg.quasi_fano_threefold_diamond(1, 30)) == -56
    assert hg.euler_char(hg.elliptic_curve_diamond()) == 0
    assert hg.euler_char(hg.projective_space_diamond(3)) == 4


@st.composite
def _diamonds(draw, dims=st.integers(0, 6), values=st.integers(0, 40)):
    """Hodge-symmetric grids of dimension 0 to 6: quasi-Fano, or Kaehler with
    each entry copied over its Serre-duality orbit too."""
    dim, kaehler = draw(dims), draw(st.booleans())
    entries = {}
    for p in range(dim + 1):
        for q in range(p, dim + 1):
            orbit = {(p, q), (q, p)}
            if kaehler:
                orbit |= {(dim - p, dim - q), (dim - q, dim - p)}
            if orbit.isdisjoint(entries):
                value = 1 if (0, 0) in orbit else draw(values)
                entries.update(dict.fromkeys(orbit, value))
    return hg.HodgeDiamond(dim, entries, kaehler)


@settings(max_examples=200, deadline=None)
@given(_diamonds())
def test_euler_char_is_the_alternating_sum(d):
    signed = sum((-1) ** (p + q) * d.h[p][q] for p in range(d.dim + 1) for q in range(d.dim + 1))
    assert hg.euler_char(d) == signed
    assert all(d.hpq(p, q) == d.h[p][q] for p in range(d.dim + 1) for q in range(d.dim + 1))
    assert sum((-1) ** n * d.betti(n) for n in range(2 * d.dim + 1)) == signed
    assert hg.euler_char(d) == signed


# The threefold builders write their grid and Euler number in closed form;
# the generic constructor, given the same entries, is their reference.
_THREEFOLD_BUILDERS = {
    "calabi-yau": (hg.cy_threefold_diamond, True, lambda a, b: {
        (0, 0): 1, (3, 3): 1, (3, 0): 1, (0, 3): 1,
        (1, 1): a, (2, 2): a, (2, 1): b, (1, 2): b}),
    "quasi-fano": (hg.quasi_fano_threefold_diamond, False, lambda a, b: {
        (0, 0): 1, (3, 3): 1, (1, 1): a, (2, 2): a, (2, 1): b, (1, 2): b}),
}


def _outcome(call):
    """What a call returns, or the type and message of the library error it
    raises."""
    try:
        return call()
    except errors.MirrorcheckError as e:
        return type(e), str(e)


def _readings(d):
    return d.h, d.kaehler, hg.euler_char(d), hash(d), d.to_json()


_COUNTS = st.integers(0, 10 ** 40) | st.integers(0, 200).map(float)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_THREEFOLD_BUILDERS)), _COUNTS, _COUNTS)
@example("calabi-yau", 0, 0)
@example("quasi-fano", 0, 0)
@example("calabi-yau", 10 ** 60, 1)
@example("quasi-fano", 1, 10 ** 60)
@example("calabi-yau", 2.0, 2.0)
@example("quasi-fano", 2.0, 39)
def test_closed_form_builders_match_the_generic_constructor(kind, a, b):
    build, kaehler, entries = _THREEFOLD_BUILDERS[kind]
    closed, generic = build(a, b), hg.HodgeDiamond(3, entries(a, b), kaehler)
    assert type(closed) is hg.HodgeDiamond
    for d in (closed, pickle.loads(pickle.dumps(closed))):
        assert _readings(d) == _readings(generic)
        assert d == generic and all(type(x) is int for row in d.h for x in row)


_BAD_COUNTS = [-1, -1.0, True, False, 2.5, "1", None]


@pytest.mark.parametrize("kind", sorted(_THREEFOLD_BUILDERS))
@pytest.mark.parametrize("a,b", [(bad, 1) for bad in _BAD_COUNTS]
                         + [(1, bad) for bad in _BAD_COUNTS]
                         + [(-1, "x"), ("x", -1), (-2, -3), (None, 2.5)])
def test_closed_form_builders_refuse_as_the_generic_constructor(kind, a, b):
    build, kaehler, entries = _THREEFOLD_BUILDERS[kind]
    refused = _outcome(lambda: build(a, b))
    assert refused == _outcome(lambda: hg.HodgeDiamond(3, entries(a, b), kaehler))
    assert isinstance(refused, tuple)


# Brute-force readings of a diamond's grid, entry by entry.


def _betti_reference(d, n):
    return sum(d.h[p][q] for p in range(d.dim + 1) for q in range(d.dim + 1) if p + q == n)


def _mirror_reference(v, w):
    d = v.dim
    failures = [f"({d - p},{q})" for p in range(d + 1) for q in range(d + 1)
                if v.h[p][q] != w.h[d - p][q]]
    signed = [sum((-1) ** (p + q) * x.h[p][q] for p in range(d + 1) for q in range(d + 1))
              for x in (v, w)]
    if signed[0] != (-1) ** d * signed[1]:
        failures.append("euler")
    return ("FAIL", "mismatch at " + ", ".join(failures)) if failures else ("PASS", "")


@st.composite
def _diamond_pairs(draw):
    """Two diamonds of one dimension: the second is the first's mirror
    transposition where that is a diamond, the first perturbed at one
    entry, or another draw; entries stay small so that mirrors occur."""
    v = draw(_diamonds(values=st.integers(0, 2)))
    d = v.dim
    mirrored = {(d - p, q): v.h[p][q] for p in range(d + 1) for q in range(d + 1)}
    kind = draw(st.sampled_from(["mirror", "perturbed", "other"]))
    if kind != "other":
        if kind == "perturbed":
            p, q = draw(st.integers(0, d)), draw(st.integers(0, d))
            mirrored[(p, q)] = mirrored[(q, p)] = mirrored[(p, q)] + 1
            if v.kaehler:
                mirrored[(d - p, d - q)] = mirrored[(d - q, d - p)] = mirrored[(p, q)]
        try:
            return v, hg.HodgeDiamond(d, mirrored, v.kaehler)
        except errors.InvalidDiamond:
            pass
    return v, draw(_diamonds(dims=st.just(d), values=st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(_diamond_pairs())
@example((hg.cy_threefold_diamond(1, 89), hg.cy_threefold_diamond(89, 1)))
@example((hg.cy_threefold_diamond(1, 89), hg.cy_threefold_diamond(89, 2)))
@example((hg.quasi_fano_threefold_diamond(1, 30), hg.cy_threefold_diamond(30, 1)))
@example((hg.k3_diamond(), hg.k3_diamond()))
def test_grid_readers_match_brute_force(pair):
    v, w = pair
    for d in pair:
        assert [d.betti(n) for n in range(-2, 2 * d.dim + 3)] == \
            [_betti_reference(d, n) for n in range(-2, 2 * d.dim + 3)]
    verdict = hg.mirror_dual_check(v, w)
    assert (verdict.status, verdict.detail) == _mirror_reference(v, w)


@settings(max_examples=150, deadline=None)
@given(_diamonds(dims=st.just(3)), _diamonds(dims=st.just(3)),
       _diamonds(dims=st.just(2)), st.integers(1, 20))
@example(hg.quasi_fano_threefold_diamond(2, 39), hg.quasi_fano_threefold_diamond(1, 30),
         hg.k3_diamond(), 1)
def test_lee_smoothing_matches_brute_force(x1, x2, z, k):
    lee = hg.lee_smoothing(hg.TyurinData(x1, x2, z, k))
    h11 = _betti_reference(x1, 2) + _betti_reference(x2, 2) - k - 1
    h21 = 21 + x1.hpq(2, 1) + x2.hpq(2, 1) - k
    assert (lee.h11, lee.h21) == (h11, h21)
    assert (lee.warning is None) == (h11 >= 1)


def test_diamond_validation():
    with pytest.raises(errors.InvalidDiamond):
        hg.HodgeDiamond(2, {(0, 0): 2})
    with pytest.raises(errors.InvalidDiamond):
        hg.HodgeDiamond(2, {(0, 0): 1, (1, 1): 5, (2, 2): 2})
    quasi = hg.quasi_fano_threefold_diamond(1, 30)
    assert quasi.hpq(3, 0) == 0 and not quasi.kaehler


def test_hpq_is_zero_outside_the_diamond():
    k3 = hg.k3_diamond()
    assert [k3.hpq(p, 0) for p in (-1, 0, 1, 2, 3)] == [0, 1, 0, 1, 0]
    assert k3.hpq(1.0, 1) == 20 and k3.hpq(0, -1) == 0
    assert [k3.betti(n) for n in range(-1, 6)] == [0, 1, 0, 22, 0, 1, 0]
    assert hg.HodgeDiamond(2.0, {(0, 0): 1, (2.0, 2): 1.0}, kaehler=False).h == \
        ((1, 0, 0), (0, 0, 0), (0, 0, 1))


def test_diamond_entries_are_stored_as_ints():
    d = hg.HodgeDiamond(2, {(0, 0): 1, (1, 1): 2.0, (2, 2): 1})
    assert d.h[1][1] == 2 and all(type(x) is int for row in d.h for x in row)
    assert type(hg.euler_char(d)) is int and hg.euler_char(d) == 4


def test_diamond_is_read_only():
    # A slot written after the checks would leave euler_char and the hash
    # reading another table than h.
    d = hg.k3_diamond()
    for name, value in [("h", ((1, 0, 0), (0, 5, 0), (0, 0, 1))), ("dim", 3),
                        ("kaehler", False), ("_chi", 0), ("other", 1)]:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(d, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(d, name)
    assert d == hg.k3_diamond() and hash(d) == hash(hg.k3_diamond())
    assert hg.euler_char(d) == d.betti(0) + d.betti(2) + d.betti(4) == 24


@pytest.mark.parametrize("d", [hg.k3_diamond(), hg.quasi_fano_threefold_diamond(1, 30),
                               hg.HodgeDiamond(0, {(0, 0): 1})])
def test_diamond_copies_and_pickles(d):
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert twin == d and hash(twin) == hash(d)
        assert (twin.dim, twin.h, twin.kaehler) == (d.dim, d.h, d.kaehler)
        assert hg.euler_char(twin) == hg.euler_char(d)
        with pytest.raises(AttributeError):
            twin.h = d.h


_CURVE = hg.elliptic_curve_diamond()
_POINT = hg.HodgeDiamond(0, {(0, 0): 1})


# Each public hodge function gives an exact answer or a named error; these
# inputs lie outside the stated domains and once returned a wrong number or
# raised a bare Python error.
@pytest.mark.parametrize("call,error", [
    (lambda: hg.k3_diamond().hpq(1.5, 1), errors.InputError),
    (lambda: hg.k3_diamond().hpq(True, 0), errors.InputError),
    (lambda: hg.k3_diamond().betti(True), errors.InputError),
    (lambda: hg.HodgeDiamond(2, {(0, 0): 1, (1, 1): True, (2, 2): 1}), errors.InputError),
    (lambda: hg.HodgeDiamond(2, {(0, 0): 1, (1, 1): 2.5, (2, 2): 1}), errors.InputError),
    (lambda: hg.HodgeDiamond(2, {(0, 0): 1, (True, 1): 20, (2, 2): 1}), errors.InputError),
    (lambda: hg.HodgeDiamond(2, {(0, 0): 1, (1, True): 20, (2, 2): 1}), errors.InputError),
    (lambda: hg.HodgeDiamond(2.5, {(0, 0): 1}), errors.InputError),
    (lambda: hg.HodgeDiamond(2, {(0,): 1}), errors.InputError),
    (lambda: hg.HodgeDiamond(2, [((0, 0), 1)]), errors.InputError),
    (lambda: hg.lee_smoothing(hg.TyurinData(_CURVE, _CURVE, _POINT)),
     errors.DimensionMismatch),
    (lambda: hg.euler_blowup_curve(10, -3), errors.InputError),
    (lambda: hg.h2w_formula(1, 1, -5), errors.InputError),
    (lambda: hg.h2w_formula(-1, 1, 5), errors.InputError),
    (lambda: hg.fibre_components(5), errors.InputError),
], ids=["hpq-fraction", "hpq-bool", "betti-bool", "entry-bool", "entry-fraction",
        "index-bool", "index-bool-second", "dim-fraction",
        "index-not-pair", "entries-not-mapping", "lee-curves", "blowup-genus", "h2w-ell",
        "h2w-rank", "fibre-int"])
def test_hodge_exports_refuse_input_outside_their_domain(call, error):
    with pytest.raises(error):
        call()


# Each integer field of the frozen hodge dataclasses, set to a given value.
_INTEGER_FIELDS = {
    "TyurinData.k": lambda v: hg.TyurinData(_CURVE, _CURVE, _POINT, v),
    "FibrationDescriptor.ell": lambda v: hg.FibrationDescriptor.from_tags(["I1", "I2"], v),
    "TypeIIDegeneration.components": lambda v: hg.TypeIIDegeneration((1, v), 1, 1),
    "TypeIIDegeneration.double_curves": lambda v: hg.TypeIIDegeneration((1, 2), v, 1),
    "TypeIIDegeneration.l_rank": lambda v: hg.TypeIIDegeneration((1, 2), 1, v),
}


@pytest.mark.parametrize("value", [True, 2.5, "1", None])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_dataclass_integers_read_through_as_int(field, value):
    with pytest.raises(errors.InputError):
        _INTEGER_FIELDS[field](value)


def test_dataclass_integers_are_stored_as_ints():
    tyurin = _INTEGER_FIELDS["TyurinData.k"](2.0)
    fibration = _INTEGER_FIELDS["FibrationDescriptor.ell"](2.0)
    chain = hg.TypeIIDegeneration([1.0, 2], 1.0, 2.0)
    assert type(tyurin.k) is int and tyurin.k == 2
    assert type(fibration.ell) is int and hg.picard_from_fibration(fibration) == 4
    assert chain == hg.TypeIIDegeneration((1, 2), 1, 2)
    assert all(type(x) is int for x in (*chain.components, chain.double_curves, chain.l_rank))


def test_negative_hodge_data_is_refused():
    with pytest.raises(errors.InvalidDiamond, match="negative"):
        hg.HodgeDiamond(2, {(0, 0): 1, (2, 0): 1, (1, 1): -5, (2, 2): 1})
    with pytest.raises(errors.InvalidDiamond, match="negative"):
        hg.HodgeDiamond(-1, {})
    with pytest.raises(errors.InvalidDiamond, match="negative"):
        hg.HodgeDiamond.from_json({"dim": -1})
    for u, v in [(-1, 2), (2, -1)]:
        with pytest.raises(errors.InputError):
            hg.lmhs_table(u, v)


def test_diamond_dimension_is_bounded():
    # The grid and its checks grow as (d+1)^2; a 50-byte input once asked
    # for a 3001 x 3001 grid.
    top = hg.MAX_DIAMOND_DIM
    assert hg.projective_space_diamond(top).dim == top
    for dim in (top + 1, 3000, 10 ** 12):
        message = f"dimension {dim} exceeds the limit of {top}"
        with pytest.raises(errors.BudgetExceeded, match=message):
            hg.HodgeDiamond(dim, {(0, 0): 1})
        with pytest.raises(errors.BudgetExceeded):
            hg.HodgeDiamond.from_json({"dim": dim, "h": {"0,0": 1, f"{dim},{dim}": 1}})


@pytest.mark.parametrize("flags,kaehler", [
    ([], True), (["kaehler"], True), (["quasifano"], False), (["quasifano", "quasifano"], False),
])
def test_diamond_flags(flags, kaehler):
    data = {"dim": 1, "h": {"0,0": 1, "1,1": 1}, "flags": flags}
    assert hg.HodgeDiamond.from_json(data).kaehler is kaehler


# An unknown flag was once read as Kaehler, and both flags as quasi-Fano.
@pytest.mark.parametrize("flags", [["kaehlr"], ["kaehler", "quasifano"], [1], [["kaehler"]]])
def test_diamond_flags_are_checked(flags):
    with pytest.raises(errors.InputError, match="flags"):
        hg.HodgeDiamond.from_json({"dim": 1, "h": {"0,0": 1, "1,1": 1}, "flags": flags})


# int() would read "1_1" as 11 and the Arabic-Indic digit as 1.
@pytest.mark.parametrize("key", ["1_1,0", "\u0661,1", "1,1,1", "1"])
def test_diamond_keys_are_strict(key):
    with pytest.raises(errors.InputError, match="not of the form"):
        hg.HodgeDiamond.from_json({"dim": 11, "h": {"0,0": 1, key: 1}})


def test_diamond_json_round_trip():
    d = hg.quasi_fano_threefold_diamond(2, 39)
    assert hg.HodgeDiamond.from_json(d.to_json()) == d


def test_mirror_dual_check():
    assert hg.mirror_dual_check(hg.cy_threefold_diamond(1, 89),
                                hg.cy_threefold_diamond(89, 1)).passed
    assert hg.mirror_dual_check(hg.k3_diamond(), hg.k3_diamond()).passed
    verdict = hg.mirror_dual_check(hg.cy_threefold_diamond(1, 89),
                                   hg.cy_threefold_diamond(89, 2))
    assert not verdict.passed
    assert "(2,1)" in verdict.detail
    with pytest.raises(errors.DimensionMismatch):
        hg.mirror_dual_check(hg.k3_diamond(), hg.cy_threefold_diamond(1, 1))


# --- smoothing and gluing ----------------------------------------------------


def test_lee_smoothing_quartic_pair():
    t = hg.TyurinData(hg.quasi_fano_threefold_diamond(2, 39),
                      hg.quasi_fano_threefold_diamond(1, 30),
                      hg.k3_diamond(), k=1)
    result = hg.lee_smoothing(t)
    assert (result.h11, result.h21) == (1, 89)
    assert result.warning is None


def test_lee_smoothing_warns_on_projective_spaces():
    t = hg.TyurinData(hg.projective_space_diamond(3),
                      hg.projective_space_diamond(3), hg.k3_diamond(), k=1)
    result = hg.lee_smoothing(t)
    # 21 + 0 + 0 - 1 on the h21 side; the h11 side degenerates and warns.
    assert (result.h11, result.h21) == (0, 20)
    assert result.warning and "NonKaehlerOrInvalid" in result.warning


def test_lee_smoothing_blown_up_lines():
    t = hg.TyurinData(hg.quasi_fano_threefold_diamond(9, 24),
                      hg.projective_space_diamond(3), hg.k3_diamond(), k=1)
    result = hg.lee_smoothing(t)
    assert (result.h11, result.h21) == (8, 44)


def test_glue_euler_threefold():
    blown = hg.quasi_fano_threefold_diamond(2, 39)   # chi = -72
    plain = hg.quasi_fano_threefold_diamond(1, 30)   # chi = -56
    assert hg.euler_char(blown) == -72
    t = hg.TyurinData(blown, plain, hg.k3_diamond(), k=1)
    assert hg.glue_euler_check(t, 176, 3).passed
    assert not hg.glue_euler_check(t, 175, 3).passed


def test_glue_euler_negative_dimension_is_an_input_error():
    # (-1)^d with d < 0 is a float: (-1)^-1 chi(V) once read 176.0 and
    # matched chi(W) = 176.
    t = hg.TyurinData(hg.quasi_fano_threefold_diamond(2, 39),
                      hg.quasi_fano_threefold_diamond(1, 30), hg.k3_diamond(), k=1)
    for w_chi in (176, -176, 5):
        with pytest.raises(errors.InputError, match="^dimension must be nonnegative, got -1$"):
            hg.glue_euler_check(t, w_chi, -1)
    assert hg.glue_euler_check(t, -176, 0).passed


def test_glue_euler_surface_case():
    rational_elliptic = hg.surface_diamond(10)
    assert hg.euler_char(rational_elliptic) == 12
    t = hg.TyurinData(rational_elliptic, rational_elliptic,
                      hg.elliptic_curve_diamond(), k=1)
    assert hg.glue_euler_check(t, 24, 2).passed


def test_euler_blowup_curve():
    assert hg.euler_blowup_curve(-56, 9) == -72
    assert hg.euler_blowup_curve(4, 3) == 0
    assert hg.euler_blowup_curve(11, 1) == 11


# --- relative cohomology ranks -----------------------------------------------


def test_lg_relative_ranks():
    assert hg.lg_relative_ranks(hg.projective_space_diamond(3)) == [0, 0, 0, 4, 0, 0, 0]
    assert hg.lg_relative_ranks(hg.quasi_fano_threefold_diamond(1, 30)) == \
        [0, 0, 30, 4, 30, 0, 0]
    # Only h^{0,0} nonzero: the middle rank is 1 and everything else vanishes.
    minimal = hg.HodgeDiamond(3, {(0, 0): 1}, kaehler=False)
    assert hg.lg_relative_ranks(minimal) == [0, 0, 0, 1, 0, 0, 0]


def test_mirror_check_symmetric():
    v = hg.cy_threefold_diamond(3, 61)
    w = hg.cy_threefold_diamond(61, 3)
    assert hg.mirror_dual_check(v, w).passed
    assert hg.mirror_dual_check(w, v).passed
    assert hg.euler_char(v) == -hg.euler_char(w)


def test_h2w_formula_and_ell_plus_k():
    assert hg.h2w_formula(30, 30, 19) == 80
    assert hg.ell_plus_k_check(19, 1).passed
    verdict = hg.ell_plus_k_check(10, 9)
    assert not verdict.passed and "19" in verdict.detail


# --- fibre catalog -----------------------------------------------------------


@pytest.mark.parametrize("tag,count", [
    ("I1", 1), ("I12", 12), ("I18", 18),
    ("I0*", 5), ("I6*", 11), ("I12*", 17),
    ("II", 1), ("III", 2), ("IV", 3), ("IV*", 7), ("III*", 8), ("II*", 9),
    ("I0", 1), ("I_odp", 1), ("II_3f", 11), ("IV_3f", 31),
    ("I1^Delta", 4), ("I2^Delta", 10), ("I3^Delta", 20), ("I8^Delta", 130),
])
def test_fibre_components_catalog(tag, count):
    assert hg.fibre_components(tag) == count


@pytest.mark.parametrize("n", range(1, 13))
def test_star_minus_plain_is_five(n):
    assert hg.fibre_components(f"I{n}*") - hg.fibre_components(f"I{n}") == 5


def test_fibre_components_unknown():
    with pytest.raises(errors.UnknownType):
        hg.fibre_components("V*")
    with pytest.raises(errors.UnknownType):
        hg.fibre_components("I-3")


# \d once matched the Arabic-Indic 3, read as 3 by int(), and $ matched
# before a trailing newline.
@pytest.mark.parametrize("tag", ["I\u0663", "I\u0663*", "I\u0663^Delta", "I3\n", "I3*\n"])
def test_fibre_subscripts_are_ascii_digits(tag):
    with pytest.raises(errors.UnknownType):
        hg.fibre_components(tag)


# --- Picard counts -----------------------------------------------------------


def test_picard_from_fibration_quartic_family():
    desc = hg.FibrationDescriptor.from_tags(
        ["IV_3f", "IV_3f", "I2^Delta", "I_odp", "I_odp"], ell=19)
    assert hg.picard_from_fibration(desc) == 89


def test_picard_all_irreducible():
    desc = hg.FibrationDescriptor.from_tags(["I_odp"] * 4, ell=19)
    assert hg.picard_from_fibration(desc) == 20


def test_picard_elliptic_k3():
    # Section-plus-fibre convention for elliptic K3 surfaces: ell = 1.
    desc = hg.FibrationDescriptor.from_tags(["I18"] + ["I1"] * 6, ell=1)
    assert hg.picard_from_fibration(desc) == 19


# --- slicing fixtures --------------------------------------------------------


def _sliced(tags, slices):
    desc = hg.FibrationDescriptor.from_tags(tags, ell=1)
    return hg.SlicedFibration(desc, tuple(tuple(s) for s in slices))


SLICING_CASES = [
    # (tags, slices, components, double_curves, L_rank, picard)
    (["I12*"] + ["I1"] * 6, [[0], [1, 2, 3, 4, 5, 6]], [17, 1], 1, 2, 18),
    (["II*", "II*"] + ["I1"] * 4, [[0, 2, 3], [1, 4, 5]], [9, 9], 1, 2, 18),
    (["I12*", "I2"] + ["I1"] * 4, [[0, 2, 3, 4, 5], [1]], [17, 2], 1, 1, 19),
    (["I6*", "III*"] + ["I1"] * 3, [[0, 2, 3, 4], [1]], [11, 8], 1, 1, 19),
    (["I18"] + ["I1"] * 6, [[0, 1, 2, 3, 4, 5, 6]], [18], 0, 1, 19),
    (["II*", "I2", "II*"] + ["I1"] * 2, [[0, 3], [1], [2, 4]], [9, 2, 9], 2, 1, 19),
]


@pytest.mark.parametrize("tags,slices,components,dc,l_rank,picard", SLICING_CASES)
def test_slicing_catalog(tags, slices, components, dc, l_rank, picard):
    sliced = _sliced(tags, slices)
    deg = hg.TypeIIDegeneration(tuple(components), dc, l_rank)
    assert hg.slicing_check(sliced, deg).passed
    # Shioda-Tate consistency: the same fibres give the mirror Picard rank
    # 20 - L_rank.
    assert hg.picard_from_fibration(sliced.descriptor) == picard == 20 - l_rank


def test_slicing_detects_wrong_counts():
    sliced = _sliced(["I12*"] + ["I1"] * 6, [[0], [1, 2, 3, 4, 5, 6]])
    deg = hg.TypeIIDegeneration((16, 2), 1, 2)
    assert not hg.slicing_check(sliced, deg).passed


def test_slicing_shape_mismatch():
    sliced = _sliced(["I12*"] + ["I1"] * 6, [[0], [1, 2, 3, 4, 5, 6]])
    with pytest.raises(errors.ShapeMismatch):
        hg.slicing_check(sliced, hg.TypeIIDegeneration((17, 1, 1), 2, 2))
    with pytest.raises(errors.ShapeMismatch):
        hg.TypeIIDegeneration((17, 1), 0, 2)
    with pytest.raises(errors.ShapeMismatch):
        _sliced(["I2", "I2"], [[0], [0, 1]])


def test_picard_invariant_under_slicing():
    tags = ["II*", "I2", "II*", "I1", "I1"]
    a = _sliced(tags, [[0, 3], [1], [2, 4]])
    b = _sliced(tags, [[0], [1, 3, 4], [2]])
    assert hg.picard_from_fibration(a.descriptor) == hg.picard_from_fibration(b.descriptor)


# --- limit mixed Hodge structure tables --------------------------------------


def test_lmhs_table_shapes():
    assert hg.lmhs_table(19, 69) == ((1, 19, 1, 0), (0, 69, 69, 0), (0, 1, 19, 1))
    assert hg.lmhs_table(0, 0) == ((1, 0, 1, 0), (0, 0, 0, 0), (0, 1, 0, 1))


def test_lmhs_mirror_match():
    assert hg.lmhs_mirror_match(hg.lmhs_table(19, 69), hg.lmhs_table(19, 69)).passed
    assert not hg.lmhs_mirror_match(hg.lmhs_table(19, 69), hg.lmhs_table(19, 68)).passed


# --- conjecture report -------------------------------------------------------


def test_conjecture_report_product_of_lines():
    clauses = hg.conjecture318_report(2, 2, 12, 4, 4, 3, 12)
    by_name = {c.name: c for c in clauses}
    assert by_name["rho_[1:0]"].status == "PASS"
    assert by_name["rho_[1:1]"].status == "PASS"
    assert by_name["rho_[0:1]"].status == "PASS"
    assert by_name["semistable_fibre"].status == "UNVERIFIABLE"
    assert by_name["other_fibres_irreducible"].status == "UNVERIFIABLE"


def test_conjecture_report_degree_two():
    clauses = hg.conjecture318_report(1, 1, 18, 2, 2, 2, 18)
    assert all(c.status != "FAIL" for c in clauses)


def test_conjecture_report_failure_named():
    clauses = hg.conjecture318_report(3, 2, 12, 4, 4, 3, 12)
    by_name = {c.name: c for c in clauses}
    assert by_name["rho_[1:0]"].status == "FAIL"
