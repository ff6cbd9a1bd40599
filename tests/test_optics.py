"""Linear optics: the photon pair, splitter algebra, symmetric post-selection."""

import math
from itertools import product

import numpy as np
import pytest

from clonesim.optics import (
    OUT_3,
    OUT_4,
    PATH_A,
    PATH_B,
    POLS,
    beamsplitter,
    detection_bookkeeping,
    mode_id,
    one_photon,
    photon_pair,
    photon_space,
    polarization_singlet,
    symmetric_project,
)
from clonesim.qstate import MAX_DM_DIM, Space, StateVector, tensor


def _pair(pol_a, pol_b):
    return tensor(one_photon(PATH_A, {pol_a: 1.0}),
                  one_photon(PATH_B, {pol_b: 1.0}))


def _occ(label, path, pol):
    return int(label.level(mode_id(path, pol)))


# --- the photon pair --------------------------------------------------------


def test_photon_pair_refuses_an_array_of_the_wrong_size():
    atom = (("atomB", ("gL", "gR")),)
    assert photon_pair(np.ones((2, 2, 2)), atom).space.dim == 32
    for x, riders in ((np.ones(4), atom), (np.ones(8), ()), (np.ones(3), ())):
        with pytest.raises(ValueError, match="pair amplitudes"):
            photon_pair(x, riders)


# --- beam splitter --------------------------------------------------------


def test_beamsplitter_preserves_norm():
    rng = np.random.default_rng(3)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c[:2] /= np.linalg.norm(c[:2])
    c[2:] /= np.linalg.norm(c[2:])
    s = tensor(one_photon(PATH_A, {"H": c[0], "V": c[1]}),
               one_photon(PATH_B, {"H": c[2], "V": c[3]}))
    out = beamsplitter(s, PATH_A, PATH_B)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_is_its_own_inverse():
    s = tensor(one_photon(PATH_A, {"H": 0.6, "V": 0.8}),
               one_photon(PATH_B, {"H": 1 / math.sqrt(2), "V": 1j / math.sqrt(2)}))
    twice = beamsplitter(beamsplitter(s, PATH_A, PATH_B), PATH_A, PATH_B)
    # output space carries the transient occupation alphabet; match labels directly
    ov = sum(amp.conjugate() * s.amps.get(label, 0.0) for label, amp in twice.amps.items())
    assert abs(ov) == pytest.approx(1.0, abs=1e-12)
    assert twice.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_hom_bunching_same_polarization():
    """Two identical photons leave through the same port: no cross terms."""
    out = beamsplitter(_pair("H", "H"), PATH_A, PATH_B)
    bunched = 0.0
    for label, amp in out.amps.items():
        na = _occ(label, PATH_A, "H") + _occ(label, PATH_A, "V")
        nb = _occ(label, PATH_B, "H") + _occ(label, PATH_B, "V")
        if na == 1 and nb == 1:
            assert abs(amp) < 1e-12
        else:
            bunched += abs(amp) ** 2
    assert bunched == pytest.approx(1.0, abs=1e-12)
    # the two-photon amplitudes carry the bosonic minus between |2,0> and |0,2>
    amp20 = next(amp for label, amp in out.amps.items() if _occ(label, PATH_A, "H") == 2)
    amp02 = next(amp for label, amp in out.amps.items() if _occ(label, PATH_B, "H") == 2)
    assert amp20 == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert amp02 == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


def test_orthogonal_photons_do_not_bunch():
    out = beamsplitter(_pair("H", "V"), PATH_A, PATH_B)
    coinc = sum(abs(amp) ** 2 for label, amp in out.amps.items()
                if _occ(label, PATH_A, "H") + _occ(label, PATH_A, "V") == 1)
    assert coinc == pytest.approx(0.5, abs=1e-12)


# --- symmetric projection -------------------------------------------------


@pytest.mark.parametrize("pol_a,pol_b,expected", [
    ("H", "H", {("H", "H"): 1.0}),
    ("H", "V", {("H", "V"): 0.5, ("V", "H"): 0.5}),
    ("V", "H", {("H", "V"): 0.5, ("V", "H"): 0.5}),
    ("V", "V", {("V", "V"): 1.0}),
])
def test_projection_table(pol_a, pol_b, expected):
    out = symmetric_project(_pair(pol_a, pol_b))
    got = {}
    for label, amp in out.raw_amplitudes.items():
        p3 = "H" if _occ(label, OUT_3, "H") else "V"
        p4 = "H" if _occ(label, OUT_4, "H") else "V"
        got[(p3, p4)] = amp
    assert got == expected


def test_singlet_projection_is_heralded_failure():
    out = symmetric_project(polarization_singlet())
    assert out.projected_state is None
    assert out.probability == 0.0


def test_nan_pair_is_an_error_not_a_heralded_failure():
    # normalize refuses a nan norm with a plain ValueError, which
    # symmetric_project does not catch as a failed herald
    with pytest.raises(ValueError, match="nan"):
        symmetric_project(photon_pair([[0.0, math.nan], [1.0, 0.0]]))


def test_projection_probability_of_triplet_is_one():
    sym = (_pair("H", "V") + _pair("V", "H")) * (1 / math.sqrt(2))
    out = symmetric_project(sym)
    assert out.probability == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_empty_path():
    sp = photon_space([PATH_A, PATH_B])
    bad = StateVector(sp, {sp.label({
        mode_id(PATH_A, "H"): "1", mode_id(PATH_A, "V"): "0",
        mode_id(PATH_B, "H"): "0", mode_id(PATH_B, "V"): "0",
    }): 1.0})
    with pytest.raises(ValueError):
        symmetric_project(bad)


def _pair_on(space, amps):
    """sum amps[(p, q)] |A:p>|B:q> on a photon space of any occupation alphabet."""
    return StateVector(space, {space.label({
        mode_id(path, pol): "1" if pol == want else "0"
        for path, want in ((PATH_A, p), (PATH_B, q)) for pol in POLS}): amp
        for (p, q), amp in amps.items()})


@pytest.mark.parametrize("route", [symmetric_project, detection_bookkeeping])
@pytest.mark.parametrize("leak", [1e-7, 1e-3])
def test_routes_refuse_any_out_of_sector_amplitude(route, leak):
    # weights 1e-14 and 1e-6 on a label whose path A holds no photon: no
    # weight outside the one-photon-per-path sector is tolerated
    sp = photon_space([PATH_A, PATH_B])
    empty_a = sp.label({mode_id(PATH_A, "H"): "0", mode_id(PATH_A, "V"): "0",
                        mode_id(PATH_B, "H"): "1", mode_id(PATH_B, "V"): "0"})
    s = StateVector(sp, {**_pair("H", "V").amps, empty_a: leak})
    with pytest.raises(ValueError):
        route(s)


@pytest.mark.parametrize("route", [symmetric_project, detection_bookkeeping])
def test_wider_occupation_alphabet_changes_nothing(route):
    amps = {("H", "H"): 0.3, ("H", "V"): 0.5j, ("V", "H"): -0.4, ("V", "V"): 0.2 - 0.1j}
    wide = photon_space([PATH_A, PATH_B], occ=("0", "1", "2"))
    narrow_out = route(_pair_on(photon_space([PATH_A, PATH_B]), amps))
    wide_out = route(_pair_on(wide, amps))
    if route is symmetric_project:
        assert wide_out.probability == narrow_out.probability
        assert wide_out.raw_amplitudes == narrow_out.raw_amplitudes
        assert wide_out.projected_state.amps == narrow_out.projected_state.amps
    else:
        assert wide_out.p_coincidence == narrow_out.p_coincidence
        assert wide_out.count_distribution == narrow_out.count_distribution
        assert np.array_equal(wide_out.rho_conditional.matrix, narrow_out.rho_conditional.matrix)
    # a doubly occupied mode lies outside the sector
    bunched = wide.label({mode_id(PATH_A, "H"): "2", mode_id(PATH_A, "V"): "0",
                          mode_id(PATH_B, "H"): "0", mode_id(PATH_B, "V"): "0"})
    with pytest.raises(ValueError):
        route(StateVector(wide, {**_pair_on(wide, amps).amps, bunched: 0.1}))


def _with_rider(levels):
    rider = Space((("m", tuple(str(n) for n in range(levels))),))
    return tensor(_pair("H", "V"), StateVector(rider, {rider.label({"m": "7"}): 1.0}))


def test_rider_of_dimension_128_fills_the_cap():
    # the joint space has 16 x 128 = 2,048 labels, above MAX_DM_DIM, but the
    # one-photon-per-path sector only 4 x 128 = 512
    s = _with_rider(128)
    assert s.space.dim > MAX_DM_DIM
    assert symmetric_project(s).probability == pytest.approx(0.5, abs=1e-12)
    rep = detection_bookkeeping(s)
    assert rep.p_coincidence == pytest.approx(0.25, abs=1e-12)
    assert rep.rho_conditional.space.dim == MAX_DM_DIM
    assert rep.rho_conditional.trace() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("route", [symmetric_project, detection_bookkeeping])
def test_sector_above_the_cap_is_refused(route):
    with pytest.raises(ValueError, match="exceeds the cap"):
        route(_with_rider(129))


# --- coincidence bookkeeping ----------------------------------------------


def test_count_distribution_is_normalized():
    rep = detection_bookkeeping(_pair("H", "V"))
    assert sum(rep.count_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert rep.rho_conditional.trace() == pytest.approx(1.0, abs=1e-12)


def test_coincidence_rate_tracks_symmetric_weight():
    # p_coinc = |c|^2 <P_sym>/2 + (1 - |c|^2)/4, exercised at three overlaps
    state = _pair("H", "V")     # <P_sym> = 1/2
    for c, expect in ((1.0, 0.25), (0.0, 0.25), (math.sqrt(0.5), 0.25)):
        rep = detection_bookkeeping(state, overlap_c=c)
        assert rep.p_coincidence == pytest.approx(expect, abs=1e-12)

    sym = (_pair("H", "V") + _pair("V", "H")) * (1 / math.sqrt(2))   # <P_sym> = 1
    for c, expect in ((1.0, 0.5), (0.0, 0.25), (math.sqrt(0.5), 0.375)):
        rep = detection_bookkeeping(sym, overlap_c=c)
        assert rep.p_coincidence == pytest.approx(expect, abs=1e-12)

    anti = polarization_singlet()                                    # <P_sym> = 0
    for c, expect in ((1.0, 0.0), (0.0, 0.25)):
        rep = detection_bookkeeping(anti, overlap_c=c)
        assert rep.p_coincidence == pytest.approx(expect, abs=1e-12)


def test_singlet_counts_hold_no_zero_patterns():
    # the antisymmetric pair always splits between the arms: the bunched and
    # same-arm patterns cancel exactly and must not appear as 0.0 entries
    rep = detection_bookkeeping(polarization_singlet())
    cross = {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
    assert set(rep.count_distribution) == cross
    for p in rep.count_distribution.values():
        assert p == pytest.approx(0.25, abs=1e-12)
    assert rep.p_coincidence == 0
    assert rep.rho_conditional is None


def test_visibility_definition():
    sym = (_pair("H", "V") + _pair("V", "H")) * (1 / math.sqrt(2))
    rep = detection_bookkeeping(sym, overlap_c=math.sqrt(0.5))
    assert rep.visibility == pytest.approx(0.5, abs=1e-12)


def test_overlap_magnitude_above_one_is_rejected():
    with pytest.raises(ValueError):
        detection_bookkeeping(_pair("H", "V"), overlap_c=1.0 + 1e-6)


def test_arm_split_is_symmetric():
    sym = (_pair("H", "V") + _pair("V", "H")) * (1 / math.sqrt(2))
    rep = detection_bookkeeping(sym)
    primary = rep.count_distribution[(1, 1, 0, 0)]
    mirror = rep.count_distribution[(0, 0, 1, 1)]
    assert primary == pytest.approx(mirror, abs=1e-12)
    assert primary + mirror == pytest.approx(rep.p_coincidence, abs=1e-12)


# --- representation -------------------------------------------------------


def test_dualrail_collapse_roundtrip():
    # a symmetric pair passes the herald unchanged, collapsed from dual-rail
    # modes onto the polarization qubits ph3, ph4
    amps = {"H": 0.6, "V": 0.8}
    s = tensor(one_photon(PATH_A, amps), one_photon(PATH_B, amps))
    rho = detection_bookkeeping(s).rho_conditional
    assert set(rho.space.ids) == {"ph3", "ph4"}
    pairs = list(product(POLS, POLS))
    for (p3, p4), (q3, q4) in product(pairs, pairs):
        r = rho.space.label({"ph3": p3, "ph4": p4})
        c = rho.space.label({"ph3": q3, "ph4": q4})
        expect = amps[p3] * amps[p4] * amps[q3] * amps[q4]
        assert rho.entries.get((r, c), 0.0) == pytest.approx(expect, abs=1e-12)


def test_one_photon_rejects_unknown_polarization():
    with pytest.raises(ValueError):
        one_photon(PATH_A, {"X": 1.0})
