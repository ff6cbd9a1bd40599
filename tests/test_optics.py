"""Linear optics: waveplates, splitter algebra, symmetric post-selection."""

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
    hwp0,
    mode_id,
    one_photon,
    photon_space,
    polarization_singlet,
    qwp_relabel,
    symmetric_project,
)
from clonesim.qstate import inner, tensor


def _pair(pol_a, pol_b):
    return tensor(one_photon(PATH_A, {pol_a: 1.0}),
                  one_photon(PATH_B, {pol_b: 1.0}))


def _occ(label, path, pol):
    return int(label.level(mode_id(path, pol)))


# --- waveplates -----------------------------------------------------------


def test_qwp_moves_circular_to_linear():
    s = one_photon(PATH_A, {"L": 0.6, "R": 0.8j}, pols=("L", "R"))
    out = qwp_relabel(s, PATH_A)
    expect = one_photon(PATH_A, {"H": 0.6, "V": 0.8j})
    assert inner(expect, out) == pytest.approx(1.0, abs=1e-15)


def test_hwp0_flips_v_sign_only():
    s = one_photon(PATH_A, {"H": 0.6, "V": 0.8})
    out = hwp0(s, PATH_A)
    expect = one_photon(PATH_A, {"H": 0.6, "V": -0.8})
    assert inner(expect, out) == pytest.approx(1.0, abs=1e-15)
    # involution
    assert inner(s, hwp0(out, PATH_A)) == pytest.approx(1.0, abs=1e-15)


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


def test_projection_probability_of_triplet_is_one():
    sym = (_pair("H", "V") + _pair("V", "H")) * (1 / math.sqrt(2))
    out = symmetric_project(sym)
    assert out.probability == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_empty_path():
    from clonesim.qstate import basis_state
    sp = photon_space([PATH_A, PATH_B])
    bad = basis_state(sp, {
        mode_id(PATH_A, "H"): "1", mode_id(PATH_A, "V"): "0",
        mode_id(PATH_B, "H"): "0", mode_id(PATH_B, "V"): "0",
    })
    with pytest.raises(ValueError):
        symmetric_project(bad)


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
    assert rep.p_arm_primary == pytest.approx(rep.p_arm_mirror, abs=1e-12)
    assert rep.p_arm_primary + rep.p_arm_mirror == pytest.approx(rep.p_coincidence, abs=1e-12)


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
        assert rho.entry(r, c) == pytest.approx(expect, abs=1e-12)


def test_one_photon_rejects_unknown_polarization():
    with pytest.raises(ValueError):
        one_photon(PATH_A, {"X": 1.0})
