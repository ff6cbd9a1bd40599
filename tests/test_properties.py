"""Property tests: invariants over generated inputs rather than fixed examples."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from clonesim.adiabatic import (
    PulseSchedule,
    Side,
    SystemParams,
    _parts,
    dark_state,
)
from clonesim.cloner import InputQubit
import clonesim
from clonesim.config import KEY_TABLE, ConfigError, settings_from_values, values_from_text
from clonesim import optics
from clonesim.optics import PATH_A, PATH_B, POLS, beamsplitter, detection_bookkeeping, one_photon
from clonesim import protocol
from clonesim.protocol import (
    DetectorParams,
    ProtocolConfig,
    assemble_joint,
    detector_model,
    run_analytic,
)
from clonesim.qstate import (
    BasisLabel,
    DensityMatrix,
    Space,
    StateVector,
    _fidelity,
    fidelity_pure,
    inner,
    partial_trace,
    tensor,
)
from full_node import remote_dark_state, remote_h_eff, source_dark_states, source_h_eff

amplitude = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _pair_state(c) -> StateVector:
    """sum_pq c_pq |A:p>|B:q>, one photon per path, any (entangled) amplitudes."""
    terms = [tensor(one_photon(PATH_A, {p: 1.0}), one_photon(PATH_B, {q: 1.0})) * c_pq
             for (p, q), c_pq in zip([(p, q) for p in POLS for q in POLS], c)]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


@given(st.lists(amplitude, min_size=4, max_size=4))
def test_beamsplitter_preserves_norm_and_is_an_involution(c):
    # matrix [[1, 1], [1, -1]]/sqrt(2): unitary and its own inverse
    s = _pair_state(c)
    out = beamsplitter(s, PATH_A, PATH_B)
    assert out.norm_sq() == pytest.approx(s.norm_sq(), rel=1e-12, abs=1e-12)
    twice = {label.factors: amp for label, amp in beamsplitter(out, PATH_A, PATH_B).amps.items()}
    start = {label.factors: amp for label, amp in s.amps.items()}
    for key in twice.keys() | start.keys():
        assert twice.get(key, 0.0) == pytest.approx(start.get(key, 0.0), abs=1e-12)


@given(st.lists(amplitude, min_size=4, max_size=4),
       st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_count_distribution_carries_the_input_norm(c, overlap):
    s = _pair_state(c)
    if s.norm_sq() < 1e-6:
        return
    rep = detection_bookkeeping(s, overlap)
    # pattern weights sum to the input norm^2; the report divides by it
    assert sum(rep.count_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= rep.p_coincidence <= 1.0 + 1e-12


_ATOM = Space((("atomB", ("gL", "gR")),))


def _pair_with_atom(c) -> StateVector:
    """sum_pqx c_pqx |A:p>|B:q>|atomB:x>: the photon pair entangled with a rider."""
    terms = []
    for x, cs in zip(("gL", "gR"), (c[:4], c[4:])):
        atom = StateVector(_ATOM, {_ATOM.label({"atomB": x}): 1.0})
        terms.append(tensor(_pair_state(cs), atom))
    return terms[0] + terms[1]


def _heralded(rep) -> dict:
    """p_coincidence * rho_conditional: the unnormalized heralded state."""
    if rep.rho_conditional is None:
        return {}
    return {k: rep.p_coincidence * v for k, v in rep.rho_conditional.entries.items()}


@given(st.lists(amplitude, min_size=8, max_size=8),
       st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_partial_distinguishability_mixes_the_two_limits(c, overlap):
    # photon B's t0 and t1 tags never interfere, so every pattern weight and
    # the heralded state are |c|^2 (indistinguishable) + (1 - |c|^2) (distinguishable)
    s = _pair_with_atom(c)
    assume(s.norm_sq() > 1e-6)
    v = min(abs(overlap) ** 2, 1.0)
    mixed, same, apart = (detection_bookkeeping(s, x) for x in (overlap, 1.0, 0.0))
    for pat in mixed.count_distribution.keys() | same.count_distribution.keys() \
            | apart.count_distribution.keys():
        expect = (v * same.count_distribution.get(pat, 0.0)
                  + (1.0 - v) * apart.count_distribution.get(pat, 0.0))
        assert mixed.count_distribution.get(pat, 0.0) == pytest.approx(expect, abs=1e-14)
    h_mixed, h_same, h_apart = _heralded(mixed), _heralded(same), _heralded(apart)
    for key in h_mixed.keys() | h_same.keys() | h_apart.keys():
        expect = v * h_same.get(key, 0.0) + (1.0 - v) * h_apart.get(key, 0.0)
        assert abs(h_mixed.get(key, 0.0) - expect) <= 1e-14


def test_detection_route_never_calls_the_projection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the operational route called symmetric_project")

    monkeypatch.setattr(optics, "symmetric_project", refuse)
    s = _pair_with_atom([0.3, 0.5j, -0.2, 0.4, 0.1, -0.6, 0.2j, 0.3])
    rep = detection_bookkeeping(s, 0.8 + 0.3j)
    assert sum(rep.count_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert rep.rho_conditional.trace() == pytest.approx(1.0, abs=1e-12)


# per-photon detector amplitudes (D1, D2, D1', D2') of the coincidence network
_UA = (0.5, 0.5, 0.5, 0.5)
_UB = (-0.5, -0.5, 0.5, 0.5)
_COINC = ((1, 1, 0, 0), (0, 0, 1, 1))
_RIDER_SETS = (
    (),
    (("atomB", ("gL", "gR")),),
    (("atomB", ("gL", "gR")), ("zz", ("0", "1", "2"))),     # zz sorts after ph4
)


def _pair_with_riders(x, riders) -> StateVector:
    """sum x[p, q, r] |A:p>|B:q>|r>, r running over the riders' levels in canonical order."""
    space = Space(riders)
    out = None
    for (p, q, *levels), amp in zip(product(POLS, POLS, *(a for _, a in riders)), x.ravel()):
        term = tensor(one_photon(PATH_A, {p: 1.0}), one_photon(PATH_B, {q: 1.0}))
        if riders:
            rider = space.label(dict(zip((sid for sid, _ in riders), levels)))
            term = tensor(term, StateVector(space, {rider: 1.0}))
        out = term * amp if out is None else out + term * amp
    return out


def _reference_detection(x, overlap):
    """Pattern weights and heralded state from the two-photon permanent, term by term.

    Photon A (tag t0) in polarization p reaches detector d with _UA[d];
    photon B in q reaches e with _UB[e], on tag t0 with weight c and on t1
    with sqrt(1 - |c|^2).  A Fock term {(d, p, t0), (e, q, tag)} sums every
    assignment of the two photons to its two modes, times sqrt(2) when they
    are one mode.  Heralded columns are grouped by (arm, tag at D1, tag at D2).
    """
    c = complex(overlap)
    weights = (("t0", c), ("t1", math.sqrt(max(0.0, 1.0 - abs(c) ** 2))))
    fock: dict = {}
    for d, e, p, q, r in product(range(4), range(4), range(2), range(2), range(x.shape[2])):
        for tag, w in weights:
            key = (tuple(sorted([(d, p, "t0"), (e, q, tag)])), r)
            fock[key] = fock.get(key, 0.0) + w * x[p, q, r] * _UA[d] * _UB[e]
    dist: dict = {}
    columns: dict = {}
    for (modes, r), amp in fock.items():
        if modes[0] == modes[1]:
            amp *= math.sqrt(2.0)
        pattern = tuple(sum(m[0] == f for m in modes) for f in range(4))
        dist[pattern] = dist.get(pattern, 0.0) + abs(amp) ** 2
        if pattern in _COINC:
            (d, p3, t3), (_, p4, t4) = modes
            columns.setdefault((d, t3, t4), {})[(p3, p4, r)] = amp
    heralded: dict = {}
    for col in columns.values():
        for row, a in col.items():
            for other, b in col.items():
                heralded[(row, other)] = heralded.get((row, other), 0.0) + a * b.conjugate()
    return {k: v for k, v in dist.items() if v != 0.0}, heralded


_sector_amplitude = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False, allow_infinity=False))


@given(st.sampled_from(_RIDER_SETS), st.lists(_sector_amplitude, min_size=24, max_size=24),
       st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_detection_matches_the_permanent_written_out(riders, amps, overlap):
    rest = math.prod(len(alpha) for _, alpha in riders)
    x = np.array(amps[:4 * rest]).reshape(2, 2, rest)
    norm = np.vdot(x, x).real
    assume(norm > 1e-6)
    x = x / math.sqrt(norm)
    rep = detection_bookkeeping(_pair_with_riders(x, riders), overlap)
    dist, heralded = _reference_detection(x, overlap)
    assert set(rep.count_distribution) == set(dist)
    for pat, p in dist.items():
        assert rep.count_distribution[pat] == pytest.approx(p, abs=1e-12)
    p_coinc = sum(dist.get(pat, 0.0) for pat in _COINC)
    assert rep.p_coincidence == pytest.approx(p_coinc, abs=1e-12)
    if rep.rho_conditional is None:
        assert p_coinc < 1e-12
        return
    levels = list(product(*(alpha for _, alpha in riders)))
    space = rep.rho_conditional.space

    def label(p3, p4, r):
        return space.label({"ph3": POLS[p3], "ph4": POLS[p4],
                            **dict(zip((sid for sid, _ in riders), levels[r]))})

    expect = {(label(*row), label(*col)): v for (row, col), v in heralded.items()}
    got = rep.rho_conditional.entries
    for key in expect.keys() | got.keys():
        # the heralded (unnormalized) state, and the state itself where the
        # herald is not rare enough to magnify rounding
        assert rep.p_coincidence * got.get(key, 0.0) == pytest.approx(
            expect.get(key, 0.0), abs=1e-12)
        if p_coinc > 1e-3:
            assert got.get(key, 0.0) == pytest.approx(expect.get(key, 0.0) / p_coinc, abs=1e-12)


@given(st.sampled_from(_RIDER_SETS), st.lists(_sector_amplitude, min_size=24, max_size=24))
def test_photon_pair_labels_the_array_as_the_tensor_chain_does(riders, amps):
    rest = math.prod(len(alpha) for _, alpha in riders)
    x = np.array(amps[:4 * rest], dtype=complex).reshape(2, 2, rest)
    pair = optics.photon_pair(x, riders)
    chain = _pair_with_riders(x, riders)
    # same space, vector, labels, amplitudes and order of the non-zero labels
    assert pair.space == chain.space
    assert np.array_equal(pair.vector, chain.vector)
    assert list(pair.amps.items()) == list(chain.amps.items())
    # the sector positions both routes read give x back
    assert np.array_equal(pair.vector[optics._pair_plan(pair.space).sector], x.ravel())


@given(st.sampled_from(list(Side)),
       st.floats(-50.0, 50.0), st.floats(0.01, 50.0), st.floats(0.01, 50.0))
def test_table_hamiltonian_is_hermitian_and_dark_states_are_null(side, delta, g, omega):
    # the block evolve integrates, and the full node it stands for
    p = SystemParams(side=side, g=g, gamma=0.0, delta=delta)
    sched = PulseSchedule(omega_max=omega, t_total=10.0)
    static, drive, cavity = _parts(p)
    if side is Side.ALICE:
        full_h, full_dark = source_h_eff, source_dark_states
    else:
        full_h, full_dark = remote_h_eff, lambda om, g: (remote_dark_state(om, g),)
    for t in (0.3 * sched.t_ramp, sched.t_ramp):
        om = sched.value(t)
        for h, darks in ((static + om * drive + p.g_at(t) * cavity, [dark_state(p, sched, t)]),
                         (full_h(om, g, delta), full_dark(om, g))):
            assert np.array_equal(h, h.conj().T)
            for d in darks:
                assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(h @ d) ** 2 <= 1e-24 * (1.0 + g + omega) ** 2


@given(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3),
       st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8))
def test_unmodulated_coupling_is_exactly_g(g, nu, ts):
    # with epsilon = 0 the modulation formula g (1 + 0 sin(nu t)) gives g
    # bit for bit, at a scalar time and on an array of times
    p = SystemParams(g=g, nu=nu)
    assert p.g_at(ts[0]) == g
    assert np.array_equal(p.g_at(np.array(ts)), np.full(len(ts), g))


_SPACE = Space((("a", ("0", "1", "2")), ("b", ("0", "1")), ("c", ("x", "y"))))


@given(st.lists(amplitude, min_size=_SPACE.dim, max_size=_SPACE.dim),
       st.sets(st.sampled_from(_SPACE.ids), min_size=1))
def test_partial_trace_keeps_the_norm(amps, keep):
    s = StateVector(_SPACE, dict(zip(_SPACE.labels(), amps)))
    n2 = s.norm_sq()
    assert partial_trace(s, keep).trace() == pytest.approx(n2, rel=1e-12, abs=1e-12)
    rho = DensityMatrix.from_pure(s)
    assert partial_trace(rho, keep).trace() == pytest.approx(n2, rel=1e-12, abs=1e-12)


def _trace_by_id(pairs, keep) -> dict:
    """Reference partial trace: split each label by subsystem id, factor by factor.

    ``pairs`` yields (row, col, value); the result maps (kept row factors,
    kept col factors) to the summed value over rows and columns whose traced
    factors agree.
    """
    out: dict = {}
    for r, c, v in pairs:
        kr = tuple(f for f in r.factors if f[0] in keep)
        kc = tuple(f for f in c.factors if f[0] in keep)
        if [f for f in r.factors if f[0] not in keep] == [f for f in c.factors if f[0] not in keep]:
            out[(kr, kc)] = out.get((kr, kc), 0.0) + v
    return out


@st.composite
def _space_state_keep(draw):
    """A random space, sparse amplitudes on it, and a non-empty kept id set.

    Ids are letters, so kept and traced subsystems interleave in the
    canonical order whenever the kept set is not a prefix or suffix.
    """
    ids = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True))
    subsystems = tuple((sid, tuple(str(n) for n in range(draw(st.integers(1, 3)))))
                       for sid in ids)
    space = Space(subsystems)
    labels = list(space.labels())
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels), unique=True))
    amps = {label: draw(amplitude) for label in chosen}
    keep = draw(st.sets(st.sampled_from(space.ids), min_size=1))
    return space, amps, keep


def _assert_matches(rho: DensityMatrix, expect: dict):
    got = {(r.factors, c.factors): v for (r, c), v in rho.entries.items()}
    for key in got.keys() | expect.keys():
        assert got.get(key, 0.0) == pytest.approx(expect.get(key, 0.0), rel=1e-12, abs=1e-12)


@given(_space_state_keep())
def test_partial_trace_matches_a_split_by_subsystem_id(case):
    space, amps, keep = case
    s = StateVector(space, amps)
    pure = [(r, c, ar * ac.conjugate()) for r, ar in s.amps.items() for c, ac in s.amps.items()]
    rho = partial_trace(s, keep)
    assert rho.space == space.subspace(keep)
    _assert_matches(rho, _trace_by_id(pure, keep))
    _assert_matches(partial_trace(DensityMatrix.from_pure(s), keep), _trace_by_id(pure, keep))
    # a matrix that is not a pure projector: every (row, col) of the support
    mixed = DensityMatrix(space, {(r, c): ar * ac for r, ar in amps.items()
                                  for c, ac in amps.items()})
    _assert_matches(partial_trace(mixed, keep),
                    _trace_by_id(((r, c, v) for (r, c), v in mixed.entries.items()), keep))


@given(_space_state_keep())
def test_pure_matrix_reduces_like_its_ket(case):
    # the matrix route (reshape + einsum) against the ket route (an einsum
    # of the vector with its conjugate)
    space, amps, keep = case
    s = StateVector(space, amps)
    via_ket = partial_trace(s, keep)
    via_matrix = partial_trace(DensityMatrix.from_pure(s), keep)
    assert via_matrix.space == via_ket.space
    np.testing.assert_allclose(via_matrix.matrix, via_ket.matrix, rtol=0, atol=1e-12)


@given(_space_state_keep(), st.data())
def test_density_matrix_entries_round_trip(case, data):
    # any sparse entry map, zeros included, comes back as its non-zero
    # entries in canonical (row, column) order
    space, _, _ = case
    labels = list(space.labels())
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                               unique=True, max_size=12))
    given_entries = {pair: data.draw(st.one_of(st.just(0j), amplitude)) for pair in pairs}
    entries = DensityMatrix(space, given_entries).entries
    index = {label: i for i, label in enumerate(space.labels())}
    expect = [((r, c), complex(v)) for (r, c), v in given_entries.items() if v != 0]
    expect.sort(key=lambda kv: (index[kv[0][0]], index[kv[0][1]]))
    assert list(entries.items()) == expect
    with pytest.raises(TypeError):
        entries[expect[0][0] if expect else (labels[0], labels[0])] = 1.0


@st.composite
def _disjoint_states(draw):
    """Sparse amplitude maps, zeros included: two on one space and one on a
    second space whose ids interleave with the first's in canonical order."""
    ids = draw(st.lists(st.sampled_from("abcdefg"), min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, len(ids) - 1))
    spaces = [Space(tuple((sid, tuple(str(n) for n in range(draw(st.integers(1, 3)))))
                          for sid in part)) for part in (ids[:cut], ids[cut:])]

    def amps(space):
        labels = list(space.labels())
        chosen = draw(st.lists(st.sampled_from(labels), max_size=len(labels), unique=True))
        return {label: draw(st.one_of(st.just(0j), amplitude)) for label in chosen}

    return spaces[0], amps(spaces[0]), amps(spaces[0]), spaces[1], amps(spaces[1])


def _assert_amps(s: StateVector, expect: dict):
    got = dict(s.amps)
    for key in got.keys() | expect.keys():
        assert got.get(key, 0.0) == pytest.approx(expect.get(key, 0.0), rel=1e-12, abs=1e-12)


@given(_disjoint_states(), amplitude, st.data())
def test_dense_ket_operations_match_a_dict_reference(case, c, data):
    space_a, a1, a2, space_b, b = case
    ref_a1, ref_a2, ref_b = ({label: complex(v) for label, v in m.items() if v != 0}
                             for m in (a1, a2, b))
    ket_a1, ket_a2 = StateVector(space_a, a1), StateVector(space_a, a2)
    ket_b = StateVector(space_b, b)
    # the non-zero entries, in canonical order
    assert list(ket_a1.amps.items()) == [(label, ref_a1[label]) for label in space_a.labels()
                                         if label in ref_a1]
    ref_tensor = {BasisLabel(tuple(sorted(la.factors + lb.factors))): va * vb
                  for la, va in ref_a1.items() for lb, vb in ref_b.items()}
    joint = tensor(ket_a1, ket_b)
    assert joint.space == Space(space_a.subsystems + space_b.subsystems)
    _assert_amps(joint, ref_tensor)
    _assert_amps(tensor(ket_b, ket_a1), ref_tensor)
    ref_inner = sum((ref_a1[label].conjugate() * v for label, v in ref_a2.items()
                     if label in ref_a1), 0j)
    assert inner(ket_a1, ket_a2) == pytest.approx(ref_inner, rel=1e-12, abs=1e-12)
    ref_sum = dict(ref_a1)
    for label, v in ref_a2.items():
        ref_sum[label] = ref_sum.get(label, 0.0) + v
    _assert_amps(ket_a1 + ket_a2, ref_sum)
    _assert_amps(ket_a1 * c, {label: c * v for label, v in ref_a1.items()})
    _assert_amps(c * ket_a1, {label: c * v for label, v in ref_a1.items()})
    keep = data.draw(st.sets(st.sampled_from(joint.space.ids), min_size=1))
    pure = [(r, col, vr * vc.conjugate()) for r, vr in ref_tensor.items()
            for col, vc in ref_tensor.items()]
    _assert_matches(partial_trace(joint, keep), _trace_by_id(pure, keep))


_factor = st.tuples(st.text("abcxyz:", min_size=1, max_size=3), st.text("01HV", max_size=2))


@given(st.lists(_factor, max_size=4))
def test_labels_with_equal_factors_are_one_key(factors):
    factors = tuple(sorted(factors))
    a, b = BasisLabel(factors), BasisLabel(tuple(list(factors)))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a.factors == factors
    assert repr(a) == f"BasisLabel(factors={factors!r})"
    assert str(a) == "|" + ",".join(f"{s}={lv}" for s, lv in factors) + ">"
    assert a != BasisLabel(factors + (("~", "0"),))
    with pytest.raises(AttributeError):
        a.factors = ()
    with pytest.raises(TypeError):
        StateVector(Space(()), {(factors,): 1.0})


_BS_STATE = """
from clonesim.optics import one_photon
from clonesim.qstate import tensor
s = tensor(tensor(one_photon("A", {"H": 0.6, "V": 0.8j}), one_photon("B", {"H": -0.3, "V": 0.4})),
           one_photon("C", {"H": 0.5j, "V": 0.1}))
"""
_BS_CALLS = (("A", "B"), ("B", "A"), ("A", "C"))


def _bs_dump(out) -> str:
    return repr(sorted((label.factors, amp) for label, amp in out.amps.items()))


def test_beamsplitter_routes_depend_on_the_paths_not_on_call_history():
    # one process runs the three splitters in a row, for several rounds (a
    # memo keyed on object identity goes wrong once a freed route's id is
    # reused); each call is compared with a fresh process that runs it alone
    scope: dict = {}
    exec(_BS_STATE, scope)
    rounds = [[_bs_dump(beamsplitter(scope["s"], p, q)) for p, q in _BS_CALLS]
              for _ in range(5)]
    env = dict(os.environ, PYTHONPATH=str(Path(clonesim.__file__).resolve().parents[1]))
    for i, (p, q) in enumerate(_BS_CALLS):
        code = (_BS_STATE + "from clonesim.optics import beamsplitter\n"
                f"out = beamsplitter(s, {p!r}, {q!r})\n"
                "print(repr(sorted((label.factors, amp) for label, amp in out.amps.items())))")
        fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stdout.strip()
        assert [calls[i] for calls in rounds] == [fresh] * len(rounds)
    assert len(set(rounds[0])) == len(_BS_CALLS)


def _settle(text_or_values, mode):
    """Parse and build settings; any error but ConfigError propagates."""
    try:
        values = (values_from_text(text_or_values) if isinstance(text_or_values, str)
                  else text_or_values)
        settings_from_values(values, mode=mode)
    except ConfigError:
        pass


_modes = st.sampled_from(["analytic", "dynamic"])


@given(st.text(), _modes)
def test_config_text_fails_only_with_config_error(text, mode):
    _settle(text, mode)


_value = st.one_of(
    st.text(min_size=1),
    st.floats().map(repr),
    st.integers().map(str),
    st.complex_numbers().map(str),
    st.sampled_from(["sin2", "tanh", "square", "0x10", "1e308", "-1e308", "nan", "inf"]),
)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(sorted(KEY_TABLE)), _value), _modes)
def test_config_values_fail_only_with_config_error(values, mode):
    # settings are built and checked, never run
    _settle({"seed": "1", "input.a": "0.6", "input.b": "0.8", **values}, mode)


@given(amplitude, amplitude)
def test_analytic_route_gives_the_optimal_constants(a, b):
    assume(abs(a) ** 2 + abs(b) ** 2 > 1e-6)
    rep = run_analytic(ProtocolConfig(input=InputQubit.normalized(a, b)))
    assert rep.clone_fidelity_1 == pytest.approx(5.0 / 6.0, abs=1e-9)
    assert rep.clone_fidelity_2 == pytest.approx(5.0 / 6.0, abs=1e-9)
    assert rep.telenot_fidelity == pytest.approx(2.0 / 3.0, abs=1e-9)


_ANALYTIC = run_analytic(ProtocolConfig(input=InputQubit(0.6, 0.8)))
_unit = st.floats(0.0, 1.0)


@given(_unit, _unit, _unit, _unit, st.floats(0.0, 0.02))
def test_detector_model_is_a_monotone_probability(pa, pb, eta1, eta2, dark_rate):
    # any emission probabilities, p_operational built as the protocol does
    # (coincidence 3/8); dark_rate * window stays below the 0.2 note
    report = replace(_ANALYTIC, emission_prob_alice=pa, emission_prob_bob=pb,
                     p_operational=pa * pb * 0.375)
    lo, hi = sorted((eta1, eta2))
    p_lo = detector_model(report, lo, dark_rate, 10.0, seed=0).p_detected
    p_hi = detector_model(report, hi, dark_rate, 10.0, seed=0).p_detected
    assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
    # the herald sum p1 p2 + p3 p4 - p1 p2 p3 p4 is rounded: allow a few ulps
    assert p_lo <= p_hi + 1e-15
    for eta in (lo, hi):
        # the law holds bit for bit in this association; p_op * eta ** 2 can
        # differ in the last bit
        clean = detector_model(report, eta, 0.0, 10.0, seed=0)
        assert clean.p_detected == report.p_operational * eta * eta


_log_dark_rate = st.floats(-20.0, -3.0).map(lambda e: 10.0 ** e)


@example(a=0.7121360643835715, b=-0.6898360019167128 + 0.13034000254658115j,
         eta=0.9575428652587752, dark_rate=1.3529670241005054e-20)   # p_true an ulp high
@given(amplitude, amplitude, st.one_of(st.just(1.0), st.floats(0.5, 1.0)), _log_dark_rate)
def test_false_herald_fraction_is_a_probability(a, b, eta, dark_rate):
    assume(abs(a) ** 2 + abs(b) ** 2 > 1e-6)
    rep = run_analytic(ProtocolConfig(input=InputQubit.normalized(a, b),
                                      detector=DetectorParams(eta, dark_rate)))
    assert 0.0 <= rep.false_herald_fraction <= 1.0


_MC_SEEDS = range(8)
_MC_ALPHA = 2.0 * norm.sf(5.0)     # a two-sided 5 sigma normal tail, ~5.7e-7


@example(pa=0.0, pb=0.0625, eta=0.0625, p_dark=1e-5)     # one herald where 0.006 are due
# every detector sure to click: the branch weights' rounding once read 1 + 1 ulp
@example(pa=0.23432210290692496, pb=0.23432210290692496, eta=0.0, p_dark=0.9999999999999999)
@example(pa=1.0, pb=1.0, eta=0.0, p_dark=0.0)
@example(pa=1.0, pb=1.0, eta=1.0, p_dark=0.0)
@example(pa=0.5, pb=0.25, eta=1.0, p_dark=0.5)
@example(pa=0.0, pb=0.0, eta=0.0, p_dark=0.0)
@given(_unit, _unit, _unit, st.floats(0.0, 1.0, exclude_max=True))
def test_detection_monte_carlo_mean_agrees_with_closed_form(pa, pb, eta, p_dark):
    # random emission probabilities bring in the 1- and 0-photon branches.
    # Over the fixed seeds the herald count is binomial in the closed form;
    # it must lie inside the exact two-sided tail of probability _MC_ALPHA,
    # so with ~100 parameter sets per run a correct estimator fails under
    # 1e-4 of runs, rare heralds included (a normal approximation does not
    # hold there).  Edge values must draw without error.
    report = replace(_ANALYTIC, emission_prob_alice=pa, emission_prob_bob=pb,
                     p_operational=pa * pb * 0.375)
    window, trials = 10.0, 20_000
    dark_rate = -math.log1p(-p_dark) / window
    runs = [detector_model(report, eta, dark_rate, window, seed=s, trials=trials)
            for s in _MC_SEEDS]
    closed = runs[0].p_detected
    heralds = sum(round(r.mc_p_detected * trials) for r in runs)
    n = trials * len(runs)
    tail = min(binom.cdf(heralds, n, closed), binom.sf(heralds - 1, n, closed))
    assert tail > _MC_ALPHA / 2


@example(pa=0.0, pb=0.0625, eta=0.0625, p_dark=1e-5)
@example(pa=0.23432210290692496, pb=0.23432210290692496, eta=0.0, p_dark=0.9999999999999999)
@example(pa=1.0, pb=1.0, eta=0.0, p_dark=0.0)
@example(pa=1.0, pb=1.0, eta=1.0, p_dark=0.0)
@example(pa=0.5, pb=0.25, eta=1.0, p_dark=0.5)
@example(pa=0.0, pb=0.0, eta=0.0, p_dark=0.0)
@given(_unit, _unit, _unit, st.floats(0.0, 1.0, exclude_max=True))
def test_detection_monte_carlo_resolves_the_closed_form(pa, pb, eta, p_dark):
    # at 2**56 trials one sigma is at most ~2e-9 (at 40,000 trials, ~2e-3),
    # so the predicate-heralded estimate must meet the closed form to
    # 6 sigma; the 1e-12 floor covers heralds too rare to draw once.  Not
    # 2**62: there numpy's binomial sampler lands beyond 6 sigma in ~1e-5 of
    # draws, against 2e-9 for the law
    report = replace(_ANALYTIC, emission_prob_alice=pa, emission_prob_bob=pb,
                     p_operational=pa * pb * 0.375)
    window = 10.0
    d = detector_model(report, eta, -math.log1p(-p_dark) / window, window, seed=5,
                       trials=2 ** 56)
    assert abs(d.mc_p_detected - d.p_detected) <= 6.0 * d.mc_sigma + 1e-12


def _closed_form_loop(report, eta: float, dark_rate: float, window: float) -> tuple:
    """(p_detected, false_herald_fraction) of the dark-count closed form,
    written out pattern by pattern over the emission branches."""
    p_dark = 1.0 - math.exp(-dark_rate * window)

    def click_prob(n):
        return 1.0 - (1.0 - eta) ** n * (1.0 - p_dark)

    pa, pb = report.emission_prob_alice, report.emission_prob_bob
    branches = [(pa * pb, report.count_distribution)]
    w_one = pa * (1.0 - pb) + (1.0 - pa) * pb
    if w_one > 0:
        branches.append((w_one, {pat: 0.25 for pat in
                                 ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))}))
    w_none = (1.0 - pa) * (1.0 - pb)
    if w_none > 0:
        branches.append((w_none, {(0, 0, 0, 0): 1.0}))
    p_detected = p_true = 0.0
    for weight, dist in branches:
        for pat in sorted(dist):
            q = dist[pat]
            p1, p2, p3, p4 = (click_prob(n) for n in pat)
            p_detected += weight * q * (p1 * p2 + p3 * p4 - p1 * p2 * p3 * p4)
            if pat in _COINC:
                p_true += weight * q * eta * eta
    return p_detected, (1.0 - p_true / p_detected if p_detected > 0 else 0.0)


@example(pa=1.0, pb=1.0, eta=0.0, dark_rate=1e-4)
@example(pa=0.0, pb=0.0, eta=1.0, dark_rate=1e-4)
@given(_unit, _unit, _unit, st.floats(1e-9, 0.02))
def test_dark_count_closed_form_is_the_per_pattern_loop(pa, pb, eta, dark_rate):
    report = replace(_ANALYTIC, emission_prob_alice=pa, emission_prob_bob=pb,
                     p_operational=pa * pb * 0.375)
    got = detector_model(report, eta, dark_rate, 10.0, seed=0)
    p_detected, w_false = _closed_form_loop(report, eta, dark_rate, 10.0)
    assert got.p_detected == pytest.approx(p_detected, rel=1e-15, abs=0.0)
    assert got.false_herald_fraction == pytest.approx(w_false, rel=1e-15, abs=0.0)


def _closed_form_arrays(probs: list, eta: float, p_dark: float) -> tuple:
    """The dark-count closed form as array arithmetic: click probabilities
    indexed by the (patterns x 4) count matrix, the herald terms summed per
    pattern in the pattern table's order, the herald probability capped at 1."""
    pats = protocol._PATTERNS
    counts = np.array(pats, dtype=int).reshape(-1, 4)
    click = np.array([1.0 - (1.0 - eta) ** n * (1.0 - p_dark)
                      for n in range(int(counts.max(initial=0)) + 1)])
    c1, c2, c3, c4 = click[counts].T
    both = c1 * c2
    p_detected = 0.0
    for term in (np.array(probs) * (both + c3 * c4 - both * c3 * c4)).tolist():
        p_detected += term
    p_true = 0.0
    for pat in ((0, 0, 1, 1), (1, 1, 0, 0)):
        p_true += probs[pats.index(pat)] * eta * eta
    return min(p_detected, 1.0), p_true


# every detector all but sure to click: the herald sum reads 1 + 1 ulp uncapped
@example(pa=0.23432210290692496, pb=0.23432210290692496, eta=0.0,
         p_dark=0.9999999999999999, ratio=0.5, vis=1.0)
@example(pa=1.0, pb=1.0, eta=1.0, p_dark=0.0, ratio=-1.0, vis=1.0)     # a singlet pair
@example(pa=0.0, pb=0.0, eta=0.5, p_dark=0.5, ratio=0.5, vis=0.0)
@given(_unit, _unit, _unit, st.floats(0.0, 1.0, exclude_max=True),
       st.floats(-1.0, 1.0), _unit)
def test_dark_count_closed_form_is_the_array_form(pa, pb, eta, p_dark, ratio, vis):
    # any pair the network can see: its count distribution is u + |c|^2
    # (sigma/n) v over the patterns (optics' exchange form), so (sigma/n,
    # |c|^2) and the emission probabilities span every pattern vector
    dist = {pat: w for pat, u, v in optics._COUNT_WEIGHTS if (w := u + vis * ratio * v) != 0.0}
    report = replace(_ANALYTIC, emission_prob_alice=pa, emission_prob_bob=pb,
                     count_distribution=dist)
    probs = protocol._pattern_probabilities(report)
    expect = _closed_form_arrays(probs, eta, p_dark)
    assert protocol._closed_form(probs, eta, p_dark) == expect


def _herald_probability_loop(probs: list, eta: float, p_dark: float) -> float:
    """The Monte Carlo's herald probability written out: each pattern of the
    table, each pattern's 16 click configurations (detector i clicks when
    bit i of k is set), a herald when both detectors of an arm click; the
    mixture and its normalisation as exact sums."""
    click = [1.0 - (1.0 - eta) ** n * (1.0 - p_dark) for n in range(3)]
    weights, terms = [], []
    for pat, q in zip(protocol._PATTERNS, probs):
        h = 0.0
        for k in range(16):
            clicks = [(k >> i) & 1 == 1 for i in range(4)]
            if (clicks[0] and clicks[1]) or (clicks[2] and clicks[3]):
                term = 1.0
                for n, clicked in zip(pat, clicks):
                    term *= click[n] if clicked else 1.0 - click[n]
                h += term
        weights.append(q)
        terms.append(q * h)
    return min(math.fsum(terms) / math.fsum(weights), 1.0)


@example(pa=0.23432210290692496, pb=0.23432210290692496, eta=0.0,
         p_dark=0.9999999999999999, ratio=0.5, vis=1.0)
@example(pa=1.0, pb=1.0, eta=1.0, p_dark=0.0, ratio=-1.0, vis=1.0)
@example(pa=0.0, pb=0.0, eta=0.5, p_dark=0.5, ratio=0.5, vis=0.0)
@given(_unit, _unit, _unit, st.floats(0.0, 1.0, exclude_max=True),
       st.floats(-1.0, 1.0), _unit)
def test_monte_carlo_herald_probability_is_the_predicate_written_out(pa, pb, eta, p_dark,
                                                                     ratio, vis):
    # the same pairs as the closed-form test above; the table-driven mixture
    # meets the loop to 2 ulps, and the distribution's insertion order
    # leaves it bit-identical
    dist = {pat: w for pat, u, v in optics._COUNT_WEIGHTS if (w := u + vis * ratio * v) != 0.0}
    report = replace(_ANALYTIC, emission_prob_alice=pa, emission_prob_bob=pb,
                     count_distribution=dist)
    probs = protocol._pattern_probabilities(report)
    got = protocol._herald_probability(probs, eta, p_dark)
    want = _herald_probability_loop(probs, eta, p_dark)
    assert abs(got - want) <= 2.0 * math.ulp(want)
    flipped = replace(report, count_distribution=dict(reversed(dist.items())))
    assert protocol._herald_probability(protocol._pattern_probabilities(flipped), eta,
                                        p_dark) == got


# --- scores on arrays against the labeled route ------------------------------

_SCORED = Space((("atomB", ("gL", "gR")), ("ph3", POLS), ("ph4", POLS)))


def _one_qubit(sid: str, levels: tuple, amps: tuple) -> StateVector:
    space = Space(((sid, levels),))
    return StateVector(space, {space.label({sid: lv}): amp for lv, amp in zip(levels, amps)})


def _labeled_score(rho: DensityMatrix, q: InputQubit) -> tuple:
    """The three scores through partial_trace and fidelity_pure on labeled targets."""
    clone = (q.a, q.b)
    return (fidelity_pure(partial_trace(rho, {"ph3"}), _one_qubit("ph3", POLS, clone)),
            fidelity_pure(partial_trace(rho, {"ph4"}), _one_qubit("ph4", POLS, clone)),
            fidelity_pure(partial_trace(rho, {"atomB"}),
                          _one_qubit("atomB", ("gL", "gR"), (q.b.conjugate(), -q.a.conjugate()))))


def _input(a, b) -> InputQubit:
    assume(abs(a) ** 2 + abs(b) ** 2 > 1e-6)
    return InputQubit.normalized(a, b)


@given(st.lists(amplitude, min_size=64, max_size=64), amplitude, amplitude)
def test_array_score_is_the_labeled_route_on_any_state(g, a, b):
    # a random positive semidefinite unit-trace matrix on the conditional space
    g = np.array(g).reshape(8, 8)
    rho = np.einsum("ig,jg->ij", g, g.conj())
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    rho = DensityMatrix.from_array(_SCORED, rho / trace)
    q = _input(a, b)
    assert np.abs(np.subtract(protocol._score(rho, q), _labeled_score(rho, q))).max() <= 1e-15


@given(amplitude, amplitude, amplitude, amplitude, st.floats(0.0, 1.0),
       st.floats(0.0, 2 * math.pi))
def test_array_score_is_the_labeled_route_on_heralded_states(a, b, beta_l, beta_r, r, phi):
    # the heralded states both routes produce: any input, any remote channel
    # split, any envelope overlap c
    assume(abs(beta_l) ** 2 + abs(beta_r) ** 2 > 1e-6)
    q = _input(a, b)
    joint = assemble_joint((q.a, q.b), (beta_l, beta_r))
    rho = detection_bookkeeping(joint, r * complex(math.cos(phi), math.sin(phi))).rho_conditional
    assume(rho is not None)
    assert rho.space == _SCORED
    assert np.abs(np.subtract(protocol._score(rho, q), _labeled_score(rho, q))).max() <= 1e-15


# every entry -0.0 but one diagonal: einsum's sums start from 0.0, so a sum of
# signed zeros reads +0.0
@example(g=[complex(-0.0, -0.0)] * 63 + [1.0])
@given(st.lists(amplitude, min_size=64, max_size=64))
def test_score_reductions_are_the_einsums_bit_for_bit(g):
    # a unit-trace Hermitian matrix B + B^H on the conditional space
    b = np.array(g).reshape(8, 8)
    h = b + b.conj().T
    trace = np.trace(h).real
    assume(abs(trace) > 1e-6)
    h = h / trace
    m = h.reshape((2,) * 6)
    want = np.stack([np.einsum(m, [0, 1, 2, 0, 4, 2], [1, 4]),     # ph3
                     np.einsum(m, [0, 1, 2, 0, 1, 5], [2, 5]),     # ph4
                     np.einsum(m, [0, 1, 2, 3, 1, 2], [0, 3])])    # atomB
    assert protocol._reductions(h).tobytes() == want.tobytes()


# --- the qubit fidelity kernel against exact arithmetic ----------------------


def _exact_fidelity(m: list, t: tuple) -> Fraction:
    """Re sum_ij t_i* m_ij t_j of these float entries, in exact arithmetic."""
    total = Fraction(0)
    for i, j in product(range(2), repeat=2):
        ar, ai = Fraction(t[i].real), Fraction(t[i].imag)
        mr, mi = Fraction(m[i][j].real), Fraction(m[i][j].imag)
        br, bi = Fraction(t[j].real), Fraction(t[j].imag)
        total += (ar * mr + ai * mi) * br - (ar * mi - ai * mr) * bi
    return total


def _ulps(value: float, exact: Fraction) -> float:
    """|value - exact| in ulps of the exact value, counted at 1/2 below it: the
    kernel's rounding errors are absolute, at the scale of the entries (at
    most 1), so a fidelity near 0 carries them undivided."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(max(float(exact), 0.5))))


@given(st.lists(amplitude, min_size=4, max_size=4), amplitude, amplitude)
@example(g=[-1j, 0.9664479114040438j, -1.9999999999999998 + 0j,
            1.5325184598988497 + 0.3333333333333333j],
         a=-1.1754943508222875e-38 - 1.9999999999999998j, b=-1.9999999999999998 + 0j)
def test_fidelity_kernel_is_within_two_ulps_of_exact(g, a, b):
    # a random positive semidefinite unit-trace 2x2 matrix and a unit target
    g = np.array(g).reshape(2, 2)
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-6)
    m /= trace
    q = _input(a, b)
    assert _ulps(_fidelity(m, q.a, q.b), _exact_fidelity(m.tolist(), (q.a, q.b))) <= 2.0


def test_fidelity_kernel_is_no_less_accurate_than_numpy():
    # over a fixed sample of random states and targets, the mean error of the
    # scalar kernel against exact arithmetic is at most numpy's vdot/dot route's
    rng = np.random.default_rng(0)
    kernel = numpy_route = 0.0
    for _ in range(500):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        m /= np.trace(m).real
        t = rng.normal(size=2) + 1j * rng.normal(size=2)
        t /= np.linalg.norm(t)
        exact = _exact_fidelity(m.tolist(), t.tolist())
        kernel += _ulps(_fidelity(m, *t.tolist()), exact)
        numpy_route += _ulps(float(np.vdot(t, m @ t).real), exact)
    assert kernel <= numpy_route
