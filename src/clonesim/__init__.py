"""clonesim: atomic-qubit to two-photon optimal cloning simulator.

Layers, bottom up:

- :mod:`clonesim.qstate`    labeled tensor states: sparse kets, dense density matrices
- :mod:`clonesim.cloner`    exact 1->2 symmetric cloning algebra (oracle)
- :mod:`clonesim.adiabatic` cavity dark-state passage and photon emission
- :mod:`clonesim.optics`    the photon pair, beam splitters, coincidence bookkeeping
- :mod:`clonesim.protocol`  end-to-end runs, detector model, reports
- :mod:`clonesim.cli`       command-line front end (ideal/dynamics/sweep/verify)

The exports below resolve on first use (PEP 562), so ``import clonesim``
loads no numpy and the CLI can set up numpy's environment before it does.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BasisLabel", "CompositionError", "DegenerateNormError", "DensityMatrix",
        "Space", "SpaceMismatchError", "StateVector", "fidelity_pure", "inner",
        "normalize", "partial_trace", "tensor"), "qstate"),
    **dict.fromkeys((
        "CloneOutput", "InputQubit", "clone", "clone_fidelity",
        "closed_form_output", "haar_qubit", "projector_p123", "singlet",
        "unot_fidelity"), "cloner"),
    **dict.fromkeys((
        "DynamicsReport", "MixingAngle", "PulseSchedule", "Side", "SystemParams",
        "dark_state", "evolve", "pulse_shape_analytic"), "adiabatic"),
    **dict.fromkeys((
        "beamsplitter", "detection_bookkeeping", "one_photon", "photon_pair",
        "polarization_singlet", "symmetric_project"), "optics"),
    **dict.fromkeys((
        "CloneReport", "DetectorParams", "Mode", "NodeConfig", "ProtocolConfig",
        "detector_model", "run", "run_analytic", "run_dynamic"), "protocol"),
    **dict.fromkeys(("ConfigError", "load_config", "parse_config_text"), "config"),
}
# the layers behind the exports are attributes of the package too
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
