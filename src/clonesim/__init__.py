"""clonesim: atomic-qubit to two-photon optimal cloning simulator.

Layers, bottom up:

- :mod:`clonesim.qstate`    sparse labeled tensor states and operators
- :mod:`clonesim.cloner`    exact 1->2 symmetric cloning algebra (oracle)
- :mod:`clonesim.adiabatic` cavity dark-state passage and photon emission
- :mod:`clonesim.optics`    waveplates, beam splitters, coincidence bookkeeping
- :mod:`clonesim.protocol`  end-to-end runs, detector model, reports
- :mod:`clonesim.cli`       command-line front end (ideal/dynamics/sweep/verify)
"""

from .qstate import (
    BasisLabel,
    CompositionError,
    DegenerateNormError,
    DensityMatrix,
    LinearOperator,
    Space,
    SpaceMismatchError,
    StateVector,
    apply,
    basis_state,
    fidelity_pure,
    inner,
    normalize,
    partial_trace,
    state_to_json,
    tensor,
)
from .cloner import (
    CloneOutput,
    InputQubit,
    clone,
    clone_fidelity,
    closed_form_output,
    haar_qubit,
    projector_p123,
    singlet,
    unot_fidelity,
)
from .adiabatic import (
    DynamicsReport,
    MixingAngle,
    PulseSchedule,
    Side,
    SystemParams,
    dark_states,
    evolve,
    pulse_shape_analytic,
)
from .optics import (
    beamsplitter,
    detection_bookkeeping,
    hwp0,
    one_photon,
    polarization_singlet,
    qwp_relabel,
    symmetric_project,
)
from .protocol import (
    CloneReport,
    DetectorParams,
    Mode,
    NodeConfig,
    ProtocolConfig,
    detector_model,
    run,
    run_analytic,
    run_dynamic,
)
from .config import ConfigError, load_config, parse_config_text

__version__ = "0.1.0"
