"""RF network substrate: frequency grids, two-ports, noise, gain, stability.

The public surface of this package is everything an RF designer needs
to manipulate linear networks analytically; the circuit-level MNA
simulator lives in :mod:`repro.analysis` and produces objects from this
package.
"""

from repro.rf.frequency import Band, FrequencyGrid
from repro.rf.twoport import (
    TwoPort,
    attenuator,
    ideal_transformer,
    series_impedance,
    shunt_admittance,
    shunt_impedance,
    thru,
    transmission_line,
)
from repro.rf.nport import NPort
from repro.rf.noise import NoiseParameters, NoisyTwoPort, friis_cascade
from repro.rf.gain import (
    available_gain,
    input_reflection,
    maximum_available_gain,
    maximum_stable_gain,
    operating_gain,
    output_reflection,
    transducer_gain,
)
from repro.rf.stability import (
    is_unconditionally_stable,
    load_stability_circle,
    mu_load,
    mu_source,
    rollett_k,
    source_stability_circle,
)
from repro.rf.circles import available_gain_circle, noise_circle
from repro.rf.matching import (
    design_l_section,
    gamma_from_impedance,
    impedance_from_gamma,
    mismatch_loss_db,
    simultaneous_conjugate_match,
    vswr_from_gamma,
)
from repro.rf.touchstone import TouchstoneData, read_touchstone, write_touchstone

__all__ = [
    "Band",
    "FrequencyGrid",
    "TwoPort",
    "attenuator",
    "ideal_transformer",
    "series_impedance",
    "shunt_admittance",
    "shunt_impedance",
    "thru",
    "transmission_line",
    "NPort",
    "NoiseParameters",
    "NoisyTwoPort",
    "friis_cascade",
    "available_gain",
    "input_reflection",
    "maximum_available_gain",
    "maximum_stable_gain",
    "operating_gain",
    "output_reflection",
    "transducer_gain",
    "is_unconditionally_stable",
    "load_stability_circle",
    "mu_load",
    "mu_source",
    "rollett_k",
    "source_stability_circle",
    "available_gain_circle",
    "noise_circle",
    "design_l_section",
    "gamma_from_impedance",
    "impedance_from_gamma",
    "mismatch_loss_db",
    "simultaneous_conjugate_match",
    "vswr_from_gamma",
    "TouchstoneData",
    "read_touchstone",
    "write_touchstone",
]
