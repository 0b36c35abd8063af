"""Application simulators built on the product-formula core."""

from .cd import (CDConfig, CDPoint, cd_beta, cd_hamiltonians, cd_run,
                 schedule, schedule_rate)
from .chain import (ChainConfig, chain_gate_count, chain_heff, chain_hoppings,
                    chain_simulate)
from .km import (KMConfig, flat_band_coupling, km_commutator_check,
                 km_gate_count, km_hoppings, km_nnn_identities, km_simulate,
                 phases_wrap_consistently)

__all__ = [
    "CDConfig", "CDPoint", "cd_beta", "cd_hamiltonians", "cd_run",
    "schedule", "schedule_rate",
    "ChainConfig", "chain_gate_count", "chain_heff", "chain_hoppings",
    "chain_simulate",
    "KMConfig", "flat_band_coupling", "km_commutator_check", "km_gate_count",
    "km_hoppings", "km_nnn_identities", "km_simulate",
    "phases_wrap_consistently",
]
