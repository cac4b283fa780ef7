"""motesim: deterministic discrete-event simulation of dual-radio LPWAN motes.

A mote couples a LoRa main transceiver with a micro-watt OOK wake-up
receiver. The package models the physical layer (airtime, link budget),
a shared propagation medium with capture, the composite node power state
machine with an exact energy ledger, a minimal single-hop unicast stack,
and a reproducible event engine with coverage and power-profiling
experiment presets.
"""

from types import ModuleType as _ModuleType

from .channel import (ChannelParams, Position, ReceptionOutcome,
                      noise_floor_dbm, rssi_at)
from .engine import Simulator, power_profile, range_sweep, run
from .errors import (ConfigError, ContractViolation, IllegalTransition,
                     MotesimError, PayloadTooLarge, RadioUnavailable,
                     ScenarioError, TableEntryMissing, ZeroDistanceError)
from .frame import Frame
from .node import (DEFAULT_POWER_TABLE_W, EnergyLedger, MoteDevice,
                   NodeEvent, power_report)
from .phy import (RadioConfig, SensitivityTable, payload_symbol_count,
                  time_on_air)
from .report import RunMetrics, emit, emit_sweep
from .scenario import (Scenario, load, power_profile_scenario,
                       range_point_scenario, scenario_hash)
from .stack import (RadioDriver, Unicast, UnicastMessage, decode_message,
                    encode_message)
from .wurx import (WakeUpFrame, WurxState, receive_wub, send_wub,
                   wub_airtime)

__version__ = "0.1.0"

# every name imported above, and the version
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
