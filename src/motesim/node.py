"""Composite mote model: MCU x main radio x wake-up receiver, plus the
time-integrating energy ledger. A node's records, ``NodeSpec`` and its
``WurxSpec``, check their values when built or ``_replace``d, so a
``MoteDevice`` is built from checked values only.

Virtual time is integer nanoseconds throughout, so per-state dwell times sum
exactly to the simulation horizon. Energy is charged modally: at any instant
the mote is in exactly one power label, looked up from the composite state:

    lora_tx / wub_tx  radio transmitting (wub_tx is duty-scaled OOK)
    lora_rx           radio in receive
    mcu_active        MCU awake (radio off/turning on/standby)
    wurx_decode       wake-up receiver decoding while the MCU sleeps
    sleep             MCU in deep sleep, radio off, WuRX listening

The "sleep" label is the mote-level floor (1.83 uW) covering the listening
wake-up receiver and the sleeping MCU together; the attribution between the
two (1.8 uW WuRX + 0.03 uW MCU and leakage) is documentation, not a charged
split.

State machine (states are (mcu, radio); a WuRX decode only affects the label:
``MoteDevice.wurx`` is the node's ``WurxSpec``, which also describes the
bursts that wake it, and ``wurx_decode`` sets the ``wurx_decoding`` flag
while a burst lasts; the engine counts interrupts).
Events are ``NodeEvent`` members: the scheduled ones and the driver
operations (radio_on, radio_off, start_rx, stop_rx, begin_wub_tx), and the
decode of a frame at a listener (rx_done), which is ``MoteDevice.receive``:

    state              event               next state        side effect
    ------------------ ------------------- ----------------- ------------------
    (sleep, off)       wurx_interrupt      (waking, off)     timer mcu_awake +7us
    (sleep, off)       timer[wake]         (waking, off)     timer mcu_awake +7us
    (waking, off)      timer[mcu_awake]    (active, off)     notify awake
    (active, off)      radio_on            (active, turning_on)  timer radio_ready
    (active, turning_on) timer[radio_ready] (active, standby) notify radio ready
    (active, standby)  start_rx            (active, rx)
    (active, standby)  tx_request          (active, tx)
    (active, standby)  begin_wub_tx        (active, tx)      duty-scaled power
    (active, standby)  radio_off           (active, off)
    (active, standby)  sleep_request       (sleep, off)
    (active, rx)       tx_request          (active, tx)
    (active, rx)       begin_wub_tx        (active, tx)      duty-scaled power
    (active, rx)       stop_rx             (active, standby)
    (active, rx)       radio_off           (active, off)
    (active, rx)       rx_done             (active, rx)      charge only
    (active, rx)       sleep_request       (sleep, off)      radio off
    (active, tx)       tx_done             (active, standby) notify tx done
    (active, off)      sleep_request       (sleep, off)
    any mcu != sleep   wurx_interrupt      unchanged         retrigger ignored

Every other (state, event) pair raises IllegalTransition, whose message
names the node, the event, the state and the time; it signals a stack bug
and aborts the run. ``MoteDevice.transition`` is the one place that checks
a pair of a ``NodeEvent``.

The MCU sleeps and wakes only with the radio off, so a state change's result
depends on the event alone, never on the state it leaves. Every result is
therefore built once and shared: the plain ones and the awake and radio-ready
ones per module, the wake and radio-on ones (whose follow-up timers carry the
device's latencies) per device. Only the ignored wake-up re-trigger, which
changes nothing, builds its result on the spot. A wake-up burst enters tx
through a result of its own, which picks the ``wub_tx`` label at the power
``begin_wub_tx`` set just before. A result's ``notify`` flag is set where the
engine has work: follow-up timers, an application hook or an entry into rx.
A state change is one call: it checks the (state, event) pair, charges the
dwell in the outgoing label with one ledger accrual when time has passed,
enters the new state and picks its label and power, which are cached until
the next change. A decode changes no state: ``receive`` charges the rx dwell
up to the frame's end at the cached label and power, and the engine hands
the frame to the stack itself.
"""

import enum
import math
from types import MappingProxyType
from typing import NamedTuple

from .channel import Position
from .errors import ConfigError, IllegalTransition, validated
from .phy import NS_PER_S

SUPPLY_VOLTAGE_V = 3.0

#: Modal power defaults (W): measured mote figures for sleep/decode/tx/rx,
#: MCU-active from the microcontroller's datasheet class at 3.0 V.
DEFAULT_POWER_TABLE_W = {
    "sleep": 1.83e-6,
    "wurx_decode": 284e-6,
    "lora_tx": 0.240,
    "lora_rx": 0.050,
    "mcu_active": 2.4e-3,
}

POWER_LABELS = ("sleep", "wurx_decode", "mcu_active", "lora_rx", "lora_tx",
                "wub_tx")
ROLES = ("bs", "mote", "initiator", "sleeper")
AWAKE_ROLES = ("bs", "initiator")  # nodes that start with the MCU awake
POWER_KEYS = ("sleep", "lora_tx", "lora_rx", "mcu_active")  # of power_w


@validated
class WurxSpec(NamedTuple):
    """A node's wake-up receiver, and the one record of the bursts that
    wake it; checked when built or replaced."""

    address: int
    sensitivity_dbm: float = -50.0
    bit_rate_bps: float = 1000.0
    preamble_bits: int = 8
    listen_power_w: float = 1.8e-6
    decode_power_w: float = 284e-6

    def _check(self):
        if not 0 <= self.address <= 255:
            raise ConfigError(
                f"wurx: wake-up address must be 0..255, got {self.address}")
        if self.preamble_bits < 0:
            raise ConfigError("wurx: preamble_bits must be >= 0")
        if not 0 < self.bit_rate_bps <= 1000.0:
            raise ConfigError("wurx: bit_rate_bps must be in (0, 1000], got "
                              f"{self.bit_rate_bps}")
        if self.listen_power_w >= self.decode_power_w:
            raise ConfigError("wurx: listen power must be below decode power")


@validated
class NodeSpec(NamedTuple):
    """One node, checked when built or replaced, over its power table."""

    address: int
    role: str
    position: Position
    power_w: dict = MappingProxyType({})  # read-only: records share it
    wurx: WurxSpec | None = None
    battery_j: float = 1.0e4
    harvest_rate_w: float = 0.0
    harvest_efficiency: float = 0.90
    mcu_wakeup_ns: int = 7_000
    radio_turn_on_ns: int = 1_000_000

    def _check(self):
        if self.role not in ROLES:
            raise ConfigError(f"role must be one of {ROLES}, got {self.role!r}")
        if not 0 <= self.address <= 0xFFFF:
            raise ConfigError(f"address {self.address} must fit in 16 bits")
        if self.role == "sleeper" and self.wurx is None:
            raise ConfigError("role 'sleeper' requires a wurx block")
        if not set(self.power_w) <= set(POWER_KEYS):
            raise ConfigError(f"power_w keys must be among {POWER_KEYS}, "
                              f"got {sorted(self.power_w)}")
        if self.battery_j < 0 or self.harvest_rate_w < 0:
            raise ConfigError("battery_j and harvest_rate_w must be >= 0")
        if not 0.0 <= self.harvest_efficiency <= 1.0:
            raise ConfigError("harvest_efficiency must be within [0, 1]")
        if self.mcu_wakeup_ns <= 0 or self.radio_turn_on_ns <= 0:
            raise ConfigError(
                "wake-up and radio turn-on latencies must be > 0")
        table = power_table(self)
        for label, power_w in table.items():
            if not 0 <= power_w < math.inf:  # NaN fails too
                raise ConfigError(
                    f"{label} power must be >= 0 and finite, got {power_w} W")
        if table["sleep"] >= table["mcu_active"]:
            raise ConfigError("sleep power must be below MCU active power")
        # radio tx/rx must dominate the idle draws
        idle_peak = max(table["sleep"], table["mcu_active"])
        if table["lora_tx"] <= idle_peak or table["lora_rx"] <= idle_peak:
            raise ConfigError(
                "lora_tx and lora_rx draws must exceed sleep/standby draws")


def power_table(spec: NodeSpec) -> dict:
    """The node's full power table: the defaults, the node's own power
    keys, then the wurx block's decode power."""
    table = dict(DEFAULT_POWER_TABLE_W)
    table.update(spec.power_w)
    if spec.wurx is not None:
        table["wurx_decode"] = spec.wurx.decode_power_w
    return table


class McuMode(enum.Enum):
    SLEEP = "sleep"
    WAKING = "waking"
    ACTIVE = "active"


class RadioMode(enum.Enum):
    OFF = "off"
    TURNING_ON = "turning_on"
    STANDBY = "standby"
    RX = "rx"
    TX = "tx"


# The members bound once as module constants. On CPython 3.11, looking a
# member up on its Enum class costs about ten times as much as reading a
# module constant, and the state machine compares modes on every event.
MCU_SLEEP, MCU_WAKING, MCU_ACTIVE = McuMode
RADIO_OFF, RADIO_TURNING_ON, RADIO_STANDBY, RADIO_RX, RADIO_TX = RadioMode


class NodeEvent(enum.Enum):
    """Everything that changes a mote's state: the scheduled events and the
    driver operations. Each member's value is its text in the dispatch
    trace and in ``IllegalTransition`` messages."""

    WAKE = "timer[wake]"
    MCU_AWAKE = "timer[mcu_awake]"
    RADIO_READY = "timer[radio_ready]"
    WURX_INTERRUPT = "wurx_interrupt"
    TX_REQUEST = "tx_request"
    TX_DONE = "tx_done"
    SLEEP_REQUEST = "sleep_request"
    RADIO_ON = "radio_on"
    RADIO_OFF = "radio_off"
    START_RX = "start_rx"
    STOP_RX = "stop_rx"
    BEGIN_WUB_TX = "begin_wub_tx"

    def __init__(self, text):
        # a plain attribute, where ``Enum.value`` is a property
        self.text = text


# bound once, like the modes above; RADIO_OFF already names a radio mode
(WAKE, MCU_AWAKE, RADIO_READY, WURX_INTERRUPT, TX_REQUEST, TX_DONE,
 SLEEP_REQUEST, TURN_RADIO_ON, TURN_RADIO_OFF, START_RX, STOP_RX,
 BEGIN_WUB_TX) = NodeEvent


class TransitionResult(NamedTuple):
    """New state plus follow-up events the engine must schedule."""

    mcu: McuMode
    radio: RadioMode
    followups: tuple = ()  # of (delay_ns, NodeEvent)
    awake: bool = False        # MCU just reached active
    radio_ready: bool = False  # radio just reached standby
    notify: bool = False  # the engine acts on it: see the module docstring


# The results that do not depend on the device, shared by every change that
# yields them. The per-device wake and radio-on results are built in
# MoteDevice.__init__.
_AWAKE = TransitionResult(MCU_ACTIVE, RADIO_OFF, awake=True, notify=True)
_RADIO_READY = TransitionResult(MCU_ACTIVE, RADIO_STANDBY, radio_ready=True,
                                notify=True)
_ACTIVE_OFF = TransitionResult(MCU_ACTIVE, RADIO_OFF)
_ACTIVE_STANDBY = TransitionResult(MCU_ACTIVE, RADIO_STANDBY)
_ENTER_RX = TransitionResult(MCU_ACTIVE, RADIO_RX, notify=True)
_ACTIVE_TX = TransitionResult(MCU_ACTIVE, RADIO_TX)
_WUB_TX = TransitionResult(MCU_ACTIVE, RADIO_TX)  # a burst: read by identity
_ASLEEP = TransitionResult(MCU_SLEEP, RADIO_OFF)


class EnergyLedger:
    """Per-label time/energy integration with battery and harvesting inflow.

    Time is integer ns; energy per accrual is power * dt. The battery floors
    at zero: the charge that empties it spends only the battery plus its
    dwell's harvest, and ``depleted`` latches; a depleted ledger keeps dwell
    times only. It is not capped above, so harvesting surplus accumulates.
    Conservation identity maintained down to the floor: consumed - harvested
    == battery_initial - battery_remaining; with no harvest inflow, the
    harvest terms, which would add 0.0, are skipped. ``MoteDevice`` passes
    the battery and the net harvest inflow of its checked node; the ledger
    checks neither.
    """

    def __init__(self, battery_j: float, harvest_w: float):
        self.time_ns: dict = {}
        self.energy_j: dict = {}
        self.battery_initial_j = battery_j
        self.battery_remaining_j = battery_j
        self.harvest_w = harvest_w
        self.consumed_j = 0.0
        self.harvested_j = 0.0
        self.depleted = False

    def accrue(self, label: str, power_w: float, dt_ns: int) -> None:
        if dt_ns <= 0:
            if dt_ns:
                raise ConfigError("dt_ns must be >= 0")
            return
        self.time_ns[label] = self.time_ns.get(label, 0) + dt_ns
        if self.depleted:
            return
        dt_s = dt_ns / NS_PER_S
        spent = power_w * dt_s
        gained = 0.0
        level = self.battery_remaining_j - spent
        if self.harvest_w:  # else its terms would add 0.0, changing nothing
            gained = self.harvest_w * dt_s
            self.harvested_j += gained
            level = self.battery_remaining_j + gained - spent
        if level <= 0.0:  # this charge spends only what is left
            spent = self.battery_remaining_j + gained
            level = 0.0
            self.depleted = True
        self.energy_j[label] = self.energy_j.get(label, 0.0) + spent
        self.consumed_j += spent
        self.battery_remaining_j = level

    def total_time_ns(self) -> int:
        return sum(self.time_ns.values())

    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())


def power_report(ledger: EnergyLedger, power_table_w: dict) -> list:
    """Rows of (label, power_w, time_ns, energy_j, pct_of_total_energy).

    All canonical labels appear (zero rows included) in a fixed order;
    labels whose power varies per dwell (wub_tx) report their average power.
    """
    total = ledger.total_energy_j()
    rows = []
    for label in POWER_LABELS:
        t = ledger.time_ns.get(label, 0)
        e = ledger.energy_j.get(label, 0.0)
        if label in power_table_w:
            p = power_table_w[label]
        else:
            p = e / (t / NS_PER_S) if t else 0.0
        pct = 100.0 * e / total if total > 0 else 0.0
        rows.append((label, p, t, e, pct))
    return rows


class MoteDevice:
    """One mote's composite state; mutated only on the engine thread.

    The wake path after a wake-up interrupt is mechanical (7 us MCU wake),
    after which the application layer owns radio policy via the driver
    operations. ``transition`` and ``receive`` implement the table in the
    module docstring; ``transition`` returns follow-up events for the engine
    to schedule. It is built from its node's ``NodeSpec``, which was checked
    when it was built; the node's role sets whether the MCU starts awake
    (``AWAKE_ROLES``).
    """

    def __init__(self, spec: NodeSpec):
        self.address = spec.address
        self.position = spec.position
        self.power_table_w = power_table(spec)
        self.wurx = spec.wurx
        self.wurx_decoding = False
        self.wurx_interrupts = 0
        self.wurx_false_rejected = 0
        self._wakeup = TransitionResult(MCU_WAKING, RADIO_OFF, (
            (spec.mcu_wakeup_ns, MCU_AWAKE),), notify=True)
        self._turning_on = TransitionResult(MCU_ACTIVE, RADIO_TURNING_ON, (
            (spec.radio_turn_on_ns, RADIO_READY),), notify=True)
        self.wub_tx_power_w = 0.0  # the last burst's duty-scaled power
        self.ledger = EnergyLedger(
            spec.battery_j, spec.harvest_rate_w * spec.harvest_efficiency)
        # enter the initial state, which sets mcu, radio and the label
        self._label_since_ns = 0
        self._apply(0, _ACTIVE_OFF if spec.role in AWAKE_ROLES else _ASLEEP)

    # -- events ---------------------------------------------------------------

    def transition(self, event: NodeEvent, now_ns: int) -> TransitionResult:
        mcu, radio = self.mcu, self.radio
        result = None
        if mcu is MCU_ACTIVE:
            if radio is RADIO_STANDBY or radio is RADIO_RX:
                if event is TX_REQUEST:
                    result = _ACTIVE_TX
                elif event is SLEEP_REQUEST:
                    result = _ASLEEP
                elif event is TURN_RADIO_OFF:
                    result = _ACTIVE_OFF
                elif event is BEGIN_WUB_TX:
                    result = _WUB_TX
                elif radio is RADIO_STANDBY:
                    if event is START_RX:
                        result = _ENTER_RX
                elif event is STOP_RX:
                    result = _ACTIVE_STANDBY
            elif radio is RADIO_TX:
                if event is TX_DONE:
                    result = _ACTIVE_STANDBY
            elif radio is RADIO_OFF:
                if event is TURN_RADIO_ON:
                    result = self._turning_on
                elif event is SLEEP_REQUEST:
                    result = _ASLEEP
            elif event is RADIO_READY:  # the radio is turning on
                result = _RADIO_READY
        elif mcu is MCU_SLEEP:
            if event is WURX_INTERRUPT or event is WAKE:
                result = self._wakeup
        elif event is MCU_AWAKE:  # the MCU is waking
            result = _AWAKE
        if result is not None:
            return self._apply(now_ns, result)
        if event is WURX_INTERRUPT:
            # re-trigger while already awake/waking: documented no-op
            return TransitionResult(mcu, radio)
        raise self._illegal(event.text, now_ns)

    def receive(self, now_ns: int) -> None:
        """Decode a frame that ends at ``now_ns`` (rx_done): charge the rx
        dwell up to it, as ``_apply`` would for the state held."""
        if self.radio is not RADIO_RX:  # the MCU is active in rx
            raise self._illegal("rx_done", now_ns)
        dt = now_ns - self._label_since_ns
        if dt > 0:
            self.ledger.accrue(self._label, self._label_power_w, dt)
            self._label_since_ns = now_ns
        elif dt < 0:
            raise IllegalTransition(
                f"node {self.address}: ledger time moved backwards")

    def begin_wub_tx(self, now_ns: int, duty: float) -> TransitionResult:
        """Enter TX for an OOK wake-up frame, charged at duty-scaled power.

        The burst's power is set first; it is read only while the burst's
        own result holds, so an illegal call changes no charge."""
        self.wub_tx_power_w = self.power_table_w["lora_tx"] * duty
        return self.transition(BEGIN_WUB_TX, now_ns)

    # -- internals ------------------------------------------------------------

    def _illegal(self, event_text: str, now_ns: int) -> IllegalTransition:
        return IllegalTransition(
            f"node {self.address}: event {event_text} illegal in state "
            f"(mcu={self.mcu.value}, radio={self.radio.value}) at t={now_ns} ns")

    def _apply(self, now_ns: int, result: TransitionResult) -> TransitionResult:
        """Charge the dwell in the outgoing label up to ``now_ns``, then
        enter ``result``'s state and pick its label and power.

        The dwell is charged at the label and power cached when it began, so
        a caller may flag a WuRX decode or set the burst power first. Every
        change of label goes through here, so the per-label times partition
        the run exactly. The state entered sets the rest: ``rx_since_ns``
        is the ns rx was entered, and a burst's result charges ``wub_tx``.
        """
        dt = now_ns - self._label_since_ns
        if dt > 0:
            self.ledger.accrue(self._label, self._label_power_w, dt)
            self._label_since_ns = now_ns
        elif dt < 0:
            raise IllegalTransition(
                f"node {self.address}: ledger time moved backwards")
        radio = result.radio
        if radio is not RADIO_RX:
            self.rx_since_ns = None
        elif self.radio is not RADIO_RX:
            self.rx_since_ns = now_ns
        if radio is RADIO_TX:
            label = "wub_tx" if result is _WUB_TX else "lora_tx"
        elif radio is RADIO_RX:
            label = "lora_rx"
        elif result.mcu is not MCU_SLEEP:
            label = "mcu_active"
        elif self.wurx_decoding:
            label = "wurx_decode"
        else:
            label = "sleep"
        self.mcu = result.mcu
        self.radio = radio
        self._state = result
        self._label = label
        self._label_power_w = self.wub_tx_power_w if result is _WUB_TX \
            else self.power_table_w[label]
        return result

    def wurx_decode(self, decoding: bool, now_ns: int) -> None:
        """Start or end a decode, which also changes the charged label."""
        if self.wurx is None:
            raise IllegalTransition(
                f"node {self.address} has no wake-up receiver")
        self.wurx_decoding = decoding
        self._apply(now_ns, self._state)

    def finalize(self, horizon_ns: int) -> None:
        """Charge the last dwell up to the horizon."""
        self._apply(horizon_ns, self._state)
