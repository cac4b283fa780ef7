"""Deterministic discrete-event engine and the two experiment drivers.

One event loop per scenario, single-threaded. It checks nothing: a
``Scenario`` checked itself when it was built. Events are ordered by
(timestamp, sequence) where the sequence is a monotonic tiebreaker, so a
run is fully reproducible and its dispatch trace can be hashed. Events
falling past the horizon are discarded; every node ledger is finalised at
exactly the horizon so per-state dwell times partition the run.

Frame reception is evaluated at the frame's end: by then every overlapping
transmission has started, so the capture decision sees the complete
interferer set. A receiver counts as listening if its radio has been in rx
continuously since no later than the frame's first sample (boundary
inclusive). Delivery visits listeners only: the engine keeps the nodes
whose transition put the radio in rx, in ascending address order, sorted
when one registers; it drops one once it is found out of rx, and decides a
frame at the rest in that order. Every other node was not listening, and
that outcome is recorded only for the frame's ``dst``; ``heard``, if asked
for, keeps every decision, the ``channel.ReceptionOutcome`` itself, by
(sender, listener). A decision is that one record: the engine reads its
cause once. A listener's rival index, the frames on air that it did not
send sorted by RSSI there, is built when a decision there finds company on
air and no index; every change of the on-air list empties them all, so an
index that is read holds exactly those frames. A frame alone on air is
decided with no rival and builds no index. In an unshadowed run, a frame
with no rival at a listener takes the decision stored for its RSSI there,
spreading factor and bandwidth, made for the first such frame: the gates
then read nothing else, and without shadowing a link has one RSSI per tx
power, so that store stays small. A frame with a rival, or under
shadowing, is decided on its own.

A frame carries its own airtime interval, so it is the one record of a
transmission: the medium, each listener's rival index and the undecided
frames hold the frame itself, and a send's handle is its frame id. The medium
keeps only the frames that can still matter: once a frame is decided, every
frame that ended at or before the floor is dropped, the earliest start of the
frames still undecided, or now when none is (then every frame on air has
ended). A frame decided later starts at or after the floor, so it cannot
overlap them. Undecided frames are kept by frame id, which is start order
since now never decreases, so the floor is the first of them. The floor never
falls, and the on-air list is rebuilt only when it has risen: a frame added
since the last rebuild started at or after that floor with positive airtime,
so that floor would drop nothing. A rebuild that drops a frame, like a frame
going on air, empties the rival indexes. Carrier sense reads this short list,
and the capture decision the head of each listener's index of it, so the cost
per event does not grow with the horizon; the dispatch trace is hashed in
chunks of at most 1,024 lines, so its memory is constant too.

A wake-up exchange's burst is described by the target's wurx block alone, so
it is built once, with the initiator's data delay, and every cycle sends it.
A burst is one event, its end: each receiver it reaches at or above
sensitivity decodes for exactly its airtime, so the end closes those decodes
in ascending address order, then the sender's tx. Only the initiator sends
bursts, never while in tx, so none arrives mid-decode. Nodes never move, so
at a sender's first frame the engine caches its distance and mean path loss
to every other node, and at its first wake-up burst to every other WuRX node;
a packet record reads its distance there. Each frame or burst then takes only
the shadowing draws, one per receiver in ascending address order, in one
``channel.RssiOnRead`` built by ``_rssi_by_rx``: bit for bit what
``channel.rssi_at``'s ``rng.gauss`` calls would give, drawn when the frame
starts but transformed on read, so only at the receivers that read it, its
``dst`` and the listeners. With no shadowing the RNG is not touched, and a
sender's frames share one RSSI map per tx power. A frame's airtime and noise
floor are stored by (the sending driver's config, frame length), so a driver
reconfigured mid-run needs no invalidation; the devices are built in
ascending address order. A frame's link header is read once, with the stack's
header format, and the stack filters on the ``dst`` read there, so it decodes
only the frames it hands up. Its packet record is built with its outcome,
when it is decided or, in flight, at the horizon; the run's per-link counts
are taken from those records, put in send order, at the end.

The per-event path is flat. ``run_until`` pops an event, keeps its trace
line and handles node timers and callbacks itself, including the skip of a
depleted node; only frame ends and burst ends go through a helper, and the
dispatch order is checked on the two ints. A withdrawn callback is dropped
as it is popped, before all that, so it is no event. A node timer costs one
``MoteDevice.transition`` call, which returns the shared state it entered:
radio-ready, where the app's hook runs, or ``STOPPED``, a wake stopped
by an empty battery, which the engine logs. Each other call site acts on the
one state it can reach: a driver's radio-on schedules its radio-ready, its
start_rx registers the listener, and a burst's end sets a wake timer for an
interrupt that returned ``HELD``. A sleeping sender's frame takes two
events: its wake timer, due at radio-ready, which charges the sleep, the MCU
wake-up and the turn-on and enters that one state, and its end. A WuRX
interrupt holds the same wake from the burst's end, so a wake-up cycle takes
six: the cycle, which schedules the next, the burst's end, the data slot, the
sleeper's wake timer, the frame's end, which withdraws the rx timeout, and
the linger. The horizon reads each node's held wake. A decode at a listener
changes no state: it costs one ``MoteDevice.receive`` call, a ledger charge,
and the engine hands the frame to the stack itself. Each event kind is its
own trace text, and so is each node event, which a node timer carries; an
event of an unknown kind raises ``MotesimError`` as it is dispatched.
"""

import collections
import hashlib
import heapq
import itertools
import random
import time

from . import channel as chan
from . import node as nd
from . import report as rep
from . import stack as stk
from . import wurx as wux
from .errors import ContractViolation, MotesimError, RadioUnavailable
from .frame import Frame
from .node import (DEFAULT_POWER_TABLE_W, HELD, MCU_ACTIVE, RADIO_OFF,
                   RADIO_RX, RADIO_STANDBY, RADIO_TURNING_ON, RADIO_TX,
                   STOPPED, MoteDevice, NodeSpec, SUPPLY_VOLTAGE_V,
                   power_report)
from .phy import SensitivityTable, time_on_air
# range_point_scenario is unused here: perfbench's traced mode patches it
from .scenario import (DEFAULT_SWEEP_DISTANCES_M, Scenario,
                       power_profile_scenario, range_point_scenario,
                       range_sweep_scenario, scenario_hash)


# The event kinds, each its own text in the dispatch trace. Node timers are
# timer[wake] and timer[radio_ready] only.
NODE_TIMER = "node_timer"
CALLBACK = "callback"
TX_END = "tx_end"
WUB_END = "wub_end"
_TRACE_BATCH = 1024  # trace lines per hash update, not one update per line


class SimRadioDriver(stk.RadioDriver):
    """Radio contract backend driving one simulated mote."""

    def __init__(self, sim: "Simulator", device: MoteDevice):
        self.sim = sim
        self.device = device
        self.rx_done = None  # the stack's, called by the engine on a decode
        self._tx_cb = None
        self._config = sim.scenario.radio
        self._in_tx_done = False

    def bind(self, rx_done=None, tx_done=None) -> None:
        if rx_done is not None:
            self.rx_done = rx_done
        if tx_done is not None:
            self._tx_cb = tx_done

    def init(self) -> None:
        """Nothing to reset: the device holds all radio state."""

    def configure(self, config) -> None:
        if self.device.radio in (RADIO_TX, RADIO_RX, RADIO_TURNING_ON):
            raise ContractViolation(
                "configure while the radio is transmitting, receiving or "
                "powering up")
        self._config = config

    @property
    def config(self):
        return self._config

    def on(self) -> None:
        device, now = self.device, self.sim.now
        device.transition(nd.TURN_RADIO_ON, now)
        self.sim.schedule(now + device.radio_turn_on_ns, NODE_TIMER,
                          device.address, nd.RADIO_READY)

    def off(self) -> None:
        self.device.transition(nd.TURN_RADIO_OFF, self.sim.now)

    def start_rx(self) -> None:
        device = self.device
        device.transition(nd.START_RX, self.sim.now)
        listeners = self.sim._listeners  # kept in ascending address order
        if device.address not in listeners:
            listeners[device.address] = device
            ordered = sorted(listeners.items())
            listeners.clear()
            listeners.update(ordered)

    def stop_rx(self) -> None:
        self.device.transition(nd.STOP_RX, self.sim.now)

    def channel_clear(self) -> bool:
        return not self.sim.medium_busy(self._config.frequency_hz)

    def is_on(self) -> bool:
        return self.device.radio is not RADIO_OFF

    def is_ready(self) -> bool:
        return self.device.radio is RADIO_STANDBY

    def send(self, data: bytes):
        if self._in_tx_done:
            raise ContractViolation(
                "send called from inside a tx_done callback; defer via timer")
        if self.device.radio not in (RADIO_STANDBY, RADIO_RX):  # so awake
            raise RadioUnavailable(
                f"radio of node {self.device.address} is "
                f"{self.device.radio}; cannot send")
        return self.sim.begin_transmission(self.device, bytes(data)).frame_id

    def fire_tx_done(self, frame_id: int) -> None:
        if self._tx_cb is not None:
            self._in_tx_done = True
            try:
                self._tx_cb(frame_id)
            finally:
                self._in_tx_done = False


class Simulator:
    """Builds a scenario's devices, drivers and applications, and runs the
    event loop to the horizon; the scenario checked itself when built."""

    def __init__(self, scenario: Scenario, record_trace: bool = True,
                 record_heard: bool = False):
        self.scenario = scenario
        self.table = SensitivityTable.load_default()
        self.rng = random.Random(scenario.seed)
        self.now = 0
        self._last_key = (-1, -1)
        self._seq = itertools.count()
        self._queue: list = []
        self._withdrawn: set = set()  # sequence numbers of cancelled callbacks
        self._frame_ids = itertools.count(1)
        self._trace = hashlib.sha256() if record_trace else None
        self._trace_lines: list = []  # dispatched, not yet hashed
        self.event_count = 0
        self.log_lines: list = []

        self.devices: dict = {}
        self.drivers: dict = {}
        self.unicasts: dict = {}
        self.apps: dict = {}
        self._on_air: list = []  # those that may overlap an undecided frame
        self._tx_by_id: dict = {}  # frame_id -> frame, for undecided frames
        self._floor = 0  # the pruning floor _on_air was last rebuilt with
        self._links: dict = {}  # (sender address, wake_up) -> its links
        self._distance: dict = {}  # (sender, receiver) -> metres, with _links
        self._frame_facts: dict = {}  # (config, length) -> (noise, airtime)
        self._flat_rssi: dict = {}  # (sender, wake_up, tx power) -> RSSIs
        self._listeners: dict = {}  # address -> device, ascending address
        self._rivals: dict = {}  # listener -> its index, built when read
        # (rssi, sf, bandwidth) -> the ReceptionOutcome of a frame with no
        # rival, in an unshadowed run only
        self._lone_decisions = (
            None if scenario.channel.shadowing_sigma_db else {})
        # (src, listener) -> [ReceptionOutcome], one per frame decided
        # there, if asked for
        self.heard = collections.defaultdict(list) if record_heard else None

        self.packets: list = []

        for spec in sorted(scenario.nodes, key=lambda n: n.address):
            device = self.devices[spec.address] = MoteDevice(spec)
            driver = self.drivers[spec.address] = SimRadioDriver(self, device)
            self.unicasts[spec.address] = stk.Unicast(driver, spec.address)
        self._build_apps()

    # -- construction ---------------------------------------------------------

    def _services_for(self, address: int) -> stk.Services:
        device = self.devices[address]
        return stk.Services(
            now_ns=lambda: self.now,
            call_at=lambda at_ns, fn: self.schedule(
                at_ns, CALLBACK, address, fn),
            cancel=self._withdrawn.add,
            request_sleep=lambda: device.transition(nd.SLEEP_REQUEST,
                                                    self.now),
            wake_at=lambda tick_ns: self.schedule(
                device.hold_wake(tick_ns), NODE_TIMER, address, nd.WAKE),
            send_burst=lambda: self.send_burst(device),
            # awake, or past a held wake's tick: its timer runs after the slot
            target_awake=lambda addr: (
                self.devices[addr].mcu is MCU_ACTIVE
                or self.devices[addr].wake_tick_ns <= self.now),
            log=self.log_lines.append,
        )

    def _build_apps(self) -> None:
        scenario = self.scenario
        app = scenario.app
        if app.kind == "periodic":
            for sender in map(scenario.node, scenario.periodic_senders()):
                address = sender.address
                self.apps[address] = stk.PeriodicSenderApp(
                    self.unicasts[address], self._services_for(address),
                    dst=app.dst, payload_len=app.payload_len,
                    period_ns=app.period_ns,
                    idle_policy="rx" if sender.role == "bs" else "sleep")
        elif app.kind == "wakeup_exchange":
            target = scenario.node(app.target)
            # the scenario checks that the target has a wurx block
            self._wub = wux.send_wub(target.wurx)
            self.apps[app.initiator] = stk.WakeupInitiatorApp(
                self.unicasts[app.initiator],
                self._services_for(app.initiator),
                target=app.target,
                payload_len=app.payload_len,
                cycle_period_ns=app.cycle_period_ns,
                cycles=app.cycles,
                data_delay_ns=(self._wub.duration_ns + target.mcu_wakeup_ns
                               + target.radio_turn_on_ns))
            self.apps[app.target] = stk.WakeupSleeperApp(
                self.unicasts[app.target], self._services_for(app.target),
                linger_ns=app.linger_ns, rx_timeout_ns=app.rx_timeout_ns)

        for spec in scenario.nodes:
            if spec.address not in self.apps and spec.role == "bs":
                self.apps[spec.address] = stk.SinkApp(
                    self.unicasts[spec.address])

    # -- scheduling -----------------------------------------------------------

    def schedule(self, at_ns: int, kind: str, target, payload=None) -> int:
        if at_ns < self.now:
            raise MotesimError(
                f"event {kind} scheduled into the past "
                f"({at_ns} < {self.now})")
        seq = next(self._seq)
        heapq.heappush(self._queue, (at_ns, seq, kind, target, payload))
        return seq

    # -- medium ---------------------------------------------------------------

    def medium_busy(self, frequency_hz: float) -> bool:
        return any(o.start_ns <= self.now < o.end_ns
                   and o.frequency_hz == frequency_hz for o in self._on_air)

    def _rssi_by_rx(self, sender: MoteDevice, wake_up: bool) -> dict:
        """The RSSI of a new frame at every other node, or of a new wake-up
        burst at every other WuRX node, with the arithmetic and draw order
        of ``channel.rssi_at``: a ``channel.RssiOnRead`` under shadowing,
        else a plain dict shared by the sender's frames or bursts at a power.
        """
        tx_power_dbm = self.drivers[sender.address].config.tx_power_dbm
        sigma = self.scenario.channel.shadowing_sigma_db
        if not sigma:
            flat_key = (sender.address, wake_up, tx_power_dbm)
            if flat_key in self._flat_rssi:
                return self._flat_rssi[flat_key]
        links = self._links.get((sender.address, wake_up))
        if links is None:
            params = self.scenario.channel
            links = {}
            for rx_addr, receiver in self.devices.items():
                if rx_addr == sender.address or (wake_up
                                                 and receiver.wurx is None):
                    continue
                metres = sender.position.distance_to(receiver.position)
                self._distance[sender.address, rx_addr] = metres
                links[rx_addr] = len(links), chan.path_loss_db(metres, params)
            self._links[(sender.address, wake_up)] = links
        if sigma:
            return chan.RssiOnRead(tx_power_dbm, links, self.rng, sigma)
        rssi_by_rx = self._flat_rssi[flat_key] = {
            rx: tx_power_dbm - loss for rx, (_index, loss) in links.items()}
        return rssi_by_rx

    def begin_transmission(self, device: MoteDevice, data: bytes) -> Frame:
        config = self.drivers[device.address].config
        facts = self._frame_facts.get((config, len(data)))
        if facts is None:
            facts = self._frame_facts[config, len(data)] = (
                chan.noise_floor_dbm(config.bandwidth_hz,
                                     self.scenario.channel.noise_figure_db),
                time_on_air(config, len(data)))
        if len(data) >= stk.HEADER_BYTES:
            _src, dst, seqno = stk.HEADER.unpack_from(data)
        else:
            dst = seqno = None
        frame = Frame(  # positional: keywords cost twice as much
            next(self._frame_ids), device.address, dst, seqno, data,
            config.spreading_factor, config.bandwidth_hz, config.frequency_hz,
            facts[0], self._rssi_by_rx(device, False), self.now,
            self.now + facts[1])
        device.transition(nd.TX_REQUEST, self.now)  # no result to act on
        self._on_air.append(frame)
        self._rivals.clear()
        self._tx_by_id[frame.frame_id] = frame
        self.schedule(frame.end_ns, TX_END, device.address, frame.frame_id)
        return frame

    def send_burst(self, device: MoteDevice) -> None:
        # only the wake-up initiator sends bursts, all of them the run's
        # one burst; begin_wub_tx rejects one while the radio is off or busy
        burst = self._wub
        device.begin_wub_tx(self.now, burst.duty)  # no result to act on
        rssi_by_rx = self._rssi_by_rx(device, True)
        decoding = []  # (receiver, interrupt), in ascending address order
        for rx_addr in rssi_by_rx:
            receiver = self.devices[rx_addr]
            interrupt = wux.receive_wub(receiver.wurx, burst.address,
                                        rssi_by_rx[rx_addr])
            if interrupt is not None:  # at or above sensitivity
                receiver.wurx_decode(True, self.now)
                decoding.append((receiver, interrupt))
        self.schedule(self.now + burst.duration_ns, WUB_END,
                      device.address, decoding)

    # -- event loop -------------------------------------------------------------

    def start_apps(self) -> None:
        for address in sorted(self.apps):
            self.apps[address].start()

    def run_until(self, t_ns: int) -> None:
        """Dispatch every event up to and including ``t_ns``, then park the
        clock there. Events scheduled past ``t_ns`` stay queued.

        Node timers and callbacks for a depleted node are dropped and
        logged; the trace still records them. A withdrawn callback is
        dropped unseen."""
        queue = self._queue
        pop = heapq.heappop
        withdrawn = self._withdrawn
        devices, apps = self.devices, self.apps
        trace = self._trace
        lines = self._trace_lines
        last_ts, last_seq = self._last_key
        while queue and queue[0][0] <= t_ns:
            ts, seq, kind, target, payload = pop(queue)
            if seq in withdrawn:
                withdrawn.remove(seq)
                continue
            if ts < last_ts or ts == last_ts and seq <= last_seq:
                raise MotesimError("event dispatch out of (timestamp, "
                                   "sequence) order")
            last_ts, last_seq = ts, seq
            self.now = ts
            self.event_count += 1
            if trace is not None:
                lines.append(f"{ts} {seq} {kind} {target} "
                             f"{payload if kind == NODE_TIMER else ''}")
                if len(lines) == _TRACE_BATCH:
                    self._hash_trace_lines()
            if kind == NODE_TIMER or kind == CALLBACK:
                device = devices[target]
                if device.ledger.depleted:
                    self.log_lines.append(
                        f"drop {kind} for depleted node {target}")
                elif kind == CALLBACK:
                    payload()
                elif device.transition(payload, ts) is STOPPED:
                    # a wake, by the charge that emptied the battery
                    self.log_lines.append(f"node {target} depleted at {ts} ns")
                elif target in apps:  # the radio is ready
                    apps[target].on_radio_ready()
            elif kind == TX_END:
                self._finish_tx(payload)
            elif kind == WUB_END:
                self._finish_burst(target, payload)
            else:
                raise MotesimError(f"unknown event kind {kind!r}")
        self._last_key = last_ts, last_seq
        self.now = t_ns

    def run(self) -> rep.RunMetrics:
        started = time.perf_counter()
        horizon = self.scenario.horizon_ns
        self.start_apps()
        self.run_until(horizon)
        for frame in self._tx_by_id.values():  # on air at the horizon
            self._record_packet(frame, "in-flight")
        # frames of unequal airtime are decided out of start order; a
        # record's first field is its unique frame id, so this is send order
        self.packets.sort()
        for device in self.devices.values():
            device.finalize(horizon)
        return self._collect(time.perf_counter() - started)

    def _finish_tx(self, frame_id: int) -> None:
        frame = self._tx_by_id.pop(frame_id)
        self.devices[frame.src].transition(nd.TX_DONE, self.now)
        self.drivers[frame.src].fire_tx_done(frame_id)
        self._record_packet(frame, self._deliver(frame))
        undecided = self._tx_by_id
        # with none undecided, every frame on air has ended by now
        floor = (next(iter(undecided.values())).start_ns if undecided
                 else self.now)
        if floor <= self._floor:
            return
        self._floor = floor
        on_air = [o for o in self._on_air
                  if o.end_ns > floor] if undecided else []
        if len(on_air) < len(self._on_air):  # else no frame was dropped
            self._rivals.clear()
        self._on_air = on_air

    def _finish_burst(self, address: int, decoding: list) -> None:
        """End each decode the burst began, then the sender's tx."""
        for receiver, interrupt in decoding:
            receiver.wurx_decode(False, self.now)
            if not interrupt:
                receiver.wurx_false_rejected += 1
                continue
            receiver.wurx_interrupts += 1
            if (not receiver.ledger.depleted and receiver.transition(
                    nd.WURX_INTERRUPT, self.now) is HELD):
                self.schedule(self.now + receiver.wake_ns, NODE_TIMER,
                              receiver.address, nd.WAKE)
        self.devices[address].transition(nd.TX_DONE, self.now)

    def _deliver(self, frame: Frame) -> str:
        """Decide the frame at every listener; returns its dst's outcome."""
        start_ns, end_ns = frame.start_ns, frame.end_ns
        frequency_hz, sf = frame.frequency_hz, frame.spreading_factor
        src, dst, bandwidth_hz = frame.src, frame.dst, frame.bandwidth_hz
        rssi_by_rx = frame.rssi_by_rx
        params = self.scenario.channel
        lone = self._lone_decisions
        listeners, indexes = self._listeners, self._rivals
        drivers, heard_by, now = self.drivers, self.heard, self.now
        alone = len(self._on_air) == 1  # then no listener needs an index
        dst_outcome = "not-listening"
        for rx_addr, device in list(listeners.items()):
            rx_since_ns = device.rx_since_ns
            if rx_since_ns is None:  # it has left rx since
                del listeners[rx_addr]
                continue
            # in rx since the frame's start at the latest: not its sender
            if rx_since_ns > start_ns or device.ledger.depleted:
                continue
            strongest = None
            if not alone:  # the strongest: first overlap on its channel, SF
                rivals = indexes.get(rx_addr)
                if rivals is None:
                    rivals = indexes[rx_addr] = sorted(
                        (-o.rssi_by_rx[rx_addr], o.frame_id, o)
                        for o in self._on_air if o.src != rx_addr)
                for neg_rssi, _frame_id, o in rivals:
                    if (o is not frame and o.frequency_hz == frequency_hz
                            and o.spreading_factor == sf
                            and o.start_ns < end_ns and start_ns < o.end_ns):
                        strongest = -neg_rssi
                        break
            if strongest is None and lone is not None:
                key = (rssi_by_rx[rx_addr], sf, bandwidth_hz)
                decision = lone.get(key)
                if decision is None:
                    decision = lone[key] = chan.decide_reception(
                        frame, rx_addr, None, self.table,
                        params.capture_threshold_db)
            else:
                decision = chan.decide_reception(
                    frame, rx_addr, strongest, self.table,
                    params.capture_threshold_db)
            if heard_by is not None:
                heard_by[src, rx_addr].append(decision)
            cause = decision.cause
            if cause == "ok":
                device.receive(now)
                drivers[rx_addr].rx_done(frame)  # bound by its Unicast
            if rx_addr == dst:
                # Unicast hands up a decoded frame iff it is addressed here
                dst_outcome = "delivered" if cause == "ok" else cause
        return dst_outcome

    def _record_packet(self, frame: Frame, outcome: str) -> None:
        """Keep the frame's packet record with its ``dst``'s outcome; a
        frame with no other node as ``dst`` has none."""
        src, dst = frame.src, frame.dst
        if dst == src or dst not in self.devices:  # None too: no header
            return
        rssi = frame.rssi_by_rx[dst]
        self.packets.append(rep.PacketRecord(
            frame.frame_id, src, dst, frame.seqno, frame.start_ns,
            self._distance[src, dst], rssi, rssi - frame.noise_floor_dbm,
            outcome))

    # -- results ------------------------------------------------------------------

    def _hash_trace_lines(self) -> None:
        """Hash the kept lines as one newline-joined chunk; once one is
        hashed, an empty line opens the next, for the newline before it."""
        lines = self._trace_lines
        if lines:
            self._trace.update("\n".join(lines).encode("utf-8"))
            lines[:] = [""]

    def trace_hash(self) -> str:
        if self._trace is None:
            return ""
        self._hash_trace_lines()
        return self._trace.hexdigest()

    def _calibration(self) -> dict:
        radio = self.scenario.radio
        return {
            **self.scenario.channel._asdict(),
            "spreading_factor": radio.spreading_factor,
            "bandwidth_hz": radio.bandwidth_hz,
            "coding_rate": radio.coding_rate,
            "tx_power_dbm": radio.tx_power_dbm,
            "preamble_symbols": radio.preamble_symbols,
            "link_header_version": stk.HEADER_VERSION,
            "sensitivity_table_version": self.table.version,
            "mcu_active_w_default": DEFAULT_POWER_TABLE_W["mcu_active"],
            "radio_turn_on_ns_default": NodeSpec._field_defaults["radio_turn_on_ns"],
            "supply_voltage_v": SUPPLY_VOLTAGE_V,
        }

    def _collect(self, wallclock_s: float) -> rep.RunMetrics:
        metrics = rep.RunMetrics(
            scenario_hash=scenario_hash(self.scenario),
            seed=self.scenario.seed,
            horizon_ns=self.scenario.horizon_ns,
            calibration=self._calibration(),
            packets=self.packets,
            event_count=self.event_count,
            trace_hash=self.trace_hash(),
            wallclock_s=wallclock_s,
        )
        for address, device in self.devices.items():
            ledger = device.ledger
            metrics.energy.append(rep.NodeEnergyReport(
                address, power_report(ledger, device.power_table_w),
                ledger.battery_initial_j, ledger.battery_remaining_j,
                ledger.consumed_j, ledger.harvested_j, ledger.depleted,
                ledger.total_time_ns(), device.wurx_interrupts,
                device.wurx_false_rejected))
        metrics.exchanges = self._collect_exchanges()
        return metrics

    def _collect_exchanges(self) -> list:
        app = self.scenario.app
        if app.kind != "wakeup_exchange":
            return []
        rx_by_seqno = {msg.seqno: t_rx
                       for t_rx, msg in self.apps[app.target].received}
        records = []
        for cycle, wub_start, seqno in self.apps[app.initiator].exchanges:
            t_rx = rx_by_seqno.get(seqno)  # None too after a wake timeout
            status = ("wake-timeout" if seqno is None else
                      "data-lost" if t_rx is None else "completed")
            records.append(rep.ExchangeRecord(cycle, wub_start, status, t_rx))
        return records


def run(scenario: Scenario, record_trace: bool = True) -> rep.RunMetrics:
    """Build and run one scenario, which checked itself when built."""
    return Simulator(scenario, record_trace=record_trace).run()


def range_sweep(distances=DEFAULT_SWEEP_DISTANCES_M, packets: int = 360,
                period_s: float = 10.0, payload_len: int = 16, seed: int = 1,
                shadowing_sigma_db: float = 0.0):
    """Coverage experiment: one run of ``range_sweep_scenario``, at every σ,
    whose base stations only listen, so none affects another. Under
    shadowing each frame takes one draw per station, in ascending address
    order, from the run's one RNG, so a point's draws depend on how many
    stations come before it. Returns (rows, meta, [the run's RunMetrics]).
    A point's row, and its (mote, base station) link in ``links``, count as
    sent every frame the mote sent, from its packet records, since every
    frame goes to station 1. Delivered and the RSSI/SNR means are taken
    from the cause, RSSI and SNR of the ``ReceptionOutcome`` records in
    ``heard``, one per frame decided at the station: the run ends when the
    mote's last frame lands, so that is every frame until the station's
    battery runs out, and none after.
    """
    scenario = range_sweep_scenario(distances, packets, period_s, payload_len,
                                    seed, shadowing_sigma_db)
    sim = Simulator(scenario, record_trace=False, record_heard=True)
    metrics = sim.run()
    mote = len(distances) + 1  # after stations 1, 2, ... in point order
    sent = metrics.link(mote, 1).sent
    rows = []
    for bs, distance in enumerate(distances, 1):
        causes, rssi, snr, *_ = zip(*sim.heard[mote, bs])
        stats = metrics.links[mote, bs] = rep.LinkStats(
            sent, causes.count("ok"))
        rows.append(rep.SweepRow(distance, sent, stats.delivered, stats.pdr,
                                 sum(rssi) / len(rssi), sum(snr) / len(snr)))
    meta = dict(metrics.calibration)
    meta.update({"packets_per_distance": packets, "seed": seed,
                 "period_s": period_s, "payload_len": payload_len})
    return rows, meta, [metrics]


def power_profile(**params) -> rep.RunMetrics:
    """Micro-benchmark experiment: wake-up-then-exchange cycles, with
    ``params`` as ``power_profile_scenario`` takes them."""
    return run(power_profile_scenario(**params))
