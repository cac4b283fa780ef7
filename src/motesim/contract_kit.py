"""Reusable conformance checks for RadioDriver implementations.

Any backend can be exercised by wrapping it in a harness with three
members: ``driver`` (the implementation under test), ``advance(ns)``
(progress whatever clock drives the backend) and ``make_config()``
(a valid RadioConfig for it). ``run_contract_checks`` drives the driver
through init/configure/send/rx sequences and verifies the contract rules:

  * configure is rejected while the radio is powering up, receiving or
    transmitting;
  * every accepted send yields exactly one tx_done callback;
  * send is rejected while off, while busy, and from inside tx_done;
  * channel_clear returns a boolean.

Each check returns on success and raises ContractCheckFailure otherwise.
"""

from .errors import ContractViolation, MotesimError, RadioUnavailable


class ContractCheckFailure(MotesimError):
    """A driver violated the radio contract."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ContractCheckFailure(message)


def _expect_raises(exc_types, fn, message: str) -> None:
    try:
        fn()
    except exc_types:
        return
    raise ContractCheckFailure(message)


def check_init_and_configure(harness) -> None:
    driver = harness.driver
    driver.init()
    driver.configure(harness.make_config())
    _expect(not driver.is_on(), "driver must start powered off")


def check_power_up(harness) -> None:
    driver = harness.driver
    driver.on()
    _expect_raises(
        (ContractViolation,), lambda: driver.configure(harness.make_config()),
        "configure during power-up must be rejected")
    harness.advance(harness.turn_on_ns)
    _expect(driver.is_on() and driver.is_ready(),
            "radio must be ready after its turn-on time")
    _expect(driver.channel_clear() in (True, False),
            "channel_clear must return a boolean")


def check_no_configure_while_rx(harness) -> None:
    driver = harness.driver
    driver.start_rx()
    _expect_raises(
        (ContractViolation,), lambda: driver.configure(harness.make_config()),
        "configure while receiving must be rejected")
    driver.stop_rx()
    driver.configure(harness.make_config())  # legal again when idle


def check_one_tx_done_per_send(harness) -> None:
    driver = harness.driver
    done = []
    driver.bind(tx_done=done.append)
    handle = driver.send(b"\x01\x02\x03")
    _expect(handle is not None, "send must return a handle")
    _expect_raises(
        (RadioUnavailable, ContractViolation), lambda: driver.send(b"\x04"),
        "send while transmitting must be rejected")
    _expect_raises(
        (ContractViolation,), lambda: driver.configure(harness.make_config()),
        "configure while transmitting must be rejected")
    harness.advance(harness.airtime_ns(3))
    _expect(done == [handle],
            f"expected exactly one tx_done for {handle}, got {done}")
    harness.advance(harness.airtime_ns(3))
    _expect(done == [handle], "tx_done must not fire twice")


def check_no_send_from_tx_done(harness) -> None:
    driver = harness.driver
    violations = []

    def resend(_handle):
        try:
            driver.send(b"\x05")
        except ContractViolation:
            violations.append(True)

    driver.bind(tx_done=resend)
    driver.send(b"\x06\x07")
    harness.advance(harness.airtime_ns(2))
    _expect(violations == [True],
            "re-entrant send from within tx_done must be rejected")
    driver.bind(tx_done=lambda _h: None)


def check_off_rejects_send(harness) -> None:
    driver = harness.driver
    driver.off()
    _expect(not driver.is_on(), "off() must power the radio down")
    _expect_raises(
        (RadioUnavailable,), lambda: driver.send(b"\x08"),
        "send while off must be rejected")


ALL_CHECKS = (
    check_init_and_configure,
    check_power_up,
    check_no_configure_while_rx,
    check_one_tx_done_per_send,
    check_no_send_from_tx_done,
    check_off_rejects_send,
)


def run_contract_checks(harness) -> list:
    """Run the full sequence in order; returns the names of passed checks."""
    passed = []
    for check in ALL_CHECKS:
        check(harness)
        passed.append(check.__name__)
    return passed
