"""E8 / Table 4 — overhead of signed code capsules.

Capsules from 1 kB to 1 MB are signed and verified; the table reports
the modelled CPU cost against the wireless transfer time, plus the
end-to-end COD latency with security on vs off.  The functional half of
the experiment re-checks that tampered and untrusted capsules are
rejected on the wire.

Expected shape: signature overhead is a small, shrinking fraction of
transfer time as capsules grow (hashing is ~100ns/B, GPRS is 200µs/B).
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.core import World, mutual_trust, standard_host
from repro.lmu import CodeRepository, build_capsule, code_unit
from repro.net import GPRS, LAN, Position
from repro.security import (
    KeyPair,
    OPEN_POLICY,
    SIGNATURE_BYTES,
    signing_delay,
    verification_delay,
    sign_capsule,
)

from _common import (
    gate_against_baseline,
    instrument,
    once,
    quick,
    run_process,
    write_report,
    write_result,
)

# Quick mode drops the 1 MB capsule (a ~200 s simulated GPRS transfer
# per signed/open pair); the reported run stays SIZES[1] = 10 kB in
# both modes so the gated report is shape-identical.
SIZES = (
    [1_000, 10_000, 100_000]
    if quick()
    else [1_000, 10_000, 100_000, 1_000_000]
)


def make_capsule(size):
    repository = CodeRepository()
    repository.publish(
        code_unit("blob", "1.0.0", lambda: (lambda ctx: None), size)
    )
    return build_capsule("bench", "cod-reply", ["blob"], repository.resolve)


def cod_latency(size, signed, observe=False):
    world = World(seed=808)
    if observe:
        instrument(world)
    world.transport._rng.random = lambda: 0.999
    policy_kwargs = {} if signed else {"policy": OPEN_POLICY}
    phone = standard_host(
        world, "phone", Position(0, 0), [GPRS], cpu_speed=0.2, **policy_kwargs
    )
    repository = CodeRepository()
    repository.publish(
        code_unit("blob", "1.0.0", lambda: (lambda ctx: None), size)
    )
    server = standard_host(
        world, "server", Position(0, 0), [LAN], fixed=True,
        repository=repository,
    )
    mutual_trust(phone, server)
    phone.node.interface("gprs").attach()

    def go():
        yield from phone.component("cod").fetch(
            "server", ["blob"], timeout=3600.0
        )

    run_process(world, go())
    if observe:
        return world
    return world.now


def run_experiment():
    rows = []
    for size in SIZES:
        capsule = make_capsule(size)
        sign_s = signing_delay(capsule.size_bytes)
        verify_s = verification_delay(capsule.size_bytes)
        transfer_s = GPRS.transfer_time(capsule.size_bytes + SIGNATURE_BYTES)
        secure_latency = cod_latency(size, signed=True)
        open_latency = cod_latency(size, signed=False)
        overhead_pct = (secure_latency - open_latency) / open_latency * 100.0
        rows.append(
            [
                size,
                sign_s * 1000,
                verify_s * 1000,
                transfer_s,
                secure_latency,
                open_latency,
                overhead_pct,
            ]
        )
    return rows


def run_functional_checks():
    """Tampered and untrusted capsules must die at the receiving host."""
    world = World(seed=809)
    world.transport._rng.random = lambda: 0.999
    phone = standard_host(world, "phone", Position(0, 0), [GPRS])
    repository = CodeRepository()
    repository.publish(
        code_unit("blob", "1.0.0", lambda: (lambda ctx: None), 10_000)
    )
    server = standard_host(
        world, "server", Position(0, 0), [LAN], fixed=True,
        repository=repository,
    )
    mutual_trust(phone, server)
    phone.node.interface("gprs").attach()

    # A capsule signed by the server, then corrupted in flight.
    capsule = make_capsule(10_000)
    sign_capsule(server.keypair, capsule)
    capsule.tamper()
    rejected = {"tampered": False, "untrusted": False}

    def go():
        from repro.errors import SignatureInvalid, UntrustedPrincipal

        try:
            yield from phone.admit_capsule(capsule, "install-code")
        except SignatureInvalid:
            rejected["tampered"] = True
        stranger = KeyPair.generate(
            "stranger", world.streams.stream("keys.stranger")
        )
        fresh = make_capsule(10_000)
        sign_capsule(stranger, fresh)
        try:
            yield from phone.admit_capsule(fresh, "install-code")
        except UntrustedPrincipal:
            rejected["untrusted"] = True

    run_process(world, go())
    return rejected


def test_e8_security(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "E8 / Table 4 — signing/verification cost vs transfer time (GPRS)",
        [
            "capsule B",
            "sign ms",
            "verify ms",
            "transfer s",
            "COD signed s",
            "COD open s",
            "overhead %",
        ],
        rows,
        note="reference-speed signer; 0.2x-speed verifier inflates measured overhead",
    )
    write_result("e8_security", table)
    world = cod_latency(SIZES[1], signed=True, observe=True)
    write_report(
        "e8_security", world,
        params={"capsule_bytes": SIZES[1], "signed": True},
    )
    gate_against_baseline("e8_security")

    rejected = run_functional_checks()
    assert rejected["tampered"], "tampered capsule must be rejected"
    assert rejected["untrusted"], "untrusted signer must be rejected"

    overheads = [row[6] for row in rows]
    # Security never costs more than a few percent of a GPRS fetch.
    assert max(overheads) < 5.0
    # And the fraction shrinks as capsules grow.
    assert overheads[-1] < overheads[0]
    # Beyond the fixed-cost regime, CPU stays under 5% of transfer time.
    for row in rows:
        if row[0] >= 10_000:
            assert (row[1] + row[2]) / 1000.0 < row[3] * 0.05
