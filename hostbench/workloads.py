"""The benchmark's three canonical workloads over the public ``repro`` API.

Each workload splits into an untimed part and a timed part:

* ``setup()`` — calibration, scheme service times, trace generation and
  the first backend/wafer build: everything a user pays before the first
  operation, measured as ``setup_s``;
* ``fresh()`` — a freshly built mutable input (backend or wafer) for the
  next repetition, built outside the timed region;
* ``run(state)`` — the timed operation, returning the full output;
* ``gate(output)`` — the correctness gate every repetition passes through:
  request conservation, zero silent escapes, and the output digest.

Inputs come only from the seed; the program sees only generated inputs.
"""

import hashlib
import json

import numpy as np

from repro import calibration, obs, prodtest, service
from repro.streams import stream_rng

SCHEME = "nondestructive"
DEFAULT_SEED = 2010

#: sha256 of each workload's full output at :data:`DEFAULT_SEED`.  The
#: serving and wafer layers promise byte-identical reports, so any change
#: here is a behaviour change, not noise.
PINNED_DIGESTS = {
    "serve-sharded": "b347b8b4a8362b11dcfd3f5b2d652603892ec47bcc63c4e5fb904b19574efca9",
    "serve-backed": "5cf9596b69d2485c6bb5edf5776f593c6030e2f4c2e04cf7d5a162361816fa16",
    "wafer": "b7429525d2349063833bf5e7f8f34c213dc9a7d5d820a19e8fd7c04c367f9851",
}


class GateError(Exception):
    """A repetition's output failed the correctness gate."""


def _sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_report(report) -> int:
    """Conservation and escapes of one ServiceReport; returns failed ops.

    A request fails if it was shed, timed out, failed terminally, or was
    served with a detected loss; a silently corrupted word fails the gate.
    """
    try:
        report.check_conservation()
    except Exception as error:  # FaultError: the program broke its contract
        raise GateError(f"conservation: {error}") from error
    if report.corrupted_words:
        raise GateError(f"{report.corrupted_words} silently corrupted words")
    return (
        report.shed + report.timed_out + report.failed_requests
        + report.detected_loss
    )


class ServeSharded:
    """4x2x4 timing-mode topology: serving plumbing only, no backend."""

    name = "serve-sharded"
    requests = 20_000
    ops_per_rep = requests
    rate = 2.0e9            # past the ~1e9 req/s this topology saturates at

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        calibration.calibrate()
        self.read_time, self.write_time = service.scheme_service_times(SCHEME)
        self.topology = service.Topology(channels=4, ranks=2, banks=4)
        stream = service.build_workload(
            rate=self.rate, addressing="zipfian",
            addresses=self.topology.capacity, write_fraction=0.15,
        )
        self.trace = stream.generate(
            self.requests, stream_rng(self.seed, "workload")
        )
        return self.fresh()

    def fresh(self):
        return None

    def run(self, state):
        return service.simulate_topology(
            self.trace, self.topology,
            read_time=self.read_time, write_time=self.write_time,
            policy=service.BATCH, scheme=SCHEME, offered_rate=self.rate,
            seed=self.seed,
        )

    def publish(self, output):
        service.publish_topology_report(output)

    def ops(self, output) -> int:
        return output.merged.requests

    def gate(self, output):
        """Returns (failed ops, digest)."""
        failed = _check_report(output.merged)
        for report in output.channel_reports:
            _check_report(report)
        return failed, _sha256_json(output.to_dict())


class ServeBacked:
    """Flat 1x1x4 serving over the 16 kb recovery ladder with faults.

    The chip -- cell population, fault map and sensing stream -- is one
    fixed device (:attr:`chip_seed`); the seed drives the request trace.
    Retries cluster on hot Zipfian words that hold a disturb-prone or
    faulty cell, so their count swings 2x between chips and, on a chip
    with a heavy tail, between traces: throughput then moved +-15% from
    seed to seed.  This chip keeps a small, steady retry tail (~30 words
    per repetition), so the scalar escalation path still runs.
    """

    name = "serve-backed"
    requests = 6_000
    ops_per_rep = requests
    rate = 1.0e9            # past the ~5e8 req/s the 4 banks saturate at
    fault_rate = 1e-4
    chip_seed = 5

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        calibration.calibrate()
        self.read_time, self.write_time = service.scheme_service_times(SCHEME)
        self.config = service.ControllerConfig(
            read_time=self.read_time, write_time=self.write_time,
            banks=4, batch_limit=32,
        )
        state = self.fresh()
        stream = service.build_workload(
            rate=self.rate, addressing="zipfian",
            addresses=state[0].size_words, write_fraction=0.15,
        )
        self.trace = stream.generate(
            self.requests, stream_rng(self.seed, "workload")
        )
        return state

    def fresh(self):
        return service.build_backend(
            SCHEME, seed=self.chip_seed, fault_rate=self.fault_rate
        )

    def run(self, state):
        backend, retry_policy = state
        return service.simulate_service(
            self.trace, self.config, policy=service.BATCH,
            backend=backend, retry_policy=retry_policy,
            scheme=SCHEME, offered_rate=self.rate,
        )

    def publish(self, output):
        service.publish_report(output)

    def ops(self, output) -> int:
        return output.requests

    def gate(self, output):
        return _check_report(output), _sha256_json(output.to_dict())


_WAFER_ARRAYS = (
    "detected", "classification", "dead_cells", "gross_fail",
    "trim_codes", "trim_values", "binding_margins", "sense_factors",
    "retry_budgets", "char_passes", "repaired_words", "ecc_levels",
    "ecc_parity_bits", "ecc_covered", "ships", "test_seconds",
)


class Wafer:
    """Vectorized wafer test: March 1T1J, nondestructive, default defects."""

    name = "wafer"
    dies = 4096             # one vectorized chunk
    ops_per_rep = dies

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.calibration = calibration.calibrate()
        self.config = prodtest.WaferConfig(
            dies=self.dies, scheme=SCHEME, march="march-1t1j", seed=self.seed,
        )
        return self.fresh()

    def fresh(self):
        return prodtest.build_wafer(self.config, self.calibration)

    def run(self, state):
        return prodtest.run_wafer(state)

    def publish(self, output):
        prodtest.publish_wafer_report(output)

    def ops(self, output) -> int:
        return output.dies

    def gate(self, output):
        digest = hashlib.sha256()
        for name in _WAFER_ARRAYS:
            array = np.ascontiguousarray(getattr(output, name))
            digest.update(name.encode())
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
        digest.update(_sha256_json(output.coverage).encode())
        return 0, digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (ServeSharded, ServeBacked, Wafer)}


def run_with_obs(workload, state):
    """One repetition with ``repro.obs`` on, as a ``--metrics-out`` run:
    fresh registry and trace buffer, publish, serialize the snapshot."""
    registry, _ = obs.configure(enabled=True)
    try:
        output = workload.run(state)
        workload.publish(output)
        registry.to_json()
    finally:
        obs.reset()
    return output
