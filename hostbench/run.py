"""Host-performance benchmark of the ``repro`` package.

Usage (from the repository root)::

    python3 hostbench/run.py --workload serve-backed --seed 2010 \
        --seconds 30 --trace 0

``--trace 0`` splits ``--seconds`` over three fresh timed processes and
reports the end-to-end metrics: ``setup_s`` (median of their set-ups),
``ops_per_ref_s`` / ``obs_ops_per_ref_s`` (median throughput over all
their repetitions with ``repro.obs`` off / on, in ops per reference-host
second) and ``peak_rss_mb`` (median of their peaks).  ``--trace 1`` runs the
traced process instead and reports the per-layer metrics, writing every
span to ``hostbench/out/spans-<workload>-seed<seed>.jsonl``.
``--workload all`` runs every workload both ways and prints every metric;
its last line nests the metrics by workload.

Each workload runs in fresh subprocesses with a fixed hash seed and
single-threaded BLAS.  A human-readable table goes to standard output
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every repetition passed
the correctness gate, 1 when one did not or a worker died, 2 on a usage
error or when the program's sources are missing.
"""

import argparse
import ctypes
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import layers
import refloop

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
#: Slack a worker gets beyond its --seconds, for set-up and the last
#: repetition, before it is killed; a whole run stays under 180 s.
WORKER_SLACK_S = 40
WORKLOAD_NAMES = ("serve-sharded", "serve-backed", "wafer")
#: Fresh processes a timed run is split over.  Each gives one set-up
#: sample, and pooling their repetitions averages out what differs from
#: one process to the next.
TIMED_PROCESSES = 3

#: end-to-end metrics: (name, unit), as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/s"),
    ("obs_ops_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Run isolation shared by every worker process.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPATH": str(SRC),
}


#: personality(2) flag that turns off address-space layout randomization.
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout():
    """Run the worker without address-space randomization.

    Where the heap and stack land moves throughput by up to +-10% between
    otherwise identical processes; a fixed layout removes that spread.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


class WorkerError(Exception):
    """A worker process failed or printed no result."""


def _spawn(workload, seed, mode, seconds, spans_out=""):
    command = [
        sys.executable, str(WORKER), "--workload", workload,
        "--seed", f"{seed:012d}", "--mode", mode, "--seconds", f"{seconds:09.3f}",
        "--spawn-time", f"{time.monotonic():020.6f}",
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    env = dict(os.environ, **WORKER_ENV)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=seconds + WORKER_SLACK_S, preexec_fn=_fixed_layout,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"{mode} worker timed out") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {done.returncode}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _throughputs(reps, kind):
    chosen = [rep for rep in reps if rep["kind"] == kind]
    normalized = [
        rep["ops"] / refloop.to_reference_seconds(rep["net_wall_s"], rep["probe_s"])
        for rep in chosen
    ]
    raw = [rep["ops"] / rep["net_wall_s"] for rep in chosen]
    return normalized, raw


def _check_agreement(reps):
    """Fail every repetition whose digest differs from the first one's.

    Each worker checks its own repetitions; this extends the check across
    the processes of a run, which matters at seeds with no pinned digest.
    """
    digests = [rep["digest"] for rep in reps if rep["digest"]]
    for rep in reps:
        if rep["digest"] and rep["digest"] != digests[0]:
            rep["failed"] = rep["ops"]
            rep["error"] = rep["error"] or f"digest {rep['digest']} != {digests[0]}"


def _median(values):
    return statistics.median(values) if values else 0.0


def _print_distribution(name, unit, values, raw=None):
    """One metric's sample count, median and quartiles (raw beside it)."""
    if not values:
        print(f"  {name:<44} {unit:<5} n=0")
        return
    q1, q3 = _quartiles(values)
    line = (f"  {name:<44} {unit:<5} n={len(values):<3} "
            f"median {statistics.median(values):12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}")
    if raw:
        line += f"   raw wall-clock median {statistics.median(raw):12.6g} 1/s"
    print(line)


def _end_to_end(workload, seed, seconds):
    mains = [
        _spawn(workload, seed, "timed", seconds / TIMED_PROCESSES)
        for _ in range(TIMED_PROCESSES)
    ]
    reps = [rep for main in mains for rep in main["reps"]]
    setup_values = [main["setup_s"] for main in mains]
    rss_values = [main["peak_rss_mb"] for main in mains]
    plain, plain_raw = _throughputs(reps, "plain")
    obs, obs_raw = _throughputs(reps, "obs")
    print(f"{workload} seed {seed}: {len(reps)} repetitions in {len(mains)} "
          "processes (times in reference-host seconds)")
    _print_distribution("setup_s", "s", setup_values)
    _print_distribution("ops_per_ref_s", "1/s", plain, plain_raw)
    _print_distribution("obs_ops_per_ref_s", "1/s", obs, obs_raw)
    _print_distribution("peak_rss_mb", "MB", rss_values)
    metrics = {
        "setup_s": statistics.median(setup_values),
        "ops_per_ref_s": _median(plain),
        "obs_ops_per_ref_s": _median(obs),
        "peak_rss_mb": statistics.median(rss_values),
    }
    return reps, metrics, dict(END_TO_END)


def _per_layer(workload, seed, seconds):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    main = _spawn(workload, seed, "traced", seconds, str(spans_out))
    reps = main["reps"]
    plain, _ = _throughputs(reps, "plain")
    traced, _ = _throughputs(reps, "traced")
    layered = [rep["layers"] for rep in reps if "layers" in rep]
    samples = {name: [value] for name, value in main["setup_layers"].items()}
    for name, _, _ in layers.LAYER_RULES:
        samples[name] = [rep[name] for rep in layered]
    samples[layers.OVERHEAD_METRIC[0]] = (
        [_median(traced) / _median(plain)] if traced and plain else []
    )
    print(f"{workload} seed {seed}: traced run, {len(layered)} traced and "
          f"{len(plain)} untraced repetitions; spans in {spans_out.relative_to(ROOT)}")
    for name, unit in layers.PER_LAYER_METRICS:
        _print_distribution(name, unit, samples[name])
    metrics = {name: _median(values) for name, values in samples.items()}
    return reps, metrics, dict(layers.PER_LAYER_METRICS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOAD_NAMES for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    reps, metrics = [], {}
    for workload, trace in runs:
        measure = _per_layer if trace else _end_to_end
        try:
            run_reps, values, units = measure(workload, args.seed, args.seconds)
        except WorkerError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        _check_agreement(run_reps)
        reps += run_reps
        metrics.setdefault(workload, {}).update(
            (name, {"value": value, "unit": units[name]})
            for name, value in values.items()
        )
    errors = [rep["error"] for rep in reps if rep["error"]]
    for error in errors:
        print(f"  correctness gate: {error}")
    result = {
        "correct": not errors,
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics if args.workload == "all" else metrics[args.workload],
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
