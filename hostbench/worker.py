"""One workload in one fresh process: set up, then repeat the timed op.

Started by ``run.py`` (never imported by it), one process per workload
and mode; prints one JSON object on its last line of standard output.

Modes, after the set-up (one ``setup_s`` sample):

* ``timed``  — alternate ``repro.obs`` off / on repetitions;
* ``traced`` — alternate untraced / traced repetitions, the traced ones
  with span wrappers installed, and write the spans out at the end.

A :class:`refloop.HostSampler` probes host speed all through the process,
so set-up and every repetition are measured in reference-host seconds.
Every repetition gets a freshly built backend or wafer (untimed) and a
``gc.collect()``, and passes the correctness gate; a repetition that
raises or fails the gate counts all its ops as failed and ends the run.
"""

import time

import argparse
import gc
import json
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_REPS_PER_KIND = 3


def _gate(workload, output, expected):
    """(failed ops, digest, error) for one repetition's output."""
    import workloads

    try:
        failed, digest = workload.gate(output)
    except workloads.GateError as error:
        return workload.ops_per_rep, None, str(error)
    if workload.ops(output) != workload.ops_per_rep:
        return workload.ops_per_rep, digest, "op count changed"
    if expected is not None and digest != expected:
        return workload.ops_per_rep, digest, f"digest {digest} != {expected}"
    return failed, digest, None


def _counters(output) -> dict:
    report = getattr(output, "merged", output)
    return {
        key: getattr(report, key, 0)
        for key in ("retried_words", "failed_words", "corrupted_words")
    }


def _run_once(workload, state, kind):
    import workloads

    if kind == "obs":
        return workloads.run_with_obs(workload, state)
    return workload.run(state)


def run(args, sampler) -> dict:
    import refloop

    import_start = sampler.net_clock()
    import workloads  # repro, numpy, scipy
    import repro

    import_s = sampler.net_clock() - import_start
    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")
    import layers
    import spans

    workload = workloads.WORKLOADS[args.workload](args.seed)
    traced = args.mode == "traced"
    recorder = spans.SpanRecorder(args.workload, clock=sampler.net_clock)
    recorder.rep = "setup"
    installed = spans.install(recorder) if traced else None
    state = workload.setup()
    if installed is not None:
        installed.uninstall()
    setup_net_s = time.monotonic() - args.spawn_time - sampler.probe_total_s
    setup_probe_s = sampler.mean_probe_s()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": refloop.to_reference_seconds(setup_net_s, setup_probe_s),
    }
    if traced:
        result["setup_layers"] = layers.setup_metrics(
            spans.totals(recorder.of_rep("setup")), import_s,
            refloop.to_reference_seconds(1.0, setup_probe_s),
        )
    expected = (
        workloads.PINNED_DIGESTS[args.workload]
        if args.seed == workloads.DEFAULT_SEED else None
    )
    kinds = ("plain", "traced") if traced else ("plain", "obs")
    reps = []
    deadline = time.monotonic() + args.seconds
    index = 0
    while index < 2 * MIN_REPS_PER_KIND or time.monotonic() < deadline:
        kind = kinds[index % 2]
        if index:
            state = workload.fresh()
        gc.collect()
        installed = None
        if kind == "traced":
            recorder.rep = index
            installed = spans.install(recorder)
            root = recorder.open("rep")
        error = output = None
        with sampler.window() as window:
            try:
                output = _run_once(workload, state, kind)
            except Exception as exc:  # a raising repetition fails its ops
                error = f"{type(exc).__name__}: {exc}"
        if installed is not None:
            recorder.close(root)
            installed.uninstall()
        if error is None:
            failed, digest, error = _gate(workload, output, expected)
        else:
            failed, digest = workload.ops_per_rep, None
        rep = {
            "kind": kind, "ops": workload.ops_per_rep, "failed": failed,
            "net_wall_s": window.net_wall_s, "probe_s": window.probe_s,
            "digest": digest, "error": error,
        }
        if kind == "traced" and error is None:
            rep["layers"] = layers.rep_metrics(
                spans.totals(recorder.of_rep(index)), _counters(output),
                refloop.to_reference_seconds(1.0, window.probe_s),
            )
        reps.append(rep)
        if expected is None:
            expected = digest  # later repetitions must reproduce it
        del output, state
        index += 1
        if error is not None:
            break
    result["reps"] = reps
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if traced and args.spans_out:
        recorder.write_jsonl(args.spans_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import refloop

    sampler = refloop.HostSampler()
    sampler.start()
    try:
        result = run(args, sampler)
    finally:
        sampler.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
