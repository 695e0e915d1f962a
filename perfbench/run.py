"""The repo benchmark: time-to-verdict of the model checker.

Run from the repository root::

    python3 perfbench/run.py --workload qrw6-reach --seed 1 --seconds 36

One process runs the workload as a closed loop, one job at a time, for
``--seconds`` seconds.  Every job is checked against a dense oracle
computed once per run, after the timed jobs.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs
and reports the per-layer metrics of :mod:`tracer`.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``spec.json`` names the
workloads, their expected answers and which end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
import warnings
from contextlib import nullcontext

import calibration
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: set-ups per job: at least this many, and for at least SETUP_MIN_S,
#: so that the samples taken among them give set-up its own scale
SETUP_REPEATS = 5
SETUP_MIN_S = 0.2
#: a job still running this long after --seconds is aborted as failed
OVERRUN_S = 60
#: the result must be printed within this many seconds of the start
DEADLINE_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Job:
    """One timed job: its set-up times, wall time and observations."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.setup_s = []
        self.job_s = None
        self.setup_scale = None
        self.scale = None
        self.record = None
        self.layers = None
        self.error = None


def run_job(workload, traced: bool, tracer, sampler) -> Job:
    """Set up and run one job.  An untraced job samples the host speed
    throughout (see :mod:`calibration`); a traced one does not, so the
    samples do not land in the layers' self times."""
    job = Job(traced)
    inputs = None
    clock = sampler.now
    try:
        with nullcontext() if traced else sampler:
            while (len(job.setup_s) < SETUP_REPEATS
                   or sum(job.setup_s) < SETUP_MIN_S):
                if inputs is not None:
                    workload.teardown(inputs)
                start = clock()
                inputs = workload.setup()
                job.setup_s.append(clock() - start)
            setup_samples = sampler.mark()
            if traced:
                managers = workload.managers(inputs)
                before = [m.cache_counters() for m in managers]
            gc.collect()
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                with tracer if traced else nullcontext():
                    start = clock()
                    result = workload.run(inputs)
                    job.job_s = clock() - start
        if not traced:
            job.scale = sampler.scale(setup_samples)
            job.setup_scale = (sampler.scale(0, setup_samples)
                               if setup_samples else job.scale)
        job.record = workload.observe(inputs, result)
        if traced:
            job.layers = layer_metrics(tracer, job, managers, before)
    except Exception:
        job.error = traceback.format_exc(limit=4)
    finally:
        if inputs is not None:
            workload.teardown(inputs)
    return job


def layer_metrics(tracer, job: Job, managers, before) -> dict:
    spans = tracer.spans
    hits = lookups = 0
    for manager, base in zip(managers, before):
        after = manager.cache_counters()
        hits += after["hits"] - base["hits"]
        lookups += (after["hits"] + after["misses"]
                    - base["hits"] - base["misses"])
    add_state = spans["subspace.add_state"]
    lookup = spans["store.lookup"]
    build = [spans[key] for key in spans if key.startswith("circuits.")]
    contract = [spans["image.contract"], spans["image.sliced_contract"]]
    out = {
        "circuits.build_s": sum(s.self_s for s in build),
        "circuits.build_calls": sum(s.calls for s in build),
        "image.contract_s": sum(s.self_s for s in contract),
        "image.contract_calls": sum(s.calls for s in contract),
        "image.partial_image_s": spans["image.partial_image"].self_s,
        "subspace.add_state_s": add_state.self_s,
        "subspace.add_state_calls": add_state.calls,
        "subspace.accept_ratio": (add_state.nonnull / add_state.calls
                                  if add_state.calls else 0.0),
        "subspace.project_state_s": spans["subspace.project_state"].self_s,
        "subspace.project_state_calls":
            spans["subspace.project_state"].calls,
        "subspace.complement_s": spans["subspace.complement"].self_s,
        "tdd.collect_s": spans["tdd.collect"].self_s,
        "tdd.collect_calls": spans["tdd.collect"].calls,
        "tdd.cache_hit_rate": hits / lookups if lookups else 0.0,
        "tdd.nodes_reclaimed": spans["tdd.collect"].int_sum,
        "mc.iterations": spans["mc.advance"].calls,
        "mc.witness_s": spans["mc.witness"].total_s,
        "store.lookup_s": lookup.total_s,
        "store.store_s": spans["store.store"].total_s,
        "store.hit_ratio": (lookup.nonnull / lookup.calls
                            if lookup.calls else 0.0),
    }
    for method, nodes in job.record["method_max_nodes"].items():
        out[f"image.max_nodes.{method}"] = nodes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    return out


def measure(workload, seconds: float, trace: bool, tracer,
            sampler) -> list:
    """Run jobs for about ``seconds``: stop when the next job would end
    further past ``seconds`` than the run already is short of it.

    With tracing, jobs alternate untraced and traced, at least one each.
    """
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(run_job(workload, trace and len(jobs) % 2 == 1, tracer,
                            sampler))
        elapsed = time.perf_counter() - start
        if (len(jobs) >= (2 if trace else 1)
                and elapsed + elapsed / len(jobs) / 2 >= seconds):
            return jobs


def gate(workload, jobs: list, expected: dict):
    """Compare every job with the dense oracle; returns (failed, notes)."""
    notes = []
    try:
        answers = workload.answers()
        summary = workload.summary(answers)
        notes.append(f"oracle: {json.dumps(summary, sort_keys=True)}")
        problems = [f"oracle {key}={summary.get(key)!r}, spec.json "
                    f"expects {value!r}"
                    for key, value in expected.items()
                    if summary.get(key) != value]
        problems += workload.run_checks(answers)
    except Exception:
        notes.append("oracle failed:\n" + traceback.format_exc(limit=4))
        return len(jobs), notes
    failed = 0
    for index, job in enumerate(jobs):
        job_problems = list(problems)
        if job.error is not None:
            job_problems.append(job.error.strip())
        elif job.record is not None:
            job_problems += workload.verify(job.record, answers)
        if job_problems:
            failed += 1
            notes.append(f"job {index} failed: " + "; ".join(job_problems))
    return failed, notes


def abort_job(_signum, _frame):
    raise TimeoutError("the run's time limit passed")


def median_of(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no repro package under {SOURCE}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import workloads

    with open(os.path.join(HERE, "spec.json")) as handle:
        spec = json.load(handle)
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench-work")
    workload = workloads.make_workload(
        args.workload, random.Random(args.seed), work_dir)
    tracer = Tracer()
    sampler = calibration.Sampler()

    # a job that never finishes (a broken change can make a fixpoint
    # diverge) fails instead of hanging the run
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, abort_job)
    signal.alarm(int(args.seconds) + OVERRUN_S)
    jobs = measure(workload, args.seconds, bool(args.trace), tracer,
                   sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    signal.alarm(max(1, int(DEADLINE_S - (time.perf_counter() - started))))
    failed, notes = gate(workload, jobs,
                         spec["workloads"][args.workload]["expected"])
    signal.alarm(0)
    try:
        os.rmdir(work_dir)
    except OSError:
        pass

    plain = [j for j in jobs if not j.traced and j.error is None]
    traced = [j for j in jobs if j.traced and j.error is None]
    # times are reported in seconds at the reference host speed: each
    # untraced job by its own scale, traced jobs by the run's median
    scale = median_of([j.scale for j in plain]) or 1.0
    job_s = [j.job_s * j.scale for j in plain]
    raw_s = [j.job_s for j in plain]
    q1, q3 = quartiles(job_s) if job_s else (0.0, 0.0)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{workload.inputs_text()}")
    print(f"jobs {len(jobs)} ({len(traced)} traced)  failed {failed}  "
          f"fail_ratio {failed / len(jobs):.3f}")
    print(f"job_s median {median_of(job_s):.4f}  q1 {q1:.4f}  "
          f"q3 {q3:.4f}  n {len(job_s)}  all "
          + " ".join(f"{t:.3f}" for t in job_s))
    print(f"wall job_s median {median_of(raw_s):.4f}  all "
          + " ".join(f"{t:.3f}" for t in raw_s))
    print("host scale per job " + " ".join(f"{j.scale:.3f}" for j in plain)
          + f"  ({len(sampler.samples)} samples in the last job)")
    for note in notes:
        print(note)

    if args.trace:
        metrics = {}
        for name in spec["per_layer"]:
            if name == "trace.overhead_s":
                continue
            metrics[name] = median_of([j.layers[name] for j in traced])
        metrics["trace.overhead_s"] = (
            median_of([j.job_s for j in traced]) - median_of(raw_s))
        metrics = {name: value * scale
                   if spec["per_layer"][name]["unit"] == "s" else value
                   for name, value in metrics.items()}
        if tracer.absent:
            print("absent trace targets: " + ", ".join(tracer.absent))
        for layer in LAYERS:
            print(f"  {layer:<9} self {metrics[layer + '.self_s']:.4f} s")
        units = {name: spec["per_layer"][name]["unit"] for name in metrics}
    else:
        records = [j.record for j in plain if j.record is not None]
        metrics = {
            "job_s": median_of(job_s),
            "setup_s": median_of([t * j.setup_scale for j in plain
                                  for t in j.setup_s]),
            "max_nodes": median_of([r["max_nodes"] for r in records]),
            "peak_live_nodes": median_of([r["peak_live_nodes"]
                                          for r in records]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: spec["end_to_end"][name]["unit"] for name in metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
