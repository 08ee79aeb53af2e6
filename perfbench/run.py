"""Benchmark skelrecon's command line on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  A job is one in-process ``skelrecon.cli.main(argv)``
call on an input file written during set-up.  One client runs one job at
a time (a closed loop, no threads), and every job's exit code and output
are checked against an oracle built without skelrecon.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no wrappers installed, its times scaled to a reference machine speed
(see REFERENCE_CALIBRATION_S).  With ``--trace 1`` it runs one warm-up pass,
then half its passes twice each, untraced and traced (see tracing.py),
and reports the per-layer metrics, per pass.  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics; the lines
before it and the file under ``.perfbench/results`` give the seed,
sample counts, tail percentile and fail_ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# Set-up time per run: each pass is set up at least once, and again until
# its share of this is spent, so a set-up of a few milliseconds is sampled
# often enough for a steady median.
SETUP_SECONDS = 1.0
PROBE_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# The shared machine this was tuned on switches between a fast and a
# 1.7x slower speed, in phases from under a second to longer than a run.
# So the end-to-end timings are given at a reference speed: each job and
# each set-up is scaled by REFERENCE_CALIBRATION_S over the machine's pace
# just before and just after it, the pace being the median time of
# CALIBRATION_REPEATS calls of calibration(), a fixed loop that never
# touches skelrecon.  REFERENCE_CALIBRATION_S is the loop's time at the
# fast speed of the machine in README.md.  Result files keep the raw times.
CALIBRATION_REPEATS = 3
REFERENCE_CALIBRATION_S = 0.0028

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import skelrecon from this checkout's src, and nowhere else."""
    pkg = ROOT / "src" / "skelrecon"
    if not (pkg / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import skelrecon.cli

    if Path(skelrecon.cli.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported skelrecon from {skelrecon.cli.__file__}, not {pkg}")
    return skelrecon


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("slope"):
        return "1"
    if name.endswith("_per_one_nonsimple_job"):
        return "calls/job"
    if name.endswith("bytes_in"):
        return "B"
    return "count"


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND samples above it, by nearest rank; the maximum (p100)
    when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100
    p = 100 * (n - TAIL_BEYOND) // n
    return s[max(1, math.ceil(p * n / 100)) - 1], p


def machine_info() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def calibration() -> int:
    """A fixed pure-Python loop of tuple, set and dict work, as skelrecon does."""
    seen: dict = {}
    acc = 0
    for i in range(3000):
        t = (i % 97, i % 89)
        seen[t] = seen.get(t, 0) + 1
        acc += len(frozenset(t))
    return acc + len(sorted(seen.items()))


def machine_pace() -> float:
    """Median time of CALIBRATION_REPEATS calls of calibration(), with the
    collector off, so that skelrecon's heap cannot slow it."""
    times = []
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            calibration()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def at_reference(seconds: float, pace_before: float, pace_after: float) -> float:
    """A time taken between two paces, scaled to the reference speed."""
    return seconds * 2 * REFERENCE_CALIBRATION_S / (pace_before + pace_after)


class SetUp:
    """Sets up each pass just before it runs, so set-up times are sampled
    across the whole run, as job times are.  Pass i gets relabeling i."""

    def __init__(self, workload: str, seed: int, passes: int, tmp: str, small: bool):
        self.workload = workload
        self.seed = seed
        self.passes = passes
        self.tmp = tmp
        self.small = small
        self.times: list[float] = []  # at the reference speed
        self.raw_times: list[float] = []

    def jobs(self, i: int) -> list:
        """Pass i's job list, set up once and again until the pass's share
        of SETUP_SECONDS is spent; every set-up is timed."""
        spent = 0.0
        pace = machine_pace()
        while True:
            workdir = os.path.join(self.tmp, f"setup{len(self.times)}")
            os.mkdir(workdir)
            t0 = time.perf_counter()
            jobs = workloads.build(self.workload, self.seed, i, workdir, self.small)
            t = time.perf_counter() - t0
            after = machine_pace()
            self.raw_times.append(t)
            self.times.append(at_reference(t, pace, after))
            pace = after
            spent += t
            if spent >= SETUP_SECONDS / self.passes:
                return jobs


    def warm_up_jobs(self) -> list:
        """The job list on the smallest fixtures, set up untimed."""
        workdir = os.path.join(self.tmp, "warm-up")
        os.mkdir(workdir)
        return workloads.build(self.workload, self.seed, 0, workdir, small=True)


class Runner:
    """Runs job lists and keeps latencies and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.paces: list[float] = []

    def run_pass(self, jobs, tracer=None, first_id=0) -> tuple[list[float], list[float]]:
        """Run the jobs in order: their raw latencies, and the same at the
        reference speed.  The machine's pace is taken between jobs."""
        gc.collect()
        raw, scaled = [], []
        pace = machine_pace()
        for i, job in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = first_id + i
            self.attempted += 1
            why = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(job.argv))
            except (Exception, SystemExit) as exc:
                why = f"escaped {type(exc).__name__}: {exc}"
            t = time.perf_counter() - t0
            after = machine_pace()
            raw.append(t)
            scaled.append(at_reference(t, pace, after))
            self.paces.append(after)
            pace = after
            if why is None:
                why = job.check(rc, out.getvalue(), err.getvalue())
            if why is not None:
                self.failures.append(f"{job.tag}: {why}")
        if tracer is not None:
            tracer.job = None
        return raw, scaled


def end_to_end(runner, setup, passes) -> tuple[dict, dict]:
    # One pass over the smallest fixtures loads every code path first; its
    # jobs are checked but not timed.
    runner.run_pass(setup.warm_up_jobs())
    runner.paces.clear()
    raw, samples, pass_seconds = [], [], []
    by_tag = defaultdict(list)
    for i in range(passes):
        jobs = setup.jobs(i)
        lat, ref = runner.run_pass(jobs)
        raw += lat
        samples += ref
        pass_seconds.append(sum(lat))
        for job, t in zip(jobs, ref):
            by_tag[job.tag].append(t)
    tail_s, pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup.times),
        "jobs_per_s": len(samples) / sum(samples),
        "job_p50_ms": 1000 * statistics.median(samples),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_tail, _ = tail(raw)
    notes = {
        "samples": len(samples),
        "tail_percentile": pct,
        "raw": {
            "setup_s": statistics.median(setup.raw_times),
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_ms": 1000 * statistics.median(raw),
            "job_tail_ms": 1000 * raw_tail,
        },
        "pace_s": runner.paces,
        "pass_seconds": pass_seconds,
        "setup_times": setup.times,
        "jobs_per_pass": len(jobs),
        "job_median_ms": {tag: 1000 * statistics.median(ts) for tag, ts in by_tag.items()},
        "job_samples_ms": {tag: [1000 * t for t in ts] for tag, ts in by_tag.items()},
    }
    return metrics, notes


def _probe(program, tracer, jobs) -> tuple[float, float]:
    """Time build_frame_graph and reconstruct(check=False) outside job spans."""
    totals = {"probe.frame_graph": 0.0, "probe.unchecked": 0.0}
    for job in jobs:
        if not job.tag.startswith("recon2 m="):
            continue
        with open(job.argv[1], encoding="utf-8") as fh:
            sk, d = program.textio.parse_skeleton(fh.read())
        calls = {
            "probe.frame_graph": lambda: program.recon2.build_frame_graph(sk, d),
            "probe.unchecked": lambda: program.recon2.reconstruct(sk, d, check=False),
        }
        for name, fn in calls.items():
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                fn()
                t1 = time.perf_counter()
                tracer.record(name, t0, t1)
                times.append(t1 - t0)
            totals[name] += statistics.median(times)
    return totals["probe.frame_graph"], totals["probe.unchecked"]


def _slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(m)."""
    if len(points) < 2 or min(points.values()) <= 0:
        return 0.0
    xs = [math.log(m) for m in points]
    ys = [math.log(t) for t in points.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(program, runner, setup, passes):
    # tracing imports skelrecon, so it can only load after import_program.
    from tracing import LAYERS, Tracer, layer_of, self_times

    # The first pass in a process runs slower, so it is left out of the
    # comparison; each traced pass then follows its untraced twin.
    first = setup.jobs(0)
    runner.run_pass(first)
    tracer = Tracer()
    jobs_meta = []
    untraced, traced = [], []
    for i in range(max(1, passes // 2)):
        jobs = setup.jobs(i)
        untraced.append(sum(runner.run_pass(jobs)[0]))
        tracer.install()
        try:
            traced.append(sum(runner.run_pass(jobs, tracer, len(jobs_meta))[0]))
        finally:
            tracer.uninstall()
        jobs_meta += jobs
    frame_graph, unchecked = _probe(program, tracer, first)

    passes = len(traced)
    own = self_times(tracer.spans)
    self_s = defaultdict(float)
    calls = Counter()
    layer_s = defaultdict(float)
    job_self = defaultdict(float)  # (job tag, span name) -> self seconds
    job_calls = Counter()  # (job id, span name) -> calls
    for span, t in zip(tracer.spans, own):
        name, job = span[0], span[4]
        self_s[name] += t
        calls[name] += 1
        layer_s[layer_of(name)] += t
        if job is not None:
            job_self[jobs_meta[job].tag, name] += t
            job_calls[job, name] += 1
    c = tracer.counters
    tags = Counter(job.tag for job in jobs_meta)

    def per_pass(x):
        return x / passes

    def per_job(tag, name):
        return job_self[tag, name] / tags[tag] if tags[tag] else 0.0

    prism = {int(t.split("=")[1]): per_job(t, "recon2.reconstruct")
             for t in tags if t.startswith("recon2 m=")}
    simple_jobs = [i for i, job in enumerate(jobs_meta) if job.one_nonsimple]

    def per_simple_job(name):
        if not simple_jobs:
            return 0.0
        return sum(job_calls[i, name] for i in simple_jobs) / len(simple_jobs)

    m = {
        "cli.self_s": per_pass(self_s["cli.main"]),
        "textio.parse_s": per_pass(self_s["textio.parse"]),
        "textio.format_s": per_pass(self_s["textio.format"]),
        "textio.bytes_in": per_pass(c["textio.bytes_in"]),
        "constructions.build_s": per_pass(self_s["constructions.build"]),
        "constructions.pullback_s": per_pass(self_s["constructions.pullback"]),
        "lattice.spec_s": per_pass(self_s["lattice.spec"]),
        "lattice.build_s": per_pass(self_s["lattice.build"]),
        "lattice.faces": per_pass(c["lattice.faces"]),
        "lattice.validate_s": per_pass(self_s["lattice.validate"]),
        "lattice.classify_s": per_pass(self_s["lattice.classify"]),
        "graphs.k_connected_s": per_pass(self_s["graphs.k_connected"]),
        "graphs.k_connected_calls": per_pass(calls["graphs.k_connected"]),
        "graphs.is_feasible_calls": per_pass(calls["graphs.is_feasible"]),
        "graphs.feasible_ratio": (
            c["graphs.feasible_true"] / calls["graphs.is_feasible"]
            if calls["graphs.is_feasible"] else 0.0
        ),
        "graphs.enumerate_s": per_pass(self_s["graphs.enumerate"]),
        "graphs.orientations": per_pass(c["graphs.orientations"]),
        "graphs.dp_s": per_pass(self_s["graphs.dp"]),
        "graphs.dp_states": per_pass(c["graphs.dp_states"]),
        "graphs.induced_cycles_s": per_pass(self_s["graphs.induced_cycles"]),
        "graphs.cycles": per_pass(c["graphs.cycles"]),
        "graphs.errors": per_pass(c["graphs.errors"]),
        "iso.isomorphic_s": per_pass(self_s["iso.isomorphic"]),
        "iso.calls": per_pass(calls["iso.isomorphic"]),
        "recon2.reconstruct_s": per_pass(self_s["recon2.reconstruct"]),
        "recon2.calls": per_pass(calls["recon2.reconstruct"]),
        "recon2.frames": per_pass(c["recon2.frames"]),
        "recon2.regions": per_pass(c["recon2.regions"]),
        "recon2.frame_graph_s": frame_graph,
        "recon2.unchecked_s": unchecked,
        "recon2.slope": _slope(prism),
        "recong.max_two_system_s": per_pass(self_s["recong.max_two_system"]),
        "recong.max_two_system_calls": per_pass(calls["recong.max_two_system"]),
        "recong.one_nonsimple_s": per_pass(self_s["recong.one_nonsimple"]),
        "recong.families_s": per_pass(self_s["recong.families"]),
        "recong.family_u_s": per_pass(self_s["recong.family_u"]),
        "recong.family_v_s": per_pass(self_s["recong.family_v"]),
        "recong.family_neither_s": per_pass(self_s["recong.family_neither"]),
        "recong.family_both_s": per_pass(self_s["recong.family_both"]),
        "recong.truncation_s": per_pass(self_s["recong.truncation"]),
        "recong.errors": per_pass(c["recong.errors"]),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        # The baseline findings (see README.md).
        "lattice.spec_m4096_s": per_job("recon2 m=4096", "lattice.spec"),
        "recon2.reconstruct_m4096_s": per_job("recon2 m=4096", "recon2.reconstruct"),
        "recong.mts_calls_per_one_nonsimple_job": per_simple_job("recong.max_two_system"),
        "graphs.dp_calls_per_one_nonsimple_job": per_simple_job("graphs.dp"),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = per_pass(layer_s[layer])
    notes = {
        "traced_passes": passes,
        "jobs_per_pass": len(first),
        "spans": len(tracer.spans),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "prism_reconstruct_s": prism,
    }
    return m, notes, tracer.spans, jobs_meta


def run(workload: str, seed: int, seconds: int, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result line's object and the notes.

    ``small`` swaps in the smallest fixtures of the workload (smoke.py).
    """
    program = import_program()
    os.environ.pop("SKELRECON_MAX_N", None)
    passes = max(1, round(seconds / workloads.SECONDS_PER_PASS[workload]))
    if trace:
        passes = max(2, passes)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        setup = SetUp(workload, seed, passes, tmp, small)
        runner = Runner(program.cli)
        spans = None
        if trace:
            metrics, notes, spans, jobs_meta = per_layer(program, runner, setup, passes)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            metrics, notes = end_to_end(runner, setup, passes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    notes.update(
        workload=workload,
        small=small,
        seed=seed,
        seconds=seconds,
        trace=trace,
        passes=passes,
        fail_ratio=failed / runner.attempted,
        failures=runner.failures[:20],
        machine=machine_info(),
    )
    if spans is not None:
        OUT.joinpath("traces").mkdir(exist_ok=True)
        path = OUT / "traces" / f"{workload}{'-small' if small else ''}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": [j.tag for j in jobs_meta], "spans": spans}, fh)
        notes["trace_file"] = str(path.relative_to(ROOT))
    return {"result": result, "notes": notes}


def report(out: dict) -> None:
    result, notes = out["result"], out["notes"]
    print(f"# workload {notes['workload']} seed {notes['seed']} trace {int(notes['trace'])}: "
          f"{notes['passes']} passes of {notes['jobs_per_pass']} jobs, "
          f"one relabeling each; {notes['machine']['python']}, "
          f"{notes['machine']['cpus']} CPUs")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:14.6f} {m['unit']}")
    if "samples" in notes:
        print(f"# job_p50_ms over {notes['samples']} samples; job_tail_ms is "
              f"p{notes['tail_percentile']}; setup_s is the median of "
              f"{len(notes['setup_times'])} set-ups")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in notes["raw"].items())
        print(f"# times above are at the reference speed; raw: {raw}; "
              f"median pace {1000 * statistics.median(notes['pace_s']):.3f} ms "
              f"(reference {1000 * REFERENCE_CALIBRATION_S:g} ms)")
    if "traced_passes" in notes:
        spec = result["metrics"]["lattice.spec_m4096_s"]["value"]
        rec = result["metrics"]["recon2.reconstruct_m4096_s"]["value"]
        if spec or rec:
            print(f"# finding: lattice.spec_s {spec:.3f} s "
                  f"{'>' if spec > rec else '<='} recon2.reconstruct_s {rec:.3f} s at m=4096")
        mts = result["metrics"]["recong.mts_calls_per_one_nonsimple_job"]["value"]
        dp = result["metrics"]["graphs.dp_calls_per_one_nonsimple_job"]["value"]
        if mts:
            print(f"# finding: max_two_system {mts:g} and DP {dp:g} calls per job "
                  f"with at most one nonsimple vertex")
    print(f"# fail_ratio {result['failed']}/{result['attempted']} = {notes['fail_ratio']:.4f}")
    for line in notes["failures"]:
        print(f"# failed: {line}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / (
        f"{notes['workload']}{'-small' if notes['small'] else ''}"
        f"-seed{notes['seed']}-trace{int(notes['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"# results in {path.relative_to(ROOT)}")
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
