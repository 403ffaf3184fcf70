#!/usr/bin/env python3
"""Benchmark of the entangler package, run from the root of a checkout.

    python3 perfbench/run.py --workload evolve_small --seed 0 --seconds 25 --trace 0

Builds nothing: it imports the package from the checkout's ``src``.  It
repeats the workload's fixed job for ``--seconds``, checks every output, and
prints the environment, one line per metric and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics from a
traced pass beside an untraced one.  The exit code is 0 only when every
output is correct.  Every reported time is scaled to a nominal host speed
with a reference kernel timed between the calls (see `Speed`).  See
README.md in this directory.
"""
import os

# Pinned before numpy loads, and inherited by pool workers, so no run has
# more busy threads than processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 7
MAX_REPORTED_PROBLEMS = 10
REF_S = 0.010           # seconds a reference kernel takes on the nominal host
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((8, 8))
_REF_AMPS = _REF_RNG.standard_normal(1024) + 1j * _REF_RNG.standard_normal(1024)
_REF_GATHERS = [_REF_RNG.permutation(1024).reshape(1 << k, 1 << (10 - k)) for k in range(1, 6)]


def small_arrays_kernel() -> float:
    """Seconds taken by small-array arithmetic with 8x8 SVDs, like the GA's per-individual work."""
    t0 = time.perf_counter()
    x = np.zeros(16)
    for i in range(2000):
        x = x + 1.0
        x[3] = x.sum()
        if i % 10 == 0:
            np.linalg.svd(_REF_MATRIX, compute_uv=False)
    return time.perf_counter() - t0


def cut_svds_kernel() -> float:
    """Seconds taken by SVDs of a 10-qubit state's amplitudes gathered across cuts of each size."""
    t0 = time.perf_counter()
    for _ in range(20):
        for gather in _REF_GATHERS:
            np.linalg.svd(_REF_AMPS[gather], compute_uv=False)
    return time.perf_counter() - t0


# Reference kernels share no code with entangler.  Each workload names the
# one whose work is most like its own: how much a slow phase of the host
# slows code depends on the kind of code (it slowed the 10-qubit trace less
# than small-array arithmetic).
REFERENCE_KERNELS = {"small_arrays": small_arrays_kernel, "cut_svds": cut_svds_kernel}


class Speed:
    """Scales measured times to the nominal host, on which the reference kernel takes REF_S.

    The shared 2-vCPU hosts this was tuned on change speed by up to 1.6x in
    phases that last from seconds to minutes, and the two vCPUs can differ
    by that much at the same moment.  The process is not descheduled then
    (its CPU time equals its wall time): the core runs all code slower.  A
    kernel sample is taken after every measured interval; the intervals of
    one window (a job repetition, or the set-up probes) are divided by the
    mean of the window's samples and the one before it, so a time reads the
    same in a fast and in a slow phase.  A sample is the mean kernel time
    over `cpus`, the CPUs the measured code runs on.
    """

    def __init__(self, cpus, kernel: str):
        self.cpus = sorted(cpus)
        self.kernel = REFERENCE_KERNELS[kernel]
        for _ in range(3):  # loads LAPACK and warms the caches
            self.kernel()
        self.samples = [self._sample()]
        self.window = self.samples[:]

    def _sample(self) -> float:
        if len(self.cpus) == 1:
            return self.kernel()
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self.kernel())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(times)

    def mark(self) -> None:
        """Take a sample; call right after each measured interval."""
        self.window.append(self._sample())
        self.samples.append(self.window[-1])

    def close(self) -> float:
        """The factor that scales the intervals marked since the last close."""
        factor = REF_S / statistics.fmean(self.window)
        self.window = self.window[-1:]
        return factor


@dataclass
class Phase:
    """Timings of whole repetitions of a job."""

    walls: list[float] = field(default_factory=list)  # scaled to the nominal host
    raw_walls: list[float] = field(default_factory=list)
    evals: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    by_input: dict[str, list[float]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Mean scaled job time over the run."""
        return statistics.fmean(self.walls)

    def input_percentile(self, p: int) -> float:
        """Nearest-rank p-th percentile of the per-input latencies.

        An input's latency is the mean of its scaled call times over the
        run's repetitions.  A job holds fewer than 100 inputs, so p99 is the
        slowest input.
        """
        latencies = sorted(statistics.fmean(times) for times in self.by_input.values())
        return latencies[(p * len(latencies) + 99) // 100 - 1]


class Ledger:
    """Counts attempted and failed calls.

    The first output on an input is checked against the workload's oracle
    and, for a recorded seed, the recorded reference; every later output on
    that input must match the first byte for byte.
    """

    def __init__(self, workload, references: dict | None):
        self.workload = workload
        self.references = references
        self.first: dict[str, tuple[str, bool]] = {}
        self.attempted = 0
        self.failed = 0

    def settle(self, key: str, outcome, error: str | None) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if not problems and key in self.first:
            text, valid = self.first[key]
            if not valid or outcome.text != text:
                problems.append("differs from the first output on this input")
        elif not problems:
            reference = None if self.references is None else self.references.get(key)
            try:
                problems = self.workload.check(key, outcome, reference)
            except Exception as exc:  # a malformed output is a failed call
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.first[key] = (outcome.text, not problems)
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)


def run_rep(phase: Phase, job, ledger: Ledger, speed: Speed, tracer=None) -> list:
    """Run the whole job once, then check its outputs outside the timed spans.

    A job's time is the sum of its calls' times, without the reference
    kernel runs between them.
    """
    results, raw = [], []
    for call in job:
        t0 = time.perf_counter()
        try:
            outcome = call.run() if tracer is None else tracer.call(call.run)
            error = None
        except Exception as exc:  # counted as a failed call, the run goes on
            outcome, error = None, f"raised {type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - t0)
        speed.mark()
        results.append((call.key, outcome, error))
    factor = speed.close()
    for (key, _, _), elapsed in zip(results, raw):
        phase.latencies.append(elapsed * factor)
        phase.by_input.setdefault(key, []).append(elapsed * factor)
    phase.walls.append(sum(raw) * factor)
    phase.raw_walls.append(sum(raw))
    phase.evals.append(sum(o.evals for _, o, _ in results if o is not None))
    for key, outcome, error in results:
        ledger.settle(key, outcome, error)
    return [outcome for _, outcome, _ in results]


def run_for(seconds: float, reps) -> None:
    """Call each rep function in turn, round after round, until `seconds` have passed.

    Alternating keeps slow drift of the machine out of the comparison
    between the phases.
    """
    started = time.perf_counter()
    while True:
        for rep in reps:
            rep()
        if time.perf_counter() - started >= seconds:
            return


def measure_setup(workload) -> float:
    """Median scaled wall time of fresh processes that import entangler and fill the gather cache.

    The probes and the reference kernel share one CPU, since the vCPUs of a
    shared host can differ in speed at the same moment.
    """
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + workload.setup_code()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        speed = Speed({min(allowed)}, "small_arrays")
        times = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
            speed.mark()
        return statistics.median(times) * speed.close()
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> dict:
    return {
        "wall_s": (phase.wall, "s"),
        "evals_per_s": (statistics.fmean(phase.evals) / phase.wall, "1/s"),
        "call_ms.p50": (phase.input_percentile(50) * 1e3, "ms"),
        "call_ms.p99": (phase.input_percentile(99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def gather_cache_bytes(sizes) -> int:
    """Bytes held by the gather matrices cached for the given qubit counts."""
    from entangler.entanglement import _cut_layouts

    total = 0
    for n in sizes:
        before = _cut_layouts.cache_info().currsize
        layouts = _cut_layouts(n)
        if _cut_layouts.cache_info().currsize == before:
            total += sum(gather.nbytes for _, _, gather in layouts)
    return total


def per_layer(tracer, spans: dict, traced: Phase, untraced: Phase, serial: Phase | None, workload) -> dict:
    reps = len(traced.walls)
    busy_ns = sum(traced.raw_walls) * 1e9  # spans are not scaled

    def count(name):
        return len(spans[name]["duration"]) if name in spans else 0

    def total_ns(name, key="duration"):
        return float(spans[name][key].sum()) if name in spans else 0.0

    def mean_us(name, key="duration"):
        return total_ns(name, key) / count(name) / 1e3 if count(name) else 0.0

    first_ms, later_ms = [], []
    if "evolve.evaluate" in spans:
        seen = set()
        for parent, duration in zip(spans["evolve.evaluate"]["parent"], spans["evolve.evaluate"]["duration"]):
            (later_ms if parent in seen else first_ms).append(duration / 1e6)
            seen.add(parent)
    return {
        "entanglement.score.us": (mean_us("entanglement.score"), "us"),
        "entanglement.score.share": (total_ns("entanglement.score") / busy_ns, "ratio"),
        "entanglement.score.calls": (count("entanglement.score") / reps, "count"),
        "entanglement.cuts.calls": (tracer.cuts / reps, "count"),
        "entanglement.gather_cache.bytes": (gather_cache_bytes(workload.cut_cache_sizes()), "bytes"),
        "qsim.apply_gate.us": (mean_us("qsim.apply_gate"), "us"),
        "qsim.apply_gate.share": (total_ns("qsim.apply_gate") / busy_ns, "ratio"),
        "qsim.apply_gate.calls": (count("qsim.apply_gate") / reps, "count"),
        "evolve.decode.us": (mean_us("evolve.decode"), "us"),
        "evolve.fitness.us": (mean_us("evolve.fitness"), "us"),
        "evolve.fitness.self_us": (mean_us("evolve.fitness", "self"), "us"),
        "evolve.fitness.calls": (count("evolve.fitness") / reps, "count"),
        "evolve.fitness.distinct_ratio": (tracer.distinct / tracer.rows if tracer.rows else 0.0, "ratio"),
        "evolve.breed.ms_per_gen": (mean_us("evolve.breed") / 1e3, "ms"),
        "evolve.breed.share": (total_ns("evolve.breed") / busy_ns, "ratio"),
        "evolve.evaluate.ms_per_gen": (statistics.fmean(later_ms) if later_ms else 0.0, "ms"),
        "evolve.evaluate.first_ms": (statistics.fmean(first_ms) if first_ms else 0.0, "ms"),
        "evolve.pool.speedup": (serial.wall / untraced.wall if serial else 0.0, "x"),
        "tracing.overhead_ratio": (traced.wall / untraced.wall - 1.0, "ratio"),
    }


def traced_pass(workload, job, ledger: Ledger, speed: Speed, seconds: float, workloads_module,
                tracer) -> tuple[dict, list[str]]:
    """Untraced, traced and (for a pool) serial repetitions in turn; per-layer metrics and self-check.

    The self-check asserts that span counts add up to the results and that
    tracing changed no result byte.
    """
    untraced, traced, serial = Phase(), Phase(), Phase()
    expected: dict[str, int] = {}
    problems = []

    def traced_rep():
        with tracer.installed(workloads_module):
            outcomes = run_rep(traced, job, ledger, speed, tracer)
        firsts = [ledger.first.get(call.key, (None, False))[0] for call in job]
        if any(o is None or o.text != first for o, first in zip(outcomes, firsts)):
            problems.append("a traced result differs from the untraced one")
        for name, count in workload.expected_counts([o for o in outcomes if o]).items():
            expected[name] = expected.get(name, 0) + count

    reps = [lambda: run_rep(untraced, job, ledger, speed), traced_rep]
    if workload.workers > 1:
        serial_job = workload.job(workers=1)
        reps.append(lambda: run_rep(serial, serial_job, ledger, speed))
    run_for(seconds, reps)
    spans = tracer.summary()
    for name, want in expected.items():
        got = tracer.rows if name == "evolve.evaluate.rows" else len(spans.get(name, {}).get("duration", ()))
        if got != want:
            problems.append(f"{name}: {got} traced, {want} expected")
    return per_layer(tracer, spans, traced, untraced, serial if serial.walls else None, workload), problems


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(cpus) -> dict:
    """Host and library details, printed beside the metrics.

    Called after the measurements: called before them, it raised the
    pool workload's peak RSS from 72 to 82 MB.
    """
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(cpus),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def load_references(workload_name: str, seed: int, inputs) -> tuple[dict | None, str | None]:
    """Recorded outputs for this workload seed, or None when the seed was not recorded."""
    recorded = json.loads(REFERENCES.read_text())["workloads"].get(workload_name, {}).get(str(seed))
    if recorded is None:
        return None, None
    if recorded["inputs"] != inputs:
        return None, "inputs made from this seed differ from the recorded ones"
    return recorded["outputs"], None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve_small", "evolve_large", "evolve_pool", "score_trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entangler" / "__init__.py").is_file():
        print(f"error: {SRC / 'entangler'} not found; run from the root of an entangler checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entangler

    if Path(entangler.__file__).resolve().parent != SRC / "entangler":
        print(f"error: imported entangler from {entangler.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed)
    references, reference_problem = load_references(args.workload, args.seed, workload.describe_inputs())
    ledger = Ledger(workload, references)
    problems = [reference_problem] if reference_problem else []
    job = workload.job()
    cpus = os.sched_getaffinity(0)
    if workload.workers == 1:
        # Calls and reference kernel on one CPU; a pool's workers use them all.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed(os.sched_getaffinity(0), workload.reference_kernel)
    run_rep(Phase(), workload.warm_up(), ledger, speed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "referenced": references is not None}
    if args.trace == 0:
        timed = Phase()
        run_for(args.seconds, [lambda: run_rep(timed, job, ledger, speed)])
        rss_mb = peak_rss_mb(with_children=workload.workers > 1)
        metrics = end_to_end(timed, measure_setup(workload), rss_mb)
        latencies = timed.latencies
        info.update(reps=len(timed.walls), calls=len(latencies), inputs=len(timed.by_input),
                    raw_wall_s=statistics.fmean(timed.raw_walls),
                    reference_ms=statistics.median(speed.samples) * 1e3,
                    calls_beyond_p50=sum(t > timed.input_percentile(50) for t in latencies),
                    calls_beyond_p99=sum(t > timed.input_percentile(99) for t in latencies))
    else:
        metrics, checks = traced_pass(workload, job, ledger, speed, args.seconds, workloads, tracing.Tracer())
        problems += checks
        info["self_check"] = "passed" if not checks else checks
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = ledger.failed == 0 and not problems
    print(json.dumps({"environment": environment(cpus)}))
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {ledger.failed / ledger.attempted!r} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
