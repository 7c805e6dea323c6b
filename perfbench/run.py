"""Benchmark `nlevel evolve` end to end and layer by layer.

    python3 perfbench/run.py --workload driven3_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload, both modes

Run from a checkout of the repository: the package is imported from the
checkout's ``src/``, never from an installed copy.  One run generates the
workload from the seed, computes an independent reference outside any timed
region, then measures for ``--seconds`` (closed loop, one client, one
process at a time):

* ``--trace 0`` gives the end-to-end metrics: fresh-process CLI wall time and
  peak RSS, in-process ``evolve()`` throughput, set-up time and the max
  population error against the reference.
* ``--trace 1`` gives the per-layer metrics from spans recorded around calls
  into the package's public functions and ``nlevel.cli.main``.

Times are scaled to cancel the host's speed drift (see gauge.py); the raw
medians are printed beside them.  Every output is checked; the last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A metadata line (code path, nproc, CPU affinity, versions,
BLAS threads, commit, seed) precedes it.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import reference
import workloads
from gauge import Gauge
from probe import build_inputs

_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # configs, CSVs and span dumps; git-ignored

SETUP_PROBES = 5  # fresh processes per run for setup_s and nlevel.import_s
MIN_SAMPLES = 3  # timed calls of each kind, even past the deadline
LIMIT_S = 120.0  # stop measuring past this, whatever the samples, to exit in time
KILL_AFTER_S = 150.0  # children still running this long after start are killed
SUM_TOL = 1e-9  # |sum of populations - 1| allowed in every sample
LAYER_SHARE = 0.25  # share of --seconds spent on per-call layer timings
LAYER_MIDPOINTS = 64  # step midpoints sampled for the per-call layer timings
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Tracer:
    """In-memory spans: name, start, end, parent span index, call count and speed factor.

    Durations are reported scaled by the gauge factor of the operation that
    enclosed the span (see gauge.py).
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, count=1):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "count": count, "factor": 1.0})
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def scale_from(self, mark, factor):
        """Give every span opened since ``mark`` the gauge factor of its operation."""
        for span in self.spans[mark:]:
            span["factor"] = factor

    @staticmethod
    def seconds(span):
        return (span["end"] - span["start"]) * span["factor"]

    def per_call(self, name):
        """Scaled duration per call of every span called ``name``."""
        return [self.seconds(s) / s["count"] for s in self.spans if s["name"] == name]

    def children(self, index, name):
        return [s for s in self.spans if s["parent"] == index and s["name"] == name]


class Outcomes:
    """Counts attempted and failed operations and checks outputs against the reference."""

    def __init__(self, workload, ref):
        self.w = workload
        self.ref = ref
        self.times = workload.step_edges()[workload.sample_steps()]
        self.attempted = 0
        self.failed = 0
        self.max_pop_err = 0.0
        self.problems = []

    def record(self, label, problem=None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problem}")

    def check_trajectory(self, label, times, pops):
        self.record(label, self._trajectory_problem(times, pops))

    def _trajectory_problem(self, times, pops):
        if pops.shape != self.ref.shape:
            return f"populations of shape {pops.shape}, expected {self.ref.shape}"
        if times[-1] != self.w.t_end:
            return f"last t = {times[-1]!r}, expected t_end = {self.w.t_end!r}"
        if np.max(np.abs(times - self.times)) > 1e-9 * max(1.0, abs(self.w.t_end)):
            return "sample times off the step grid"
        drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
        if drift > SUM_TOL:
            return f"population sum off by {drift:.3e}"
        err = float(np.max(np.abs(pops - self.ref)))
        self.max_pop_err = max(self.max_pop_err, err)
        if err > self.w.tolerance:
            return f"max population error {err:.3e} exceeds {self.w.tolerance:.1e}"
        return None

    def check_csv(self, label, path):
        """Check a CSV the CLI wrote; returns (rows, max norm_error) when it parses."""
        header = "t," + ",".join(f"p{i}" for i in range(self.w.n)) + ",norm_error"
        try:
            with open(path) as fh:
                first = fh.readline().rstrip("\n")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            self.record(label, f"unreadable CSV ({exc})")
            return None
        if first != header:
            self.record(label, f"CSV header {first!r}, expected {header!r}")
            return None
        if data.shape[1] != self.w.n + 2:
            self.record(label, f"CSV has {data.shape[1]} columns, expected {self.w.n + 2}")
            return None
        self.check_trajectory(label, data[:, 0], data[:, 1:-1])
        return data.shape[0], float(np.max(data[:, -1]))


class Program:
    """The package under test, imported from the checkout, and its inputs."""

    def __init__(self, workload, work):
        self.w = workload
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config()))
        self.out_path = work / "out.csv"
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        sys.path.insert(0, str(SRC))
        import nlevel
        import nlevel.cli

        if Path(nlevel.__file__).resolve().parent != SRC / "nlevel":
            raise SystemExit(f"perfbench: imported nlevel from {nlevel.__file__}, not {SRC}")
        self.nlevel = nlevel
        self.cli = nlevel.cli
        self.spec, self.config = build_inputs(nlevel, workload.config())

    def spawn(self, args):
        """Run a child to completion; returns (wall s, exit code, peak RSS MB, stdout)."""
        stdout = self.work / "child.out"
        with open(stdout, "wb") as out, open(self.work / "child.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, _START + KILL_AFTER_S - t0), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
                # the running maximum over every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout.read_text()

    def cli_process(self):
        args = ["-m", "nlevel", "evolve", "--config", str(self.config_path), "--out", str(self.out_path)]
        return self.spawn(args)[:3]

    def probe(self, *args):
        wall, code, _, out = self.spawn([str(HERE / "probe.py"), *args])
        return (float(out), None) if code == 0 else (wall, f"probe exited with {code}")

    def cli_main(self):
        return self.cli.main(["evolve", "--config", str(self.config_path), "--out", str(self.out_path)])

    def stderr_tail(self):
        return (self.work / "child.err").read_text()[-300:].strip()


def _measuring(deadline, have):
    """True until the deadline has passed with MIN_SAMPLES taken, or LIMIT_S is hit."""
    now = time.perf_counter()
    return (now < deadline or have < MIN_SAMPLES) and now < _START + LIMIT_S


def _call(gauge, outcomes, label, fn, tracer=None):
    """Time fn() under the gauge; an exception counts as a failed operation.

    Returns (raw seconds, speed factor, result or None).  Spans fn() opens in
    ``tracer`` take the same factor.
    """

    def guarded():
        try:
            return fn()
        except Exception:  # keep measuring; the failure is counted
            outcomes.record(label, traceback.format_exc(limit=2).strip().splitlines()[-1])
            return None

    mark = len(tracer.spans) if tracer else 0
    raw, factor, result = gauge.time(guarded)
    if tracer:
        tracer.scale_from(mark, factor)
    return raw, factor, result


class Samples:
    """Raw and drift-scaled samples per metric; the scaled median is reported."""

    def __init__(self):
        self.raw = {}
        self.scaled = {}

    def add(self, name, raw, factor):
        self.raw.setdefault(name, []).append(raw)
        self.scaled.setdefault(name, []).append(raw * factor)

    def medians(self):
        return {name: statistics.median(v) for name, v in self.scaled.items()}

    def notes(self):
        raw = ", ".join(f"{k}={statistics.median(v):.6g}" for k, v in self.raw.items())
        counts = ", ".join(f"{k}={len(v)}" for k, v in self.raw.items())
        return [f"raw medians: {raw}", f"samples per median: {counts}"]


def _probe(prog, gauge, outcomes, samples, name, *args):
    for _ in range(SETUP_PROBES):
        _, factor, (seconds, problem) = gauge.time(lambda: prog.probe(*args))
        outcomes.record(f"probe {args[0]}", problem)
        samples.add(name, seconds, factor)


def _evolve_checked(prog, gauge, outcomes):
    seconds, factor, traj = _call(
        gauge, outcomes, "evolve", lambda: prog.nlevel.evolve(prog.spec, prog.config)
    )
    if traj is not None:
        outcomes.check_trajectory("evolve", traj.times, traj.populations)
    return seconds, factor


def end_to_end(prog, outcomes, seconds):
    gauge = Gauge()
    samples = Samples()
    _probe(prog, gauge, outcomes, samples, "setup_s", "setup", str(prog.config_path))
    _evolve_checked(prog, gauge, outcomes)  # warm-up, untimed
    rss = []
    deadline = time.perf_counter() + seconds
    while _measuring(deadline, len(samples.raw.get("steps_per_s", []))):
        # two CLI processes per in-process call: process times spread more
        for _ in range(2):
            _, factor, (wall, code, peak) = gauge.time(prog.cli_process)
            samples.add("wall_s", wall, factor)
            rss.append(peak)
            if code != 0:
                outcomes.record("cli", f"exit code {code}: {prog.stderr_tail()}")
            else:
                outcomes.check_csv("cli", prog.out_path)
        call_s, factor = _evolve_checked(prog, gauge, outcomes)
        # a rate scales inversely: steps per scaled second
        samples.add("steps_per_s", prog.w.steps / call_s, 1.0 / factor)
    values = samples.medians()
    values["peak_rss_mb"] = statistics.median(rss)
    values["max_pop_err"] = outcomes.max_pop_err
    return values, samples.notes() + [f"speed factor median {statistics.median(gauge.factors):.4f}"]


def _layer_round(prog, tracer, mids, psi):
    nl = prog.nlevel
    with tracer.span("hamiltonian.build", count=len(mids)):
        for _ in mids:
            nl.build_drift(prog.spec)
            nl.drive_coefficient(prog.spec)
    with tracer.span("hamiltonian.assemble", count=len(mids)):
        hams = [nl.build_full_hamiltonian(prog.spec, float(t)) for t in mids]
    with tracer.span("propagator.eig", count=len(mids)):
        eigs = [nl.hermitian_eig(h) for h in hams]
    with tracer.span("propagator.step", count=len(mids)):
        stepped = [nl.exp_step(h, prog.w.dt, psi) for h in hams]
    return hams, eigs, stepped


def _layer_rounds(prog, gauge, outcomes, tracer, budget):
    """Spans around the Hamiltonian and propagator entry points, over sampled midpoints.

    Returns the worst eigen-residual max ||HV - V diag(w)||_F / ||H||_F and the
    number of rounds.
    """
    w = prog.w
    edges = w.step_edges()
    steps = np.unique(np.linspace(0, w.steps - 1, min(w.steps, LAYER_MIDPOINTS)).astype(int))
    mids = edges[steps] + 0.5 * (edges[steps + 1] - edges[steps])
    # the package drops the mean energy (include_delta0 is off)
    expected = reference.hamiltonians(w, mids) - np.mean(w.energies) * np.eye(w.n)
    psi = w.psi0()
    residual = 0.0
    deadline = time.perf_counter() + budget
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        _, _, result = _call(gauge, outcomes, "layers",
                             lambda: _layer_round(prog, tracer, mids, psi), tracer)
        if result is None:
            continue
        hams, eigs, stepped = result
        problem = None
        if np.max(np.abs(np.array(hams) - expected)) > 1e-12 * max(1.0, np.max(np.abs(expected))):
            problem = "build_full_hamiltonian differs from the reference H(t)"
        for h, (vals, vecs), out in zip(hams, eigs, stepped):
            residual = max(residual, np.linalg.norm(h @ vecs - vecs * vals) / np.linalg.norm(h))
            exact = (vecs * np.exp(-1j * vals * w.dt)) @ (vecs.conj().T @ psi)
            if np.max(np.abs(out - exact)) > 1e-10:
                problem = "exp_step differs from the eigenbasis propagator"
        if residual > 1e-10:
            problem = f"eigen-residual {residual:.3e}"
        outcomes.record("layers", problem)
    return residual, rounds


def _traced_cli_main(prog, tracer):
    """cli.main inside a span, with a span around its call into evolve."""
    plain = prog.cli.evolve
    prog.cli.evolve = tracer.wrap("propagator.evolve", plain)
    root = len(tracer.spans)
    try:
        with tracer.span("cli.main"):
            code = prog.cli_main()
    finally:
        prog.cli.evolve = plain
    if code == 0 and len(tracer.children(root, "propagator.evolve")) != 1:
        raise SystemExit("perfbench: cli.main did not call evolve through nlevel.cli.evolve")
    return code


def _median(values):
    """Median, or 0.0 when no call got that far (the failures are counted)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def traced(prog, outcomes, seconds, spans_path):
    gauge = Gauge()
    tracer = Tracer()
    samples = Samples()
    _probe(prog, gauge, outcomes, samples, "nlevel.import_s", "import")
    residual, rounds = _layer_rounds(prog, gauge, outcomes, tracer, LAYER_SHARE * seconds)

    csv = None
    deadline = time.perf_counter() + (1.0 - LAYER_SHARE) * seconds
    while _measuring(deadline, len(samples.raw.get("traced", []))):
        # alternate which side runs first so drift reaches both alike
        order = ("traced", "untraced") if len(samples.raw.get("traced", [])) % 2 else ("untraced", "traced")
        for side in order:
            run = (lambda: _traced_cli_main(prog, tracer)) if side == "traced" else prog.cli_main
            raw, factor, code = _call(gauge, outcomes, "cli.main", run, tracer)
            samples.add(side, raw, factor)
            if code is None:
                continue
            if code != 0:
                outcomes.record("cli.main", f"exit code {code}")
            else:
                csv = outcomes.check_csv("cli.main", prog.out_path) or csv

    mains = [i for i, s in enumerate(tracer.spans) if s["name"] == "cli.main"]
    evolve_s = _median(tracer.per_call("propagator.evolve"))
    self_s = _median(
        tracer.seconds(tracer.spans[i])
        - sum(tracer.seconds(c) for c in tracer.children(i, "propagator.evolve"))
        for i in mains
    )
    us = {name: 1e6 * _median(tracer.per_call(name))
          for name in ("hamiltonian.assemble", "propagator.eig", "propagator.step")}
    rows, norm_drift = csv if csv is not None else (0, 0.0)
    timed = samples.medians()
    values = {
        "nlevel.import_s": timed["nlevel.import_s"],
        "hamiltonian.build_s": _median(tracer.per_call("hamiltonian.build")),
        "hamiltonian.assemble_us": us["hamiltonian.assemble"],
        "propagator.eig_us": us["propagator.eig"],
        "propagator.eig_residual": residual,
        "propagator.step_us": us["propagator.step"],
        "propagator.evolve_s": evolve_s,
        # below zero when hermitian_eig costs more per call than evolve's inner solve
        "propagator.overhead_us": (1e6 * evolve_s / prog.w.steps
                                   - us["propagator.eig"] - us["hamiltonian.assemble"]),
        "propagator.steps": prog.w.steps,
        "propagator.samples": rows,
        "propagator.norm_drift": norm_drift,
        "cli.total_s": _median(tracer.per_call("cli.main")),
        "cli.self_s": self_s,
        "cli.csv_bytes": prog.out_path.stat().st_size if prog.out_path.exists() else 0,
        "trace.overhead_frac": timed["traced"] / timed["untraced"] - 1.0,
    }
    spans_path.write_text(json.dumps(tracer.spans))
    return values, samples.notes() + [f"layer rounds: {rounds}"]


# What each layer metric should move, and where:
#   nlevel.import_s, hamiltonian.build_s  -> setup_s on every workload
#   hamiltonian.assemble_us               -> steps_per_s on driven3_dense and rabi2_floquet,
#                                            once assembly is on the evolve path
#   propagator.eig_us                     -> steps_per_s and wall_s, most on dense32
#   propagator.step_us, .overhead_us      -> steps_per_s on driven3_dense and rabi2_floquet
#   propagator.evolve_s, cli.self_s       -> wall_s (cli.self_s on driven3_dense)
#   propagator.eig_residual, .norm_drift  -> guard max_pop_err
UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_pop_err": "1",
    "nlevel.import_s": "s",
    "hamiltonian.build_s": "s",
    "hamiltonian.assemble_us": "us",
    "propagator.eig_us": "us",
    "propagator.eig_residual": "1",
    "propagator.step_us": "us",
    "propagator.evolve_s": "s",
    "propagator.overhead_us": "us",
    "propagator.steps": "count",
    "propagator.samples": "count",
    "propagator.norm_drift": "1",
    "cli.total_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "1",
}


def metadata(nlevel, seed):
    """What ran, and where: recorded next to every result."""
    numba_enabled = getattr(nlevel, "numba_enabled", None)  # absent once numba goes
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"
    return {
        "path": "numba" if numba_enabled is not None and numba_enabled() else "numpy",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "seed": seed,
    }


def run_all(args):
    """Every workload, end to end and then traced, each run in its own process."""
    worst = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        # Run on one CPU, children included, so the gauge kernel times the
        # core the measured work runs on.  Re-exec so numpy starts its BLAS
        # threads under the new mask (OpenBLAS then starts one).
        os.sched_setaffinity(0, {max(cpus)})
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "nlevel" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'nlevel'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    w = workloads.make(args.workload, args.seed)
    ref = reference.populations(w)
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        prog = Program(w, work)
        outcomes = Outcomes(w, ref)
        if args.trace:
            spans_path = SCRATCH / f"spans-{w.name}-{args.seed}.json"
            values, notes = traced(prog, outcomes, args.seconds, spans_path)
        else:
            values, notes = end_to_end(prog, outcomes, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"n={w.n} steps={w.steps} samples={ref.shape[0]}")
    for name, value in values.items():
        print(f"  {name:<26} {value:<14.6g} {UNITS[name]}")
    for note in notes:
        print(f"  {note}")
    for problem in outcomes.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"meta": metadata(prog.nlevel, args.seed)}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": float(v), "unit": UNITS[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
