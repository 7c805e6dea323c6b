"""Check in-process `evolve` against a stepwise loop, and time two checkouts in one paired run.

Usage:

    python benchmarks/sparse_sampling.py PARENT_SRC CHANGE_SRC [--calls 101]
                                          [--out BENCH_pairs.json]
    python benchmarks/sparse_sampling.py SRC

Each SRC is the ``src`` directory of an nlevel checkout.  A paired run
imports both into one process, PARENT_SRC as ``nlevel`` and CHANGE_SRC as
``nlevel_change`` (the package imports itself only relatively), and pins
the process to the first CPU of its affinity set.  After one warm-up pair
per case, each of ``--calls`` call indices runs every case once on each
side, and the side that goes first alternates from one index to the next.
Per case the record holds each side's median and quartiles in ms, the
change's wins (calls faster than the parent's call of the same index) over
its pairs, and each side's max |dp| against ``stepwise`` and largest norm
error.  The record, with its command, CPU and versions, replaces ``--out``.
Given one SRC, the script runs only that comparison, on SRC.  Both exit 1
when a case exceeds its bound.  The reference runs on the tree imported as
``nlevel``.

``stepwise`` is the one reference of the repository: the path tests in
``tests/test_propagator.py`` import it, with ``config_objects`` and
``committed``, which read a config through the nlevel CLI's own reader, the
one `nlevel evolve` runs.  It steps exp(-i h H(t_mid)) on evolve's grid, one
batched eigh per block of steps and one matrix-vector product per step.
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import shlex
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# populations within this of the stepwise loop, or within 16 eps per step on
# longer runs, where the loop's own rounding grows past it; norm errors within
# 16 eps per step
MAX_DP = 1e-10
EPS_PER_STEP = 16 * np.finfo(np.float64).eps
# steps per batched eigh of the reference loop
_REFERENCE_CHUNK = 4096


def load(src, name="nlevel"):
    """Import the nlevel package under the directory ``src`` as module ``name``."""
    package = Path(src).resolve() / "nlevel"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def committed(name):
    """A committed `nlevel evolve` config, read as the CLI reads it."""
    return importlib.import_module("nlevel.cli")._load_config(ROOT / "configs" / name)


def _driven(n, dt, steps, every, period=None, omega=1.0137, model="generalized",
            t_start=0.0):
    """A driven run of n levels; with ``period``, dt is the drive period over it."""
    if period is not None:
        dt = 2.0 * math.pi / (abs(omega) * period)
    energies = [-1.0, 0.3, 1.1] if n == 3 else [math.sin(1.3 * k) for k in range(n)]
    return {
        "n": n, "energies": energies, "g": 0.25, "omega": omega, "drive_model": model,
        "t_start": t_start, "t_end": t_start + steps * dt, "dt": dt,
        "sample_every": every, "initial_state": 0,
    }


def cases():
    """The timed inputs: the committed configs, sparse lab-frame runs and frame runs."""
    driven = committed("driven_three_level.json")
    rabi = committed("rabi_two_level.json")
    rabi_dt = rabi["dt"]
    return {
        # the committed configs as given, and the driven one sampled more sparsely
        "driven_config": driven,
        "driven_config_every200": dict(driven, sample_every=200),
        "rabi_config": rabi,
        # off the period grid: dt does not divide the drive period
        "offgrid_n3_100k_every100": _driven(3, 0.005, 100_000, 100),
        "offgrid_n3_200k_every1000": _driven(3, 0.005, 200_000, 1000),
        # commensurate grids of K = 100 steps per drive period
        "k100_n3_5k_every100": _driven(3, None, 5000, 100, period=100),
        "k100_n8_5k_every100": _driven(8, None, 5000, 100, period=100),
        "k100_n3_200k_every1000": _driven(3, None, 200_000, 1000, period=100),
        "k100_n8_200k_every1000": _driven(8, None, 200_000, 1000, period=100),
        "rabi_cosine2_100k_every4099": dict(rabi, drive_model="cosine2",
                                            t_end=100_000 * rabi["dt"], sample_every=4099),
        # commensurate and sampled every step
        "k100_n3_1500_every1": _driven(3, None, 1500, 1, period=100),
        "k100_n8_1500_every1": _driven(8, None, 1500, 1, period=100),
        # the rotating frame: rwa2, whose Rabi config ends on a shortened
        # step, and static specs (w = 0), dense and sparse, on the grid and
        # with a last step of 0.6 dt
        "frame_rwa2_5k_every100": dict(rabi, t_end=5000 * rabi_dt, sample_every=100),
        "frame_rwa2_200k_every1": dict(rabi, t_end=200_000 * rabi_dt, sample_every=1),
        "frame_static_n2_5k_every100": _driven(2, 0.05, 5000, 100, omega=0.0),
        "frame_static_n3_5k_every100": _driven(3, 0.05, 5000, 100, omega=0.0),
        "frame_static_n8_5k_every100": _driven(8, 0.05, 5000, 100, omega=0.0),
        "frame_static_n8_5k_every100_offgrid": _driven(8, 0.05, 5000.6, 100, omega=0.0),
        "frame_static_n8_100k_every1": _driven(8, 0.05, 100_000, 1, omega=0.0),
    }


def config_objects(raw, tree="nlevel"):
    """The SystemSpec and EvolutionConfig that `nlevel evolve` of package ``tree`` builds."""
    return importlib.import_module(f"{tree}.cli")._run_inputs(raw)


def stepwise(spec, config):
    """Sample times, populations and the final state from one eigh step per step.

    The steps lie on evolve's grid, edges t_start + k dt and the last at
    t_end, and start from the initial state as evolve normalizes it, a basis
    index or amplitudes.  Each step applies exp(-i h H(t_mid)) as v (v^dagger psi)
    e^{-i w h}, exp_step's formula, with H and eigh batched per block of
    _REFERENCE_CHUNK steps.
    """
    from nlevel.hamiltonian import hamiltonian_at
    from nlevel.propagator import _initial_vector, _step_count

    steps = _step_count(config.t_end - config.t_start, config.dt)
    edges = config.t_start + np.arange(steps + 1) * config.dt
    edges[-1] = config.t_end
    psi = _initial_vector(spec.n, config.initial_state)
    taken, states = [0], [psi]
    for start in range(0, steps, _REFERENCE_CHUNK):
        block = edges[start : start + _REFERENCE_CHUNK + 1]
        t0, h = block[:-1], np.diff(block)
        w, v = np.linalg.eigh(hamiltonian_at(spec, t0 + 0.5 * h))
        phases = np.exp(-1j * w * h[:, None])
        for j, k in enumerate(range(start + 1, start + len(h) + 1)):
            psi = v[j] @ ((v[j].conj().T @ psi) * phases[j])
            if k % config.sample_every == 0 or k == steps:
                taken.append(k)
                states.append(psi)
    return edges[taken], np.abs(np.array(states)) ** 2, psi


def check(tree, raws, references):
    """Max |dp| against the references, largest norm error and both bounds, per case."""
    results = {}
    for name, raw in raws.items():
        spec, config = config_objects(raw, tree.__name__)
        traj = tree.evolve(spec, config)
        steps = tree.propagator._step_count(config.t_end - config.t_start, config.dt)
        results[name] = {
            "max_dp": float(np.max(np.abs(traj.populations - references[name]))),
            "max_dp_bound": max(MAX_DP, EPS_PER_STEP * steps),
            "norm_error": float(np.max(traj.norm_errors)),
            "norm_error_bound": EPS_PER_STEP * steps,
        }
    return results


def time_pairs(trees, raws, calls):
    """Per side and case, the ms of ``calls`` evolve calls made in pairs after a warm-up pair."""
    runs = [{name: config_objects(raw, tree.__name__) for name, raw in raws.items()}
            for tree in trees]
    times = [{name: [] for name in raws} for _ in trees]
    for i in range(calls + 1):
        for name in raws:
            for side in (1, 0) if i % 2 else (0, 1):
                t0 = time.perf_counter()
                trees[side].evolve(*runs[side][name])
                times[side][name].append(1e3 * (time.perf_counter() - t0))
    return [{name: ms[1:] for name, ms in side.items()} for side in times]


def _timed(result, ms):
    """A case's check result with the median and quartiles of its call times."""
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return dict(result, median_ms=median, q1_ms=q1, q3_ms=q3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="the src directory of the checkout to check, "
                                    "or of the parent in a paired run")
    parser.add_argument("change", nargs="?", help="the src directory of the change")
    parser.add_argument("--calls", type=int, default=101)
    parser.add_argument("--out", default=str(ROOT / "BENCH_pairs.json"))
    args = parser.parse_args(argv)
    if args.calls < 21:
        parser.error("--calls must be at least 21")
    trees = [load(args.src)] + (
        [] if args.change is None else [load(args.change, "nlevel_change")])

    raws = cases()
    references = {name: stepwise(*config_objects(raw))[1] for name, raw in raws.items()}
    checks = [check(tree, raws, references) for tree in trees]
    bad = sorted({name for results in checks for name, r in results.items()
                  if not (r["max_dp"] <= r["max_dp_bound"]
                          and r["norm_error"] <= r["norm_error_bound"])})
    for name in raws:
        print(f"{name:36s}", "  ".join(f"max|dp| {results[name]['max_dp']:.2e}  norm error "
                                       f"{results[name]['norm_error']:.2e}"
                                       for results in checks))
    if bad:
        print(f"over the bounds: {bad}", file=sys.stderr)
    if args.change is None:
        return 1 if bad else 0

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    times = time_pairs(trees, raws, args.calls)
    results = {}
    for name in raws:
        parent, change = (_timed(c[name], t[name]) for c, t in zip(checks, times))
        wins = sum(c < p for p, c in zip(times[0][name], times[1][name]))
        results[name] = {"parent": parent, "change": change, "change_wins": wins,
                         "pairs": args.calls}
        print(f"{name:36s} {parent['median_ms']:9.3f} ms -> {change['median_ms']:9.3f} ms,"
              f" change won {wins}/{args.calls}")
    Path(args.out).write_text(json.dumps({
        "command": shlex.join(["python", "benchmarks/sparse_sampling.py",
                               *(sys.argv[1:] if argv is None else argv)]),
        "what": "in-process nlevel.evolve, ms per call, both trees in one process; "
                "change_wins: pairs the change was faster; max_dp against stepwise",
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cases": raws,
        "results": results,
    }, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
