"""Check in-process `evolve` against a stepwise loop, and time two checkouts in one paired run.

Usage:

    python benchmarks/sparse_sampling.py PARENT_SRC CHANGE_SRC [--calls 101]
                                          [--out BENCH_pairs.json]
    python benchmarks/sparse_sampling.py SRC

Each SRC is the ``src`` directory of an nlevel checkout.  A paired run
imports both into one process, PARENT_SRC as ``nlevel`` and CHANGE_SRC as
``nlevel_change`` (the package imports itself only relatively), and pins
the process to the first CPU of its affinity set.  After one warm-up index,
each of ``--calls`` call indices makes four passes over the cases, an ABBA
block: parent, change, change, parent.  A case's calls in the first two
passes are a pair in which the parent goes first, and those in the last two
a pair in which the change does, so each order has ``--calls`` pairs.  Every
call follows a call of another case: a call made right after one of the same
case runs faster (four driven_config calls in a row took 0.80, 0.64, 0.58
and 0.54 ms, medians of 41, on a 2-vCPU x86_64 VM), which favoured the
second side of each pair.  Each pass starts with one untimed call of its own
tree on the last case: without it the first pass of a pair started right
after a pass of its own tree and the second after one of the other tree, and
in an A/A run (the tree against itself, 101 pairs per order) the first
case, driven_config, read 30 and 70 wins of the second-loaded copy, one
count per order, against 54 and 45 with the call.  Per case the record
holds each side's median and quartiles in ms over both orders, and per
order each side's median and the change's wins (pairs in which the change
was faster); the change is faster on a case only when it wins at least nine
in ten of the pairs of each order.  It also holds each side's max |dp| against ``stepwise`` and
largest norm error.  The record, with its command, CPU and versions,
replaces ``--out``.  Its command names each path as its path from the
repository's root, or, outside the repository, as PARENT_SRC, CHANGE_SRC or
OUT, so that no local path enters the record.
Given one SRC, the script runs only that comparison, on SRC.  Both exit 1
when a case exceeds its bound or its sample times do not strictly increase.
The reference, and the step counts the bounds scale with, come from the
tree imported last: SRC, or CHANGE_SRC in a paired run, so that the script
checks both trees against the grid rule of the checkout it belongs to.

``stepwise`` is the one reference of the repository: the path tests in
``tests/test_propagator.py`` import it, with ``config_objects`` and
``committed``, which read a config through the nlevel CLI's own reader, the
one `nlevel evolve` runs.  It steps exp(-i h H(t_mid)) on the grid that
_grid gives evolve: full steps exactly dt long at t_start + (k + 1/2) dt,
then, only when _grid's h is nonzero, a last step of length h, one batched
eigh per block of steps and one matrix-vector product per step.
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
# the two pairs of an ABBA block: the parent first, then the change first
ORDERS = ("parent_first", "change_first")


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
        # large n, off the period grid and sampled every step: one-phase tables
        # (n >= 2M + 1) whose steps _chain applies one product at a time
        "offgrid_n16_600_every1": _driven(16, 0.05, 600, 1),
        "offgrid_n32_200_every1": _driven(32, 0.05, 200, 1),
        "offgrid_n128_40_every1": _driven(128, 0.05, 40, 1),
        # fresh eigh steps in the lab frame: a last step of 0.6 dt, a step
        # table too large to fit (dt g / 2 = 30), and fewer full steps (2) than
        # the table's Q (13)
        "offgrid_n3_20k_every100_short_last": _driven(3, 0.005, 20_000.6, 100),
        "nofit_n2_2k_every1": dict(_driven(2, 0.05, 2000, 1), g=1200.0),
        "short_n3_2_every1": dict(_driven(3, 0.5, 2, 1), g=5.0),
        # Taylor steps in the lab frame, whose products cost less than the
        # eigh of a one-phase table: dense32's shape (2 steps, one sample
        # interval), 4 steps and a last one of 0.6 dt, and a few dozen steps
        # at n = 512
        "offgrid_n32_2_every2": _driven(32, 0.05, 2, 2),
        "offgrid_n32_4_every2_short_last": _driven(32, 0.05, 4.6, 2),
        "offgrid_n512_24_every1": _driven(512, 0.05, 24, 1),
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
        "frame_static_n32_1k_every100": _driven(32, 0.05, 1000, 100, omega=0.0),
        # a late start, where t_end - t_start rounds to just over 10 dt while
        # edge 10 lands on t_end: 10 steps, the last sampled once
        "late_start_n3_10_every10": _driven(3, 0.01, 10, 10, t_start=1e4),
    }


def config_objects(raw, tree="nlevel"):
    """The SystemSpec and EvolutionConfig that `nlevel evolve` of package ``tree`` builds."""
    return importlib.import_module(f"{tree}.cli")._run_inputs(raw)


def stepwise(spec, config, tree="nlevel"):
    """Sample times, populations and the final state from one eigh step per step.

    The steps lie on the grid that the package ``tree``'s _grid gives
    evolve, (n_steps, whole, h): steps 1..whole exactly dt long, centred at
    t_start + (k + 1/2) dt, then, only when h is nonzero, a last step of
    length h centred at t_start + whole dt + h / 2.  No other step length is
    formed.  They start from the initial state as evolve normalizes it, a
    basis index or amplitudes.
    Each step applies exp(-i h H(t_mid)) as v (v^dagger psi) e^{-i w h},
    exp_step's formula, with H and eigh batched per block of
    _REFERENCE_CHUNK steps.
    """
    hamiltonian_at = importlib.import_module(f"{tree}.hamiltonian").hamiltonian_at
    propagator = importlib.import_module(f"{tree}.propagator")
    t_start, dt = config.t_start, config.dt
    steps, whole, h = propagator._grid(t_start, config.t_end, dt)
    edges = t_start + np.arange(steps + 1) * dt
    edges[-1] = config.t_end
    lengths = np.full(steps, dt)
    mids = t_start + (np.arange(steps) + 0.5) * dt
    if h:
        lengths[-1] = h
        mids[-1] = t_start + whole * dt + 0.5 * h
    psi = propagator._initial_vector(spec.n, config.initial_state)
    taken, states = [0], [psi]
    for start in range(0, steps, _REFERENCE_CHUNK):
        block = slice(start, start + _REFERENCE_CHUNK)
        w, v = np.linalg.eigh(hamiltonian_at(spec, mids[block]))
        phases = np.exp(-1j * w * lengths[block, None])
        for j, k in enumerate(range(start + 1, start + len(w) + 1)):
            psi = v[j] @ ((v[j].conj().T @ psi) * phases[j])
            if k % config.sample_every == 0 or k == steps:
                taken.append(k)
                states.append(psi)
    return edges[taken], np.abs(np.array(states)) ** 2, psi


def check(tree, raws, references, grid):
    """Max |dp| against the references, largest norm error, both bounds and ordered times, per case.

    ``grid`` is the reference tree's _grid, whose step count scales the
    bounds.  A run whose sample times do not strictly increase fails, and
    one with a sample count other than the reference's reads max |dp| inf.
    """
    results = {}
    for name, raw in raws.items():
        spec, config = config_objects(raw, tree.__name__)
        traj = tree.evolve(spec, config)
        steps = grid(config.t_start, config.t_end, config.dt)[0]
        same = traj.populations.shape == references[name].shape
        results[name] = {
            "max_dp": float(np.max(np.abs(traj.populations - references[name])))
                      if same else math.inf,
            "max_dp_bound": max(MAX_DP, EPS_PER_STEP * steps),
            "norm_error": float(np.max(traj.norm_errors)),
            "norm_error_bound": EPS_PER_STEP * steps,
            "times_increase": bool(np.all(np.diff(traj.times) > 0)),
        }
    return results


def time_pairs(trees, raws, calls):
    """Per order of ORDERS, side and case, the ms of ``calls`` evolve calls after a warm-up index.

    Each call index makes an ABBA block of passes over the cases, parent
    (side 0), change, change, parent: the first two passes give the pairs of
    order 0, the last two those of order 1.  Each pass starts with one
    untimed call of its own tree on the last case, so that its first case
    follows a call of its own tree in both passes of a pair.
    """
    runs = [{name: config_objects(raw, tree.__name__) for name, raw in raws.items()}
            for tree in trees]
    times = [[{name: [] for name in raws} for _ in trees] for _ in ORDERS]
    last = list(raws)[-1]
    for _ in range(calls + 1):
        for order, side in ((0, 0), (0, 1), (1, 1), (1, 0)):
            trees[side].evolve(*runs[side][last])
            for name in raws:
                t0 = time.perf_counter()
                trees[side].evolve(*runs[side][name])
                times[order][side][name].append(1e3 * (time.perf_counter() - t0))
    return [[{name: ms[1:] for name, ms in side.items()} for side in order]
            for order in times]


def _named(path, outside):
    """``path`` relative to the repository's root, or ``outside`` when it lies elsewhere."""
    path = Path(path).resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else outside


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
    reference = trees[-1].__name__
    references = {name: stepwise(*config_objects(raw, reference), reference)[1]
                  for name, raw in raws.items()}
    checks = [check(tree, raws, references, trees[-1].propagator._grid) for tree in trees]
    bad = sorted({name for results in checks for name, r in results.items()
                  if not (r["max_dp"] <= r["max_dp_bound"] and r["times_increase"]
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
        parent, change = (_timed(checks[side][name], times[0][side][name] + times[1][side][name])
                          for side in (0, 1))
        orders = {order: {
            "parent_median_ms": statistics.median(parents[name]),
            "change_median_ms": statistics.median(changes[name]),
            "change_wins": sum(c < p for p, c in zip(parents[name], changes[name])),
        } for order, (parents, changes) in zip(ORDERS, times)}
        faster = all(10 * o["change_wins"] >= 9 * args.calls for o in orders.values())
        results[name] = {"parent": parent, "change": change, "orders": orders,
                         "pairs_per_order": args.calls, "faster": faster}
        print(f"{name:36s} {parent['median_ms']:9.3f} ms -> {change['median_ms']:9.3f} ms,"
              " change won " + ", ".join(f"{o['change_wins']}/{args.calls} {order}"
                                         for order, o in orders.items())
              + (", faster" if faster else ""))
    command = ["python", "benchmarks/sparse_sampling.py", _named(args.src, "PARENT_SRC"),
               _named(args.change, "CHANGE_SRC"), "--calls", str(args.calls)]
    if args.out != parser.get_default("out"):
        command += ["--out", _named(args.out, "OUT")]
    Path(args.out).write_text(json.dumps({
        "command": shlex.join(command),
        "what": "in-process nlevel.evolve, ms per call, both trees in one process, "
                "each call index an ABBA block of passes over the cases; orders: per "
                "pair order, each side's median and the pairs the change was faster; "
                "faster: the change won nine in ten pairs of both orders; max_dp "
                "against stepwise",
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
