"""Time in-process `evolve` on sparsely sampled runs and check it against a stepwise loop.

Usage:

    python benchmarks/sparse_sampling.py SRC --label NAME [--calls 21] [--cpu 0]
                                          [--out BENCH_sparse.json]
    python benchmarks/sparse_sampling.py SRC --check

SRC is the ``src`` directory of the nlevel checkout to time, so the same
script times two commits: run it on each in turn, alternating, with one
``--label`` per commit.  Each run appends its record to the JSON file under
``runs`` and recomputes ``ratios``: for every pair of labels, the median over
runs of each label's per-case median time, first label over second.

A run pins the process to one CPU (``--cpu``), then makes ``--calls`` timed
calls per case, interleaved: call i of every case is made before call i + 1
of any.  One warm-up call per case comes first.  Each case records the median
and quartiles of its calls, the max |dp| of its populations against a
stepwise loop of exp(-i dt H(t_mid)) by eigh, one matrix-vector product per
step (exp_step's formula, with the Hamiltonians and eigh batched), and its
largest norm error.  ``--check`` runs only that comparison and exits 1 when
a case exceeds its bound.
"""

import argparse
import json
import math
import os
import platform
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


def _committed(name):
    return json.loads((ROOT / "configs" / name).read_text())


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
    driven = _committed("driven_three_level.json")
    rabi = _committed("rabi_two_level.json")
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
        # step, and static specs (w = 0), dense and sparse
        "frame_rwa2_5k_every100": dict(rabi, t_end=5000 * rabi_dt, sample_every=100),
        "frame_rwa2_200k_every1": dict(rabi, t_end=200_000 * rabi_dt, sample_every=1),
        "frame_static_n2_5k_every100": _driven(2, 0.05, 5000, 100, omega=0.0),
        "frame_static_n3_5k_every100": _driven(3, 0.05, 5000, 100, omega=0.0),
        "frame_static_n8_5k_every100": _driven(8, 0.05, 5000, 100, omega=0.0),
        "frame_static_n8_100k_every1": _driven(8, 0.05, 100_000, 1, omega=0.0),
    }


def _objects(nlevel, raw):
    spec = nlevel.SystemSpec(n=raw["n"], energies=tuple(raw["energies"]), g=raw["g"],
                             omega=raw["omega"], drive_model=raw["drive_model"])
    config = nlevel.EvolutionConfig(t_start=raw["t_start"], t_end=raw["t_end"],
                                    dt=raw["dt"], initial_state=raw["initial_state"],
                                    sample_every=raw["sample_every"])
    return spec, config


def _reference(nlevel, spec, config):
    """Populations at the sample instants from one eigh step per step, on evolve's grid."""
    from nlevel.hamiltonian import hamiltonian_at

    dt, steps = config.dt, _steps(config)
    psi = np.zeros(spec.n, dtype=complex)
    psi[config.initial_state] = 1.0
    rows = [np.abs(psi) ** 2]
    for start in range(0, steps, _REFERENCE_CHUNK):
        k = np.arange(start, min(start + _REFERENCE_CHUNK, steps))
        t0 = config.t_start + k * dt
        t1 = np.where(k + 1 == steps, config.t_end, config.t_start + (k + 1) * dt)
        w, v = np.linalg.eigh(hamiltonian_at(spec, t0 + 0.5 * (t1 - t0)))
        phases = np.exp(-1j * w * (t1 - t0)[:, None])
        for j, step in enumerate(k):
            psi = v[j] @ ((v[j].conj().T @ psi) * phases[j])
            if (step + 1) % config.sample_every == 0 or step + 1 == steps:
                rows.append(np.abs(psi) ** 2)
    return np.array(rows)


def _steps(config):
    """evolve's step count on the config's grid."""
    span = config.t_end - config.t_start
    return max(int(math.ceil((span / config.dt) * (1.0 - 1e-12))), 1)


def check(nlevel, raws):
    """Max |dp| against the stepwise loop, largest norm error and both bounds, per case."""
    results = {}
    for name, raw in raws.items():
        spec, config = _objects(nlevel, raw)
        traj = nlevel.evolve(spec, config)
        dp = float(np.max(np.abs(traj.populations - _reference(nlevel, spec, config))))
        steps = _steps(config)
        results[name] = {
            "max_dp": dp, "max_dp_bound": max(MAX_DP, EPS_PER_STEP * steps),
            "norm_error": float(np.max(traj.norm_errors)),
            "norm_error_bound": EPS_PER_STEP * steps,
        }
    return results


def time_calls(nlevel, raws, calls):
    """Median and quartiles in ms of interleaved in-process evolve calls, per case."""
    runs = {name: _objects(nlevel, raw) for name, raw in raws.items()}
    times = {name: [] for name in runs}
    for name, args in runs.items():
        nlevel.evolve(*args)
    for _ in range(calls):
        for name, args in runs.items():
            t0 = time.perf_counter()
            nlevel.evolve(*args)
            times[name].append(1e3 * (time.perf_counter() - t0))
    out = {}
    for name, ms in times.items():
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
        out[name] = {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "calls": len(ms)}
    return out


def _ratios(runs):
    """Per case, for each pair of labels, median of the first's medians over the second's."""
    medians = {}
    for run in runs:
        for name, result in run["results"].items():
            if "median_ms" in result:
                medians.setdefault(run["label"], {}).setdefault(name, []).append(
                    result["median_ms"])
    labels = list(medians)
    ratios = {}
    for i, first in enumerate(labels):
        for second in labels[i + 1 :]:
            ratios[f"{first}/{second}"] = {
                name: statistics.median(medians[first][name])
                / statistics.median(medians[second][name])
                for name in medians[first] if name in medians[second]
            }
    return ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="the src directory of the nlevel checkout to time")
    parser.add_argument("--label", help="name of this checkout in the JSON file")
    parser.add_argument("--calls", type=int, default=21)
    parser.add_argument("--cpu", type=int, default=0, help="CPU to pin the process to")
    parser.add_argument("--out", default=str(ROOT / "BENCH_sparse.json"))
    parser.add_argument("--check", action="store_true",
                        help="only compare against the stepwise loop")
    args = parser.parse_args(argv)
    if not args.check and (args.label is None or args.calls < 21):
        parser.error("a timed run needs --label and at least 21 --calls")
    sys.path.insert(0, str(Path(args.src).resolve()))
    import nlevel

    raws = cases()
    results = check(nlevel, raws)
    bad = {name: r for name, r in results.items()
           if not (r["max_dp"] <= r["max_dp_bound"]
                   and r["norm_error"] <= r["norm_error_bound"])}
    for name, r in results.items():
        print(f"{name:30s} max|dp| {r['max_dp']:.2e}  norm error {r['norm_error']:.2e}")
    if args.check:
        if bad:
            print(f"over the bounds: {sorted(bad)}", file=sys.stderr)
        return 1 if bad else 0

    os.sched_setaffinity(0, {args.cpu})
    for name, timing in time_calls(nlevel, raws, args.calls).items():
        results[name].update(timing)
        print(f"{name:30s} {timing['median_ms']:9.3f} ms "
              f"[{timing['q1_ms']:.3f}, {timing['q3_ms']:.3f}]")
    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {
        "script": "benchmarks/sparse_sampling.py",
        "what": "in-process nlevel.evolve, ms per call; max_dp against a stepwise "
                "eigh loop; ratios are medians over runs of the per-run medians",
        "cases": raws,
        "runs": [],
    }
    record["runs"].append({
        "label": args.label,
        "pinned_cpu": args.cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
    })
    record["ratios"] = _ratios(record["runs"])
    path.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
