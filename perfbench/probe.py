"""Fresh-process timings, run by run.py with the package sources on PYTHONPATH.

    python3 perfbench/probe.py import          # time `import nlevel`
    python3 perfbench/probe.py setup CONFIG    # import + a one-step evolve of CONFIG

Prints the elapsed seconds, measured inside the process from just before
`import nlevel`, so interpreter start-up is not included.
"""

import json
import sys
import time


def build_inputs(nlevel, raw, steps=None):
    """SystemSpec and EvolutionConfig for a generated config, via the public API.

    With ``steps`` the grid is cut to that many steps of the config's dt.
    """
    spec = nlevel.SystemSpec(
        n=raw["n"],
        energies=tuple(raw["energies"]),
        g=raw["g"],
        omega=raw["omega"],
        drive_model=raw["drive_model"],
    )
    initial = raw["initial_state"]
    if isinstance(initial, list):
        initial = [complex(re, im) for re, im in initial]
    t_end = raw["t_end"] if steps is None else raw["t_start"] + steps * raw["dt"]
    config = nlevel.EvolutionConfig(
        t_start=raw["t_start"],
        t_end=t_end,
        dt=raw["dt"],
        initial_state=initial,
        sample_every=raw["sample_every"] if steps is None else 1,
    )
    return spec, config


def main(argv):
    mode = argv[0]
    if mode not in ("import", "setup"):
        raise SystemExit(f"unknown probe {mode!r}")
    raw = None
    if mode == "setup":
        with open(argv[1]) as fh:
            raw = json.load(fh)
    t0 = time.perf_counter()
    import nlevel

    if raw is not None:
        nlevel.evolve(*build_inputs(nlevel, raw, steps=1))
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
