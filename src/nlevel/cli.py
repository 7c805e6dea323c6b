"""Command line interface.

Four subcommands: ``algebra`` audits the operator identities at a given
dimension, ``matrices`` dumps the builders as JSON, ``decompose`` reports the
energy decomposition, and ``evolve`` writes a population trajectory as CSV.

A config's keys are the fields of ``SystemSpec`` and ``EvolutionConfig`` plus
``output_path``.  The dataclasses supply every default and validate every
value; the CLI only rejects unknown keys, names missing required ones, checks
``output_path`` and turns ``[re, im]`` pairs into complex amplitudes.

Exit status, set by ``main`` alone: 0 on success (all audits pass), 1 on user
or config errors and audit failures, 2 on internal numerical failure
(eigensolver non-convergence).  A command returns 1 when its audit fails and
nothing otherwise; ``main`` maps the exceptions it raises.
"""

import argparse
import dataclasses
import json
import os
import sys
from contextlib import suppress

import numpy as np

from .algebra import (
    adjoint,
    build_clock,
    build_fourier,
    build_shift,
    mat_mul,
    mat_pow,
    primitive_root,
    root_power,
)
from .hamiltonian import (
    SystemSpec,
    _as_real,
    _clock_sums,
    build_interaction,
    energies_to_deltas,
    interaction_diagonal,
)
from .propagator import EigenConvergenceError, EvolutionConfig, evolve

# the config keys are the fields of the two dataclasses, which own their
# defaults and validation, plus the CLI's own output path
_CONFIG_KEYS = frozenset(
    [f.name for cls in (SystemSpec, EvolutionConfig) for f in dataclasses.fields(cls)]
    + ["output_path"]
)

# CSV rows formatted per string operation; bounds the text held at once
_CSV_BLOCK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for numerical
    # failure and report usage problems as user errors instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _tolerance(text: str) -> float:
    """An ``algebra --tol`` value: a finite float >= 0, else a usage error."""
    with suppress(ValueError):
        if 0.0 <= float(text) <= sys.float_info.max:
            return float(text)
    raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def identity_residuals(n: int):
    """Residuals of the operator identities at dimension n, as (name, value).

    Covers the power cycles, adjoint powers, the commutation phase, the root
    sum, Fourier unitarity, shift diagonalization, and the drive-diagonal
    identity swept over 32 drive phases.
    """
    shift = build_shift(n)
    clock = build_clock(n)
    w = build_fourier(n)
    eye = np.eye(n)
    sigma = primitive_root(n)

    drive_residual = 0.0
    for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        lhs = build_interaction(n, 1.0, 1.0, float(theta))
        rhs = w @ interaction_diagonal(n, 1.0, float(theta)) @ adjoint(w)
        drive_residual = max(drive_residual, _max_abs(lhs - rhs))

    return [
        ("shift_power", _max_abs(mat_pow(shift, n) - eye)),
        ("clock_power", _max_abs(mat_pow(clock, n) - eye)),
        ("shift_adjoint", _max_abs(adjoint(shift) - mat_pow(shift, n - 1))),
        ("clock_adjoint", _max_abs(adjoint(clock) - mat_pow(clock, n - 1))),
        ("commutation", _max_abs(mat_mul(clock, shift) - sigma * mat_mul(shift, clock))),
        ("root_sum", abs(complex(np.sum(root_power(n, np.arange(n)))))),
        ("fourier_unitary", _max_abs(mat_mul(w, adjoint(w)) - eye)),
        ("diagonalization", _max_abs(w @ clock @ adjoint(w) - shift)),
        ("drive_diagonal", drive_residual),
    ]


def _write(pieces, path):
    """Write the text pieces to ``path``, or to stdout when it is None.

    A device or pipe, such as /dev/stdout, is written in place.  Otherwise
    the text goes to a temporary file in the same directory, renamed over
    ``path`` (over the file a symlink points to) once the last piece is
    written; on any exception the temporary file is removed and an existing
    ``path`` keeps its old content.  The file is opened before the first
    piece is asked for, so a bad path fails before a generator of pieces
    does any work.
    """
    if path is None:
        sys.stdout.writelines(pieces)
        return
    if not path:
        raise ValueError("output path must not be empty")
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
        return
    real = os.path.realpath(path)
    head, name = os.path.split(real)
    tmp = os.path.join(head, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, real)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _matrices_json(n):
    """json.dumps of {"n": n, name: matrix, ...}, indent=2, and a newline, in pieces.

    The matrices are the shift, clock and fourier matrices of n levels.  A
    matrix is written as its rows of {"re": ..., "im": ...} objects, one
    row at a time, so that neither the objects nor the text of a whole
    matrix are ever held.  A non-finite entry has no JSON form: ValueError
    is raised before the first piece.
    """
    matrices = dict(shift=build_shift(n), clock=build_clock(n), fourier=build_fourier(n))
    if not all(np.isfinite(m).all() for m in matrices.values()):
        raise ValueError("Out of range float values are not JSON compliant")
    yield f'{{\n  "n": {n}'
    for name, m in matrices.items():
        for j, row in enumerate(m):
            entries = [{"re": float(z.real), "im": float(z.imag)} for z in row]
            text = json.dumps(entries, indent=2).replace("\n", "\n    ")
            yield (",\n    " if j else f',\n  "{name}": [\n    ') + text
        yield "\n  ]"
    yield "\n}\n"


def _csv_blocks(*columns):
    """The rows of float columns side by side as CSV text, every value as %.17g.

    Each argument is a 1-d array, one column, or a 2-d array of columns,
    all of one length.  Yields the text a block of rows at a time, and
    stacks the columns of one block only, so no copy of the whole table is
    held; %.17g gives the same digits as format(x, ".17g"), so values
    round-trip exactly.
    """
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
        row = ",".join(["%.17g"] * block.shape[1]) + "\n"
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def _trajectory_csv(spec, config):
    """The CSV text of `nlevel evolve`; the run starts when the first piece is asked for."""
    traj = evolve(spec, config)
    yield "t," + ",".join(f"p{i}" for i in range(spec.n)) + ",norm_error\n"
    yield from _csv_blocks(traj.times, traj.populations, traj.norm_errors)


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: top level must be a JSON object")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key: {key!r}")
    out_path = raw.get("output_path")
    if out_path is not None and not isinstance(out_path, str):
        raise ValueError(f"config key 'output_path' must be a string, got {out_path!r}")
    return raw


def _config_fields(raw, cls, required):
    """The config values of ``cls``'s fields; an absent one takes the field default."""
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValueError("missing config key(s): " + ", ".join(map(repr, missing)))
    return {f.name: raw[f.name] for f in dataclasses.fields(cls) if f.name in raw}


def _initial_state_from_config(value):
    """A basis index, or the complex amplitudes of ``[re, im]`` pairs.

    Only the JSON shapes are checked here; ``_as_real`` checks each entry.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, list):
        raise ValueError("config key 'initial_state' must be an index or [re, im] pairs")
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in value):
        raise ValueError("config key 'initial_state' entries must be [re, im] number pairs")
    return [complex(*(_as_real(x, "initial_state amplitude") for x in pair)) for pair in value]


def _run_inputs(raw):
    """The SystemSpec and EvolutionConfig that `nlevel evolve` runs from a config."""
    spec = SystemSpec(**_config_fields(raw, SystemSpec, ("n", "energies")))
    fields = _config_fields(raw, EvolutionConfig, ("t_start", "t_end", "dt", "initial_state"))
    fields["initial_state"] = _initial_state_from_config(fields["initial_state"])
    return spec, EvolutionConfig(**fields)


def _cmd_algebra(args):
    rows = identity_residuals(args.n)
    print(f"identity audit: n = {args.n}, tolerance = {args.tol:g}")
    failures = 0
    for name, residual in rows:
        ok = residual <= args.tol
        failures += 0 if ok else 1
        print(f"{name:<16} {residual:12.3e}  {'PASS' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} identity check(s) failed")
        return 1
    print("all identities hold")


def _cmd_matrices(args):
    _write(_matrices_json(args.n), args.out)


def _cmd_decompose(args):
    raw = _load_config(args.config)
    spec = SystemSpec(**_config_fields(raw, SystemSpec, ("n", "energies")))
    deltas = energies_to_deltas(spec.energies)
    # Delta_{n-j} against conj(Delta_j), n - j taken mod n; the abs of each
    # numpy scalar, as np.abs on the array may round differently
    pairing = max(map(abs, np.roll(deltas[::-1], 1) - deltas.conj()))
    # the paper's sum_j Delta_j clock^j, whose diagonal should give back E; it
    # runs scaled by 2^-p (see _clock_sums), so E is scaled the same way for
    # the residual, which is then scaled back by 2^p
    clock_sum, p = _clock_sums(deltas, 1)
    reconstruction = np.ldexp(_max_abs(clock_sum - np.ldexp(spec.energies, -p)), p)

    payload = {
        "n": spec.n,
        "energies": [float(e) for e in spec.energies],
        "deltas": [{"re": float(d.real), "im": float(d.imag)} for d in deltas],
        "hermitian_residual": float(pairing),
        "reconstruction_residual": float(reconstruction),
    }
    # a non-finite value has no JSON form: raise ValueError, write nothing
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _write([text], args.out if args.out is not None else raw.get("output_path"))


def _cmd_evolve(args):
    raw = _load_config(args.config)
    spec, config = _run_inputs(raw)
    out_path = args.out if args.out is not None else raw.get("output_path")
    if out_path is None:
        raise ValueError("no output path: pass --out or set 'output_path' in the config")

    _write(_trajectory_csv(spec, config), out_path)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlevel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="audit the operator identities")
    p_alg.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    p_alg.add_argument("--tol", type=_tolerance, default=1e-12, help="residual tolerance")
    p_alg.set_defaults(func=_cmd_algebra)

    p_mat = sub.add_parser("matrices", help="dump shift/clock/fourier as JSON")
    p_mat.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    p_mat.add_argument("--out", default=None, help="output path (default: stdout)")
    p_mat.set_defaults(func=_cmd_matrices)

    p_dec = sub.add_parser("decompose", help="report the energy decomposition")
    p_dec.add_argument("--config", required=True, help="JSON config path")
    p_dec.add_argument("--out", default=None, help="output path (default: stdout)")
    p_dec.set_defaults(func=_cmd_decompose)

    p_evo = sub.add_parser("evolve", help="run a trajectory and write CSV")
    p_evo.add_argument("--config", required=True, help="JSON config path")
    p_evo.add_argument("--out", default=None, help="CSV output path")
    p_evo.set_defaults(func=_cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except EigenConvergenceError as exc:
        print(f"nlevel: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"nlevel: error: {exc}", file=sys.stderr)
        return 1
