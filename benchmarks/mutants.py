"""Apply each listed fault to a copy of the tree and report whether the checks catch it.

Usage: python benchmarks/mutants.py

Each mutant is one (file, old text, new text, reason) edit; the old text
must occur exactly once in the file.  For each, the tree is copied to a
temporary directory and the edit applied there.  The tier-1 tests then run
on the copy with ``-x -W error``; only when they pass does
``benchmarks/sparse_sampling.py`` check the copy's ``src`` against the
stepwise reference.  A mutant that fails either is killed; one that passes
both survived.  A survivor must be marked: as a known gap, naming the
ROADMAP item that owns it, or as equivalent, with the reason it cannot
change a result.  The script exits 1 when an unmarked mutant survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    mark: Optional[str] = None


PROPAGATOR = "src/nlevel/propagator.py"
HAMILTONIAN = "src/nlevel/hamiltonian.py"
MUTANTS = [
    Mutant(PROPAGATOR,
           "3 * jump_q * compositions < count * (every - 1)",
           "3 * jump_q * compositions <= count * (every - 1)",
           "_route takes jumps where composing their table saves no matrices"),
    Mutant(PROPAGATOR,
           "while term > _EPS and",
           "while term > 1e3 * _EPS and",
           "_series_order truncates the Fourier table and the Taylor steps at 1e3 eps"),
    Mutant(HAMILTONIAN,
           "mean = math.fsum(spec.energies) / spec.n",
           "mean = sum(spec.energies) / spec.n",
           "_drift_levels takes Delta_0 from a rounded sum"),
    Mutant(PROPAGATOR,
           "angle = math.atan2(norm, a.real)",
           "angle = math.atan2(norm, a.real) * (1 + 4e-16)",
           "the two-level frame's rotation angle is 2 ulp off",
           "known gap: ROADMAP item 9: 2.5e-15 off the extended-precision frame on"
           " frame_rwa2_5k_every100, within the frame's own rounding"),
    Mutant(PROPAGATOR,
           "angle = math.atan2(norm, a.real)",
           "angle = math.atan2(norm, a.real) * (1 + 1e-13)",
           "the two-level frame's rotation angle is 1e-13 off"),
    Mutant(PROPAGATOR,
           "sampled = chain[-(start + unit) % every // unit :: every // unit]",
           "sampled = chain[-(start + unit) % every // unit + 1 :: every // unit]",
           "_lab_steps samples the state one past each sample instant"),
    Mutant(PROPAGATOR,
           "row = start // every + 1",
           "row = start // every",
           "_lab_steps writes each chunk's samples one row early"),
    Mutant(PROPAGATOR,
           "populations[1 + start : 1 + start + len(states)]",
           "populations[start : start + len(states)]",
           "_frame_steps writes each chunk's samples one row early"),
    Mutant(PROPAGATOR,
           "if h or whole % every:",
           "if whole % every:",
           "evolve leaves the last row unwritten when a last step of h follows a"
           " sampled full step"),
    Mutant(PROPAGATOR,
           "mid = np.array([t_start + whole * dt + 0.5 * h])",
           "mid = np.array([t_start + whole * dt])",
           "_lab_steps centres the shortened last step at its start"),
    Mutant(PROPAGATOR,
           "psi, None, last)",
           "psi, table, last)",
           "_lab_steps sums the shortened last step from the phase table"),
    Mutant(PROPAGATOR,
           "return phi * [1.0, end] if n == 2 else phi",
           "return phi",
           "_frame_steps leaves the final state in the rotating frame (drops R(w t_end))"),
    # NaN spreads through every product it enters, so it shows where the
    # padding's values reach; being quiet, it raises no floating-point
    # warning, so it does not stand for every value np.empty may leave there
    Mutant(PROPAGATOR,
           "grouped[-1, rest:] = 0.0",
           "grouped[-1, rest:] = np.nan",
           "_chain fills the padding of its last block with NaN in place of zeros",
           "equivalent: the running products of each block stay within it, the states"
           " carried to the block starts read only the other blocks' last products,"
           " and the padded positions are cut off by [:count]; a NaN there reaches"
           " no kept value and raises no warning"),
    # a large finite value reaches no kept value either, but its products
    # overflow, which -W error turns into a failure: the zero fill is needed
    Mutant(PROPAGATOR,
           "grouped[-1, rest:] = 0.0",
           "grouped[-1, rest:] = 1e300",
           "_chain fills the padding of its last block with 1e300 in place of zeros"),
    Mutant(HAMILTONIAN,
           "a = np.ascontiguousarray(drive_coefficient(spec).real)",
           "a = np.ascontiguousarray(drive_coefficient(spec))",
           "_parts hands out a complex A: one-phase tables diagonalize in complex arithmetic"),
    Mutant(HAMILTONIAN,
           "h += p.conj() * at",
           "h += p * at",
           "_at_phase adds z A^T, not z* A^T"),
    Mutant(PROPAGATOR,
           "x = h * (max(map(abs, levels)) + spec.g)",
           "x = h * max(map(abs, levels))",
           "_taylor_order bounds ||h H|| without the drive's g"),
    Mutant(PROPAGATOR,
           "if x >= 1.0 or count >= budget:",
           "if count >= budget:",
           "_taylor_order takes Taylor steps at x >= 1"),
    Mutant(PROPAGATOR,
           "mid, h, psi, None",
           "mid, dt, psi, None",
           "_lab_steps takes the shortened last step, Taylor or eigh, at full length"),
    Mutant(PROPAGATOR,
           "        psi = psi * back\n",
           "        psi = psi\n",
           "_lab_steps leaves the final state of a table pass in the drive's frame"),
    Mutant(PROPAGATOR,
           "half = cmath.phase(_phase_factors(spec, 0.5 * dt))",
           "half = 0.0",
           "_phase_table drops R(-w dt / 2) from the frame's coefficients"),
    Mutant(PROPAGATOR,
           "// n) <= q // 2",
           "// n) < q // 2",
           "_transform keeps Q - 2 orders of each entry, not Q"),
    Mutant(PROPAGATOR,
           "end = origin + 2 * whole * cmath.phase(_phase_factors(spec, 0.5 * dt))",
           "end = cmath.phase(_phase_factors(spec, t_start + whole * dt))",
           "_lab_steps rotates a table pass back by e^{i w t} at the step edge, not the"
           " frame's own phase"),
    Mutant(PROPAGATOR,
           "math.ceil((t_end - t_start) / dt * (1.0 - 1e-12))",
           "math.ceil((t_end - t_start) / dt)",
           "_grid adds a step where span / dt rounds just above an integer"),
    Mutant(PROPAGATOR,
           "return whole + (h != 0.0), whole, h",
           "return count, whole, h",
           "_grid takes the back-off count as n_steps: a zero-length last step where"
           " span / dt rounds just above an integer whose edge lands on t_end"),
    Mutant(PROPAGATOR,
           "last = _taylor_order(spec, levels, h, 1, 1)",
           "last = _taylor_order(spec, levels, dt, 1, 1)",
           "_route takes the last step's Taylor order at dt, not h: eigh where Taylor"
           " costs less"),
    Mutant(PROPAGATOR,
           "step_q <= whole",
           "step_q < whole",
           "_route builds the phase table only for more full steps than its Q"),
    Mutant(PROPAGATOR,
           "_phase_table(spec, parts, dt, step_q) if step_q else None",
           "_phase_table(spec, parts, dt, step_q) if done else None",
           "_lab_steps builds the phase table the route names only for jumps: the"
           " fresh steps take an eigh each"),
]


def _passes(command, cwd):
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    return subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def run(mutant):
    """'killed by tier-1', 'killed by sparse_sampling.py' or 'survived'."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks"))
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: {mutant.old!r} occurs "
                             f"{text.count(mutant.old)} times, not once")
        path.write_text(text.replace(mutant.old, mutant.new))
        if not _passes([sys.executable, "-m", "pytest", "-q", "-x", "-W", "error",
                        "-p", "no:cacheprovider", "--continue-on-collection-errors"], tree):
            return "killed by tier-1"
        if not _passes([sys.executable, "-W", "error", "benchmarks/sparse_sampling.py",
                        "src"], tree):
            return "killed by sparse_sampling.py"
        return "survived"


def main():
    start, unmarked = time.perf_counter(), 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        outcome = run(mutant)
        note = f" [{mutant.mark}]" if outcome == "survived" and mutant.mark else ""
        unmarked += outcome == "survived" and not mutant.mark
        print(f"{outcome:29s} {time.perf_counter() - t0:5.0f} s  {mutant.reason}{note}",
              flush=True)
    print(f"{len(MUTANTS)} mutants, {unmarked} unmarked survivors, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if unmarked else 0


if __name__ == "__main__":
    sys.exit(main())
