"""Checks on the benchmark's own reference and inputs.

    python3 -m pytest perfbench/test_reference.py
"""

import dataclasses
import math

import numpy as np
import pytest

import reference
import workloads


def _rabi(steps_per_period, periods=4):
    w = workloads.make("rabi2_floquet", 0)
    return dataclasses.replace(
        w,
        g=0.3,  # a full Rabi cycle within a few drive periods
        dt=2.0 * math.pi / w.omega / steps_per_period,
        steps=steps_per_period * periods,
        sample_every=steps_per_period // 4,
    )


def test_midpoint_reference_matches_closed_form():
    w = _rabi(400)
    err = np.max(np.abs(reference.midpoint_populations(w, 1) - reference.rabi_populations(w)))
    assert err < 1e-4


def test_midpoint_reference_is_second_order_against_closed_form():
    w = _rabi(40)
    exact = reference.rabi_populations(w)
    errs = [np.max(np.abs(reference.midpoint_populations(w, k) - exact)) for k in (1, 2, 4)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 < coarse / fine < 4.4


def test_midpoint_reference_is_second_order_at_n3():
    w = dataclasses.replace(workloads.make("driven3_dense", 0), dt=0.05, steps=200, sample_every=20)
    p1, p2, p4 = (reference.midpoint_populations(w, k) for k in (1, 2, 4))
    ratio = np.max(np.abs(p1 - p2)) / np.max(np.abs(p2 - p4))
    assert 3.6 < ratio < 4.4


def test_closed_form_needs_resonance():
    w = workloads.make("rabi2_floquet", 0)
    with pytest.raises(ValueError):
        reference.rabi_populations(dataclasses.replace(w, omega=1.1 * w.omega))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_repeat_per_seed_and_keep_their_grid(name):
    a, b, c = workloads.make(name, 5), workloads.make(name, 5), workloads.make(name, 6)
    assert a == b and a.config() == b.config()
    assert a.config() != c.config()
    periods = 2.0 * math.pi / (a.omega * a.dt)
    commensurate = abs(periods - round(periods)) < 1e-9
    assert commensurate == (name == "rabi2_floquet")
    assert reference.populations(a).shape == (len(a.sample_steps()), a.n)
