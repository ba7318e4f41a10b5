"""The benchmark's own test: tracing changes no cell output.

    python3 -m pytest perfbench/test_trace_identity.py

Runs cell 0 of every workload untraced and then traced, on the default seed,
and requires bit-identical outputs, the recorded reference values, and a
restored package once the tracer is gone. Takes about half a minute.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fracinv.fem  # noqa: E402
import fracinv.inverse  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from worker import load_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_checked  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_cell_is_bit_identical(name):
    workload = WORKLOADS[name]
    reference = load_reference(name, DEFAULT_SEED)
    inputs = workload.prepare(DEFAULT_SEED)
    plain = run_checked(workload, inputs, 0, reference)
    tracer = Tracer()
    with tracer.active(0):
        traced = run_checked(workload, inputs, 0, reference)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["out"]["digest"] == traced["out"]["digest"]
    assert {span[0] for span in tracer.spans} <= set(SPAN_NAMES)
    assert tracer.spans, "the tracer saw no call"


def test_tracer_restores_the_package():
    originals = (fracinv.inverse.l1_evolve, fracinv.fem.l1_evolve,
                 fracinv.fem.FemOperator.__init__, fracinv.fem.FemOperator.factorized)
    with Tracer().active(0):
        assert fracinv.inverse.l1_evolve is not originals[0]
        assert fracinv.fem.l1_evolve is not originals[1]
    assert (fracinv.inverse.l1_evolve, fracinv.fem.l1_evolve,
            fracinv.fem.FemOperator.__init__, fracinv.fem.FemOperator.factorized) == originals
