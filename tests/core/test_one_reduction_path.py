"""One way into the reducer: the product steps the columnar core, and only it.

``TraceReducer.reduce_segments`` / ``reduce_streams`` are the scalar
reference.  These guards keep the fork from growing back: no product module
may call the reference, and the product's bytes are the reference's on the
paper's workloads.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reducer import TraceReducer
from repro.experiments.config import SCALES, build_workload
from repro.trace.io import serialize_reduced_trace

from tests.support import reference_reduce

SRC = Path(repro.__file__).parent
REFERENCE_CALLS = {"reduce_segments", "reduce_streams"}
#: Where a call to the reference may appear: file -> top-level name (None = anywhere in it).
ALLOWED = {
    "core/reducer.py": None,  # reduce_streams calls reduce_segments
    "fuzz/oracles.py": None,  # the fuzz baseline
    "cli.py": "_matches_serial_reducer",  # --verify
}


def _reference_call_sites():
    """``(file, enclosing top-level name, line)`` of every call to the reference in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in tree.body:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in REFERENCE_CALLS
                ):
                    scope_name = getattr(scope, "name", None)
                    yield path.relative_to(SRC).as_posix(), scope_name, node.lineno


def test_only_the_reference_oracles_call_the_reference():
    sites = list(_reference_call_sites())
    assert {relative for relative, _, _ in sites} == set(ALLOWED), sites
    offenders = [
        f"{relative}:{line}"
        for relative, scope, line in sites
        if ALLOWED[relative] not in (None, scope)
    ]
    assert not offenders, f"product code calls the scalar reference: {offenders}"


@pytest.fixture(
    scope="module",
    params=["sweep3d_8p", "sweep3d_32p", "late_sender", "dyn_load_balance", "1to1r_1024"],
)
def smoke_segmented(request):
    return build_workload(request.param, SCALES["smoke"]).run_segmented()


@pytest.mark.parametrize("method", METRIC_NAMES)
def test_product_bytes_are_the_reference_bytes(smoke_segmented, method):
    product = TraceReducer(create_metric(method)).reduce(smoke_segmented)
    reference = reference_reduce(create_metric(method), smoke_segmented)
    assert serialize_reduced_trace(product) == serialize_reduced_trace(reference)
