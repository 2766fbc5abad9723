"""Tests of the benchmark itself: tracer arithmetic, seeded inputs, checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def fake_package():
    """fakepkg.inner_mod.inner and fakepkg.outer_mod.outer, where outer_mod
    imports `inner` by name and the clock only moves when told to."""
    now = [0.0]
    inner_mod = types.ModuleType("fakepkg.inner_mod")
    outer_mod = types.ModuleType("fakepkg.outer_mod")

    def inner(x):
        now[0] += 2.0
        return x + 1

    def outer(x):
        now[0] += 1.0
        y = outer_mod.inner(x) + outer_mod.inner(x)
        now[0] += 3.0
        return y

    inner_mod.inner = inner
    outer_mod.inner = inner
    outer_mod.outer = outer
    modules = {"fakepkg": types.ModuleType("fakepkg"),
               "fakepkg.inner_mod": inner_mod, "fakepkg.outer_mod": outer_mod}
    sys.modules.update(modules)
    try:
        yield now, inner_mod, outer_mod
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_self_time_of_a_nested_call(fake_package):
    now, inner_mod, outer_mod = fake_package
    original = inner_mod.inner
    tr = tracing.Tracer("fakepkg", (("inner_mod", "inner", None), ("outer_mod", "outer", None)),
                        clock=lambda: now[0])
    with tr:
        assert outer_mod.inner is not original  # rebound where it was imported by name
        tr.op_id = 7
        assert outer_mod.outer(1) == 4
    assert inner_mod.inner is original and outer_mod.inner is original

    summary = tr.summary()
    assert summary["outer_mod.outer"] == {"calls": 1, "self_s": 4.0}  # 8 s minus 2 x 2 s
    assert summary["inner_mod.inner"] == {"calls": 2, "self_s": 4.0}
    outer_index = next(i for i, s in enumerate(tr.spans) if s[0] == "outer_mod.outer")
    assert [s[3] for s in tr.spans if s[0] == "inner_mod.inner"] == [outer_index] * 2
    assert {s[4] for s in tr.spans} == {7}


def _documents(workload, seed, count):
    stream = workloads.rounds(workload, seed)
    return [(op.cls, op.argv, sorted(op.files.items()))
            for _ in range(count) for op in next(stream)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload):
    first = _documents(workload, 3, 3)
    assert first == _documents(workload, 3, 3)
    assert first != _documents(workload, 4, 3)
    docs = [(argv, tuple(files)) for _, argv, files in first]
    assert len(set(docs)) == len(docs)  # every op of a run gets its own inputs


@pytest.fixture
def scan_answer(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    import jetorders.cli as cli
    import run

    op = next(workloads.rounds("scan", 1))[0]
    code, out, problem, _ = run.invoke(cli, tmp_path, op)
    assert code == 0 and problem is None
    reference = json.loads((HERE / "reference.json").read_text())["scan"]
    return op, out, reference


def test_check_accepts_the_right_answer(scan_answer):
    op, out, reference = scan_answer
    assert workloads.check("scan", op, out, reference) is None


def test_check_rejects_a_wrong_expected_value(scan_answer):
    op, out, reference = scan_answer
    r, k, l = op.params
    wrong_formula = dataclasses.replace(op, params=(r, k + 1, l))
    assert "formula" in workloads.check("scan", wrong_formula, out, reference)

    key = workloads.reference_keys("scan", op)[0]
    wrong_digest = dict(reference, **{key: "0" * 16})
    assert "reference" in workloads.check("scan", op, out, wrong_digest)


def test_scaling_by_adjacent_probes():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled([1.0, 2.0], [ref] * 3) == [1.0, 2.0]
    # op 1 ran between probes of 2x ref: it took twice as long as on the reference
    scaled = hostspeed.scaled([1.0, 4.0, 3.0], [ref, 2 * ref, 2 * ref, 9 * ref])
    assert scaled == pytest.approx([1.0 / 1.5, 2.0, 1.5])
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0], [ref])
