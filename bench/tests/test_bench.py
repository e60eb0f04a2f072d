"""Tests of the benchmark's own logic: output checks and span arithmetic.

    python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from checks import check_call, parse_summary  # noqa: E402
from run import _evaluate  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, cli_seed  # noqa: E402

with open(os.path.join(BENCH, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def _call(tmp_path, label, stdout, exit_code=0, error=None, seed=0):
    (tmp_path / "manifest.txt").write_text("[run]\n")
    return {"label": label, "seed": seed, "out": str(tmp_path),
            "exit_code": exit_code, "error": error, "stdout": stdout}


@pytest.mark.parametrize("workload,label", [
    (w, label) for w in sorted(REFERENCE) for label in sorted(REFERENCE[w])])
def test_reference_outputs_pass_their_checks(tmp_path, workload, label):
    text = REFERENCE[workload][label]
    assert check_call(_call(tmp_path, label, text), parse_summary(text)) == []


def test_perturbed_float_fails_reference_comparison(tmp_path):
    text = REFERENCE["evolve"]["rte-evolve"]
    tokens = parse_summary(text)
    got = dict(tokens)
    perturbed = text.replace(
        "pre_recurrence_min=" + got["pre_recurrence_min"],
        "pre_recurrence_min=%r" % (float(got["pre_recurrence_min"]) * 1.001))
    assert perturbed != text
    problems = check_call(_call(tmp_path, "rte-evolve", perturbed), tokens)
    assert len(problems) == 1 and "pre_recurrence_min" in problems[0]


def test_changed_integer_fails_reference_comparison(tmp_path):
    text = REFERENCE["lab"]["disjoint"]
    tokens = parse_summary(text)
    n_star = dict(tokens)["n_star"]
    perturbed = text.replace("n_star=" + n_star, "n_star=%d" % (int(n_star) + 1))
    problems = check_call(_call(tmp_path, "disjoint", perturbed), tokens)
    assert problems and "n_star" in problems[0]


@pytest.mark.parametrize("label,old,new", [
    ("rte-spectrum", "kernel_dim=1", "kernel_dim=2"),
    ("rte-evolve", "reached=yes", "reached=no"),
    ("kms-check", "max_err=0.", "max_err=1"),
])
def test_broken_invariant_fails_without_reference(tmp_path, label, old, new):
    workload = {"rte-spectrum": "spectrum", "rte-evolve": "evolve"}.get(
        label, "lab")
    text = REFERENCE[workload][label].replace(old, new, 1)
    assert check_call(_call(tmp_path, label, text)) != []


# Default rte-spectrum at --seed 1250948781: the lambda=0.08 gap is the
# free reservoir level s[5] + s[18] = 1.91e-4 of that grid, not the kernel
# splitting.
OFF_GRID_SPECTRUM = (
    "lambda=0 kernel_dim=2 gap=6.3527471044072525e-22 "
    "lambda=0.02 kernel_dim=1 gap=1.813283210357108e-05 "
    "lambda=0.040000000000000001 kernel_dim=1 gap=7.2465087070296765e-05 "
    "lambda=0.080000000000000002 kernel_dim=1 gap=0.00019136575792658408 "
    "theta=1.8559964926190374e-07 fit_exponent=1.6998282633427717 "
    "recurrence_time=43.807771146146777 "
    "fgr_window=[6.8655870210579026, 9.0883124775847097]")


def test_kernel_gap_taken_from_a_reservoir_level_fails(tmp_path):
    problems = check_call(_call(tmp_path, "rte-spectrum", OFF_GRID_SPECTRUM,
                                seed=1250948781))
    assert problems == ["fit_exponent=1.6998282633427717 outside [1.8, 2.2]"]


def test_workload_seed_reaches_the_cli_seed():
    (spectrum,) = WORKLOADS["spectrum"]
    assert [cli_seed(spectrum, s) for s in (0, 7, 1250948781)] == [0, 0, 0]
    for inv in WORKLOADS["evolve"] + WORKLOADS["lab"]:
        assert cli_seed(inv, 1250948781) == 1250948781


def test_reference_compared_only_at_the_default_cli_seed(tmp_path):
    reference = REFERENCE["evolve"]
    text = reference["rte-evolve"].replace("crossing_time=11",
                                           "crossing_time=12")
    record = {"passes": [[_call(tmp_path, "rte-evolve", text, seed=0)]]}
    attempted, failed, problems = _evaluate([record], reference)
    assert (attempted, failed) == (1, 1) and "crossing_time" in problems[0]
    record["passes"][0][0]["seed"] = 5
    assert _evaluate([record], reference) == (1, 0, [])


def test_nonzero_exit_and_exception_fail(tmp_path):
    text = REFERENCE["lab"]["formfactor"]
    assert check_call(_call(tmp_path, "formfactor", text)) == []
    assert check_call(_call(tmp_path, "formfactor", text, exit_code=3)) == [
        "exit code 3"]
    raised = check_call(_call(tmp_path, "formfactor", text, exit_code=None,
                              error="Traceback ...\nMemoryError\n"))
    assert raised == ["raised: MemoryError"]


def test_missing_manifest_fails(tmp_path):
    call = _call(tmp_path, "formfactor", REFERENCE["lab"]["formfactor"])
    os.remove(tmp_path / "manifest.txt")
    assert check_call(call) != []


# cli [0, 10] holds evolve [1, 7] and a write [8, 9]; evolve holds two
# reduce spans [2, 3] and [4, 6], the second holding a oneparticle span.
SPANS = [
    ["cli", 0.0, 10.0, None, "0/a", None],
    ["liouville.evolve", 1.0, 7.0, 0, "0/a",
     {"steps": 4, "states_bytes": 3000000, "dim": 8, "nnz": 20}],
    ["liouville.reduce", 2.0, 3.0, 1, "0/a", None],
    ["liouville.reduce", 4.0, 6.0, 1, "0/a", None],
    ["oneparticle", 4.5, 5.0, 3, "0/a", None],
    ["textio.write", 8.0, 9.0, 0, "0/a", {"bytes": 100}],
]


def test_self_time_subtracts_covered_child_intervals():
    assert self_times(SPANS) == pytest.approx([3.0, 3.0, 1.0, 1.5, 0.5, 1.0])


def test_layer_metrics_are_per_pass():
    m = layer_metrics(SPANS + [[s[0], s[1] + 10, s[2] + 10,
                                None if s[3] is None else s[3] + 6, "1/a",
                                s[5]] for s in SPANS], passes=2)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["liouville.evolve.s"] == pytest.approx(3.0)
    assert m["liouville.evolve.steps"] == 4
    assert m["liouville.evolve.s_per_step"] == pytest.approx(0.75)
    assert m["liouville.evolve.states_mb"] == pytest.approx(3.0)
    assert m["liouville.reduce.s"] == pytest.approx(2.5)
    assert m["oneparticle.s"] == pytest.approx(0.5)
    assert m["oneparticle.calls"] == 1
    assert m["textio.write_bytes"] == 100
    assert (m["liouville.dim"], m["liouville.nnz"]) == (8, 20)
    assert m["liouville.scan.calls"] == 0
    assert m["liouville.scan.s_per_call"] == 0.0
