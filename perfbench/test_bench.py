"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

gram-k3 assembles Gram matrices from public pieces instead of calling
repn.gram, which needs the dense cellular basis that does not finish at
k = 3.  The first test pins that bypass to the program's formula at every
label where both run.  The rest run each workload at its tiny size, in
process and through run.py, check the tracer's wrapping and self-time
arithmetic, and check that a changed recorded answer is reported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from zrelalg import ALGEBRAS, cellular_basis, gram

import rep
import run
import spans


def test_gram_assembly_matches_repn_gram():
    compared = 0
    for algebra in ALGEBRAS:
        for k in (1, 2):
            labels = set(cellular_basis(algebra, k).labels())
            seen = set()
            for s1, s2, halves, layer, mur in rep.gram_layers(algebra, k):
                for glabel in mur.labels():
                    label = rep.tabular.CellLabel(s1, s2, glabel)
                    seen.add(label)
                    assert (rep.assemble_gram(halves, layer, mur, glabel)
                            == gram(label, algebra, k)), (algebra, k, label)
                    compared += 1
            assert seen == labels, (algebra, k)
    assert compared == 35


@pytest.mark.parametrize("workload", sorted(rep.WORKLOADS))
def test_tiny_workload_is_correct(workload):
    record = rep.run_workload(workload, seed=7, size="tiny")
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > 0
    assert any(unit.startswith("setup/") and seconds > 0
               for unit, seconds in record["units"].items())


@pytest.mark.parametrize("workload", sorted(rep.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(workload, trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["repn.gram", 0.0, 10.0, -1],
                    ["tabular.phi", 1.0, 3.0, 0],
                    ["murphy.struct_const", 4.0, 8.0, 0],
                    ["murphy.coords", 5.0, 6.0, 2]]
    self_s = tracer.self_times()
    assert self_s["repn.gram"] == 4.0
    assert self_s["murphy.struct_const"] == 3.0
    assert self_s["murphy.coords"] == 1.0


def test_tracer_wraps_and_restores():
    from zrelalg import dalg, zpart
    original = zpart.compose
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dalg.compose is zpart.compose is not original
        a = dalg.AlgebraElement.of("z2rel", dalg.basis("z2rel", 1)[0])
        tracer.active = True
        a * a
        tracer.active = False
    finally:
        tracer.uninstall()
    assert dalg.compose is zpart.compose is original
    assert tracer.counts["dalg.mul.calls"] == 1
    assert tracer.counts["zpart.compose.calls"] == 1
    assert [s[0] for s in tracer.spans] == ["dalg.mul", "zpart.compose"]
    assert tracer.spans[1][3] == 0


def test_checks_catch_a_changed_answer(monkeypatch):
    expected = rep.load_expected()
    cells = expected["cells"][rep.key_of("z2rel", 1)]["symbolic"]
    label = sorted(cells)[0]
    cells[label]["det"] = "x + 12345"
    gram_answers = expected["gram"][rep.key_of("signed", 2)]
    gram_answers[sorted(gram_answers)[0]] = "x + 12345"
    expected["products"][rep.key_of("signed", 2)] = "00000000"
    monkeypatch.setattr(rep, "load_expected", lambda: expected)
    for workload in sorted(rep.WORKLOADS):
        record = rep.run_workload(workload, seed=7, size="tiny")
        assert record["failed"] >= 1, workload
