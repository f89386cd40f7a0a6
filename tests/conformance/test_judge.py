"""The one judge: ``cells`` says which runs, ``judge`` what they mean.

Every run of a verdict is an engine cell, so the verdict logic sees only
plain ``{"canon"}`` / ``{"error"}`` dicts.  These tests doctor such
results by hand and demand the verdict the in-process path reaches when
a device is really broken (``mutators=``) — whichever way the runs were
executed, one function decides.
"""

import pytest

from repro.conformance import executor
from repro.conformance.executor import (
    STYLED,
    cells,
    check_faulty,
    check_programs,
    differential,
    judge,
    run_conformance_cell,
)
from repro.conformance.grammar import generate
from repro.conformance.mutations import mutate_overtaking
from repro.errors import RetransmitExhausted
from repro.mpi.exceptions import CommError, RankFailed
from repro.parallel import run_cells
from repro.platforms import DEVICE_MATRIX, device_key

from tests.conformance.test_fuzzer import _overtaking_program

CLUSTER = ["atm-tcp", "atm-udp", "ethernet-tcp", "ethernet-udp"]


def _results(program, matrix=None):
    plan = cells(program, matrix)
    report = run_cells(list(plan.values()), cache=False)
    return dict(zip(plan, report.results))


def _verdict(result):
    return result.ok, result.mismatched, result.errors


# ------------------------------------------------------------------ cells
def test_cells_name_every_run_once():
    plain = cells(generate(11, profile="pt2pt"))
    assert list(plain) == [device_key(p, d) for p, d in DEVICE_MATRIX]

    styled = cells(generate(51, profile="algos"))
    assert list(styled)[-1] == STYLED
    twin = styled[STYLED]
    assert (twin["platform"], twin["device"]) == DEVICE_MATRIX[0]
    assert all("style" not in r for r in twin["program"]["rounds"])
    assert any("style" in r for r in styled["meiko-lowlatency"]["program"]["rounds"])

    faulty = cells(generate(31, profile="fault"))
    # the matrix already runs the four cluster cells fault-free: only
    # the lossy runs are added, nothing is simulated twice
    assert [k for k in faulty if ":" in k] == ["fault:" + k for k in CLUSTER]
    assert all(faulty["fault:" + k]["fault"] is True for k in CLUSTER)


def test_restricted_matrix_adds_the_missing_clean_runs():
    program = generate(31, profile="fault")
    plan = cells(program, matrix=[("meiko", "lowlatency"), ("atm", "tcp")])
    assert [k for k in plan if k.startswith("clean:")] == [
        "clean:" + k for k in CLUSTER if k != "atm-tcp"
    ]
    # and they stay out of the differential the matrix restricted
    result, fault_result = judge(program, _results(program, matrix=[
        ("meiko", "lowlatency"), ("atm", "tcp")]))
    assert sorted(result.canons) == ["atm-tcp", "meiko-lowlatency"]
    assert result.ok and fault_result.ok
    assert sorted(fault_result.canons) == CLUSTER


# ------------------------------------------------- differential verdict
@pytest.mark.parametrize("broken", ["atm-tcp", "meiko-lowlatency"])
def test_altered_matrix_canon_judged_like_a_mutated_device(broken):
    program = _overtaking_program()
    mutated = differential(program, mutators={broken: mutate_overtaking})
    assert not mutated.ok

    results = _results(program)
    assert judge(program, results)[0].ok
    results[broken] = {"canon": mutated.canons[broken]}
    doctored, fault_result = judge(program, results)
    assert _verdict(doctored) == _verdict(mutated)
    assert doctored.reference == mutated.reference
    assert fault_result is None  # no lossy runs, no fault verdict


def test_matrix_error_is_reported_under_its_cell():
    program = _overtaking_program()
    results = _results(program)
    results["meiko-lowlatency"] = {"error": "DeadlockError: rank 0 blocked"}
    result, _ = judge(program, results)
    # the first cell that *ran* becomes the reference
    assert result.reference == "meiko-mpich"
    assert _verdict(result) == (
        False, [], {"meiko-lowlatency": "DeadlockError: rank 0 blocked"})


def test_altered_styled_reference_is_a_mismatch():
    program = generate(51, profile="algos")
    results = _results(program)
    assert judge(program, results)[0].ok
    results[STYLED] = {"canon": results[STYLED]["canon"] + " "}
    assert _verdict(judge(program, results)[0]) == (False, [STYLED], {})
    results[STYLED] = {"error": "ConfigurationError: no such style"}
    assert _verdict(judge(program, results)[0]) == (
        False, [], {STYLED: "ConfigurationError: no such style"})


def test_styled_reference_ignored_once_the_matrix_disagrees():
    program = generate(51, profile="algos")
    results = _results(program)
    results["atm-udp"] = {"canon": "{}"}
    results[STYLED] = {"canon": "{}"}
    assert _verdict(judge(program, results)[0]) == (False, ["atm-udp"], {})


# ------------------------------------------------ fault-composed verdict
def test_fault_verdict_on_doctored_lossy_runs():
    program = generate(31, profile="fault")
    results = _results(program)
    result, fault_result = judge(program, results)
    assert result.ok and fault_result.ok
    assert fault_result.canons == {k: result.canons[k] for k in CLUSTER}
    assert fault_result.reference == CLUSTER[0]

    # a documented failure (CommError / RetransmitExhausted) is acceptable
    results["fault:atm-tcp"] = {
        "error": "RankFailed: peer 1 died", "documented": True}
    assert judge(program, results)[1].ok
    # anything else is an undocumented escape
    results["fault:atm-udp"] = {
        "error": "KeyError: 'cookie'", "documented": False}
    # a lossy run that converged to a different trace is a mismatch
    results["fault:ethernet-tcp"] = {"canon": "{}"}
    assert _verdict(judge(program, results)[1]) == (
        False, ["ethernet-tcp"], {"atm-udp": "KeyError: 'cookie'"})


def test_lossy_run_is_compared_with_its_own_cells_clean_run():
    program = generate(31, profile="fault")
    results = _results(program)
    results["ethernet-udp"] = {"canon": "{}"}  # the matrix canon moved ...
    result, fault_result = judge(program, results)
    assert result.mismatched == ["ethernet-udp"]
    # ... so the (unchanged) lossy run no longer equals it
    assert fault_result.mismatched == ["ethernet-udp"]


# ------------------------- classification crosses the process boundary
class _LooksDocumented(Exception):
    pass


_LooksDocumented.__name__ = "CommError"  # same name, not the same type


@pytest.mark.parametrize("exc, documented", [
    (CommError("link down", rank=0, peer=1), True),
    (RankFailed("peer died", rank=0, peer=1, failed=(1,)), True),  # subclass
    (RetransmitExhausted("gave up"), True),
    (ValueError("boom"), False),
    (_LooksDocumented("link down"), False),
])
def test_lossy_failure_is_classified_by_isinstance(monkeypatch, exc, documented):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(executor, "run_program", raising)
    program = generate(31, profile="fault")
    plan = cells(program)
    res = run_conformance_cell(plan["fault:atm-tcp"])
    assert res == {"error": f"{type(exc).__name__}: {exc}",
                   "documented": documented}
    # a fault-free run carries no classification: any failure is a finding
    assert run_conformance_cell(plan["atm-tcp"]) == {
        "error": f"{type(exc).__name__}: {exc}"}


def test_documented_failure_survives_a_worker_process(monkeypatch):
    """End to end through forked workers: the lossy runs die with a
    CommError subclass, the verdict still calls it documented."""
    real = executor.run_program

    def flaky(program, platform, device, fault=False, **kwargs):
        if fault:
            raise RankFailed("peer died", rank=0, peer=1, failed=(1,))
        return real(program, platform, device, fault=fault, **kwargs)

    monkeypatch.setattr(executor, "run_program", flaky)
    program = generate(31, profile="fault")
    [(result, fault_result)], report = check_programs([program], workers=2)
    assert report.workers == 2 and report.executed == 12
    assert result.ok and fault_result.ok and not fault_result.errors


# ------------------------------------------------- check_faulty(clean=)
def _count_runs(monkeypatch):
    runs = []
    real = executor.run_program

    def counting(program, platform, device, fault=False, **kwargs):
        runs.append((device_key(platform, device), fault))
        return real(program, platform, device, fault=fault, **kwargs)

    monkeypatch.setattr(executor, "run_program", counting)
    return runs


def test_check_faulty_reuses_the_clean_canons_it_is_given(monkeypatch):
    program = generate(31, profile="fault")
    result = differential(program)
    alone = check_faulty(program)

    runs = _count_runs(monkeypatch)
    reused = check_faulty(program, clean=result.canons)
    assert runs == [(k, True) for k in CLUSTER]  # lossy runs only
    assert (reused.ok, reused.canons, reused.reference) == (
        alone.ok, alone.canons, alone.reference)


def test_check_faulty_simulates_clean_runs_a_restricted_matrix_lacks(monkeypatch):
    program = generate(31, profile="fault")
    restricted = differential(program, matrix=[("meiko", "lowlatency"),
                                               ("atm", "tcp")])
    runs = _count_runs(monkeypatch)
    result = check_faulty(program, clean=restricted.canons)
    assert result.ok, result.summary()
    assert sorted(result.canons) == CLUSTER
    assert [k for k, fault in runs if not fault] == [
        k for k in CLUSTER if k != "atm-tcp"]
    assert [k for k, fault in runs if fault] == CLUSTER

    del runs[:]
    assert check_faulty(program).ok  # no differential at all: all eight
    assert len(runs) == 8
