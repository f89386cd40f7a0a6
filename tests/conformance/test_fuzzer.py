"""The differential conformance fuzzer's own test suite.

Covers the pipeline end to end: generator determinism and validity,
trace stability, full-matrix differential agreement, fault-composed
convergence, mutation catching (a deliberately broken device must be
found and shrunk to a tiny repro), and the ``repro fuzz`` CLI.
"""

import io
import json

import pytest

from repro.conformance.corpus import CI_CORPUS, run_corpus
from repro.conformance.executor import (
    FAULT_PLATFORMS,
    DifferentialResult,
    canonical_trace,
    check_faulty,
    differential,
    run_program,
)
from repro.conformance.grammar import (
    PROFILES,
    Program,
    generate,
    payload_array,
    payload_bytes,
    validate,
)
from repro.conformance.mutations import mutate_overtaking
from repro.conformance.shrink import repro_script, shrink, write_artifacts
from repro.platforms import DEVICE_MATRIX
from tests.conftest import ALL_DEVICES


# ------------------------------------------------------------------ grammar
@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_programs_are_valid(seed):
    program = generate(seed)
    assert validate(program) == []
    assert program.op_count() > 0


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_generator_is_deterministic(profile):
    a = generate(42, profile=profile)
    b = generate(42, profile=profile)
    assert a.to_dict() == b.to_dict()


def test_different_seeds_differ():
    assert generate(1).to_dict() != generate(2).to_dict()


def test_program_json_roundtrip():
    program = generate(7)
    blob = json.dumps(program.to_dict(), sort_keys=True)
    back = Program.from_dict(json.loads(blob))
    assert back.to_dict() == program.to_dict()
    assert validate(back) == []


def test_profiles_shape_the_op_mix():
    pt2pt = generate(11, profile="pt2pt")
    collective = generate(21, profile="collective")
    assert all(r.kind != "collective" for r in pt2pt.rounds)
    assert any(r.kind == "collective" for r in collective.rounds)
    fault = generate(31, profile="fault")
    assert fault.fault is not None


# ----------------------------------------------------------------- executor
def test_trace_is_stable_per_device(all_devices):
    """Same seed, same device, twice -> byte-identical canonical trace."""
    platform, device = all_devices
    program = generate(3)
    first = canonical_trace(run_program(program, platform, device))
    second = canonical_trace(run_program(program, platform, device))
    assert first == second


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_differential_agreement_across_matrix(seed):
    result = differential(generate(seed))
    assert result.ok, result.summary()
    assert len(result.canons) == len(ALL_DEVICES)
    assert len(set(result.canons.values())) == 1


def test_trace_records_sources_tags_and_payloads():
    program = generate(1)
    trace = run_program(program, "meiko", "lowlatency")
    events = [e for rank in trace["ranks"] for e in rank]
    assert events
    recvs = [e for e in events if e["e"] == "recv"]
    for e in recvs:
        assert e["src"] >= 0 and e["tag"] >= 0 and len(e["d"]) == 16


def test_memoised_payload_streams_stay_private_and_bounded():
    """Payload streams are cached (immutable bytes, bounded); an array
    payload is still a fresh, writable copy for every caller."""
    from repro.conformance.grammar import _stream

    assert payload_bytes(7, 3, 1, 181) is payload_bytes(7, 3, 1, 181)
    assert payload_bytes(7, 3, 1, 181) != payload_bytes(7, 3, 2, 181)
    a = payload_array(7, 3, 1, "int", 45)
    b = payload_array(7, 3, 1, "int", 45)
    assert a is not b and (a == b).all()
    a[0] += 1  # a receive buffer may be written; the cache must not see it
    assert (payload_array(7, 3, 1, "int", 45) == b).all()
    assert _stream.cache_info().maxsize == 256


# ------------------------------------------------------------ fault-composed
def test_fault_composed_converges():
    program = generate(31, profile="fault")
    assert program.fault is not None
    result = check_faulty(program)
    assert result.ok, result.summary()
    assert set(result.canons) == {
        f"{p}-{d}" for p, d in ALL_DEVICES if p in FAULT_PLATFORMS
    }


def test_fault_composed_rejects_meiko():
    from repro.errors import ConfigurationError

    program = generate(31, profile="fault")
    with pytest.raises(ConfigurationError):
        run_program(program, "meiko", "lowlatency", fault=True)


# ----------------------------------------------------- mutation + shrinking
def _overtaking_program():
    """Two same-(src, dst, tag) messages drained in order — the smallest
    workload on which the overtaking mutant is observable."""
    return Program.from_dict({
        "seed": 0,
        "nprocs": 2,
        "rounds": [{
            "kind": "exchange",
            "transfers": [{
                "tid": 1, "src": 1, "dst": 0, "tag": 3, "dtype": "byte",
                "nelems": 4, "reps": 2, "send_kind": "isend",
                "persistent_recv": False, "any_source": False,
                "any_tag": False, "alloc_recv": False,
            }],
            "strategies": {"0": "waitall", "1": "waitall"},
        }],
        "fault": None,
    })


def test_mutated_device_is_caught():
    """A device that violates non-overtaking must fail the differential."""
    program = _overtaking_program()
    assert validate(program) == []
    clean = differential(program)
    assert clean.ok, clean.summary()
    mutated = differential(
        program, mutators={"atm-tcp": mutate_overtaking}
    )
    assert not mutated.ok
    assert "atm-tcp" in mutated.mismatched
    # mutating the *reference* device flags everyone else instead
    ref_mutated = differential(
        program, mutators={"meiko-lowlatency": mutate_overtaking}
    )
    assert not ref_mutated.ok
    assert len(ref_mutated.mismatched) == len(DEVICE_MATRIX) - 1


def test_mutation_found_by_search_and_shrunk(tmp_path):
    """End-to-end acceptance: fuzz seeds until the broken device is
    caught, then shrink the failure to a <=10-op repro."""
    mutators = {"meiko-lowlatency": mutate_overtaking}

    def check(candidate):
        return not differential(candidate, mutators=mutators).ok

    failing = None
    for seed in range(1, 30):
        program = generate(seed, profile="pt2pt")
        if check(program):
            failing = program
            break
    assert failing is not None, "no seed exposed the overtaking mutant"
    small = shrink(failing, check, max_evals=150)
    assert check(small)
    assert small.op_count() <= 10
    json_path, py_path = write_artifacts(small, str(tmp_path), label="mutant")
    saved = Program.from_dict(json.loads(open(json_path).read()))
    assert check(saved)
    assert "differential" in open(py_path).read()


def test_shrink_preserves_validity():
    program = generate(4)

    def check(candidate):  # pretend everything fails: maximal shrinking
        return True

    small = shrink(program, check, max_evals=200)
    assert validate(small) == []
    assert small.op_count() <= program.op_count()


def test_repro_script_replays(tmp_path):
    program = generate(2)
    script = repro_script(program)
    assert "differential" in script and f"seed {program.seed}" in script
    with pytest.raises(SystemExit) as excinfo:  # a passing program: exit 0
        exec(compile(script, "repro_seed2.py", "exec"), {})
    assert excinfo.value.code == 0


def _fail_fault_composed(monkeypatch):
    """Inject a fault-composed failure: the differential passes, the
    lossy runs 'diverge' on every program that still carries a fault
    spec and more than one round."""

    def fake_check_faulty(program, clean=None):
        return DifferentialResult(
            program=program, ok=len(program.rounds) <= 1,
            mismatched=["atm-tcp"],
        )

    def fake_judge(program, results):
        return (DifferentialResult(program=program, ok=True, canons={"c": ""}),
                fake_check_faulty(program))

    monkeypatch.setattr("repro.conformance.executor.judge", fake_judge)
    monkeypatch.setattr("repro.conformance.executor.check_faulty", fake_check_faulty)
    monkeypatch.setattr("repro.conformance.corpus.check_faulty", fake_check_faulty)


def test_repro_script_of_a_fault_composed_failure_exits_nonzero(monkeypatch):
    _fail_fault_composed(monkeypatch)
    program = generate(31, profile="fault")
    assert program.fault is not None and len(program.rounds) > 1
    with pytest.raises(SystemExit) as excinfo:
        exec(compile(repro_script(program), "repro_seed31.py", "exec"), {})
    assert excinfo.value.code == 1


def test_cli_seed_shrinks_a_fault_composed_failure(tmp_path, monkeypatch):
    """``fuzz --seed`` shrinks under the verdict that failed: with the
    differential predicate every candidate 'passes' and the repro is the
    unshrunk program."""
    from repro.cli import main as cli_main

    _fail_fault_composed(monkeypatch)
    buf = io.StringIO()
    rc = cli_main(["fuzz", "--seed", "31", "--profile", "fault",
                   "--artifacts", str(tmp_path)], out=buf)
    assert rc == 1 and "[fault-composed]" in buf.getvalue()
    (json_path,) = tmp_path.glob("*.json")
    assert f"shrunk repro: {json_path}" in buf.getvalue()
    small = Program.from_dict(json.loads(json_path.read_text()))
    assert small.fault is not None        # the failure needs the fault spec
    assert len(small.rounds) == 2         # minimal: one more fails nothing
    assert small.op_count() < generate(31, profile="fault").op_count()


# ------------------------------------------------------- ULFM recovery (ft)
def test_ft_profile_generates_recovery_programs():
    program = generate(41, profile="ft")
    assert validate(program) == []
    assert program.ft is not None
    assert all(r.kind == "ft" for r in program.rounds)
    blob = json.dumps(program.to_dict(), sort_keys=True)
    back = Program.from_dict(json.loads(blob))
    assert back.to_dict() == program.to_dict()


def test_ft_profile_recovery_is_identical_across_matrix():
    """The differential property extends to crash recovery: every device
    cell produces the byte-identical canonical trace of the survivors'
    detect/revoke/shrink/agree run."""
    result = differential(generate(43, profile="ft"))
    assert result.ok, result.summary()
    assert len(set(result.canons.values())) == 1


def test_cli_fuzz_ft_profile():
    from repro.cli import main as cli_main

    buf = io.StringIO()
    assert cli_main(["fuzz", "--seed", "42", "--profile", "ft"], out=buf) == 0
    assert "OK" in buf.getvalue()


# ------------------------------------------------------------------- corpus
def test_ci_corpus_is_pinned_and_unique():
    assert len(CI_CORPUS) >= 25
    assert len(set(CI_CORPUS)) == len(CI_CORPUS)
    assert all(profile in PROFILES for _, profile in CI_CORPUS)
    assert any(profile == "ft" for _, profile in CI_CORPUS)


def test_run_corpus_smoke(tmp_path):
    out = io.StringIO()
    summary = run_corpus(
        entries=[(1, "mixed"), (11, "pt2pt")],
        artifacts_dir=str(tmp_path),
        out=out,
    )
    assert summary["ran"] == 2
    assert summary["passed"] == 2
    assert not summary["truncated"]
    assert "corpus OK" in out.getvalue()


def test_run_corpus_budget_truncates():
    """The budget cuts at cell granularity, and a program with any run
    skipped is not run — never judged on a partial result."""
    summary = run_corpus(budget_s=0.0)
    assert summary["truncated"]
    assert summary["ran"] == 0 and summary["total"] == len(CI_CORPUS)
    assert summary["verdicts"] == [None] * len(CI_CORPUS)
    assert summary["failures"] == [] and summary["canons"] == {}
    assert summary["report"].skipped == len(summary["report"].results) > 0


# ---------------------------------------------------------------------- CLI
def test_cli_fuzz_single_seed_deterministic():
    from repro.cli import main as cli_main

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        assert cli_main(["fuzz", "--seed", "2", "--dump-trace"], out=buf) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert "OK" in outs[0]


def test_cli_fuzz_corpus_budget():
    from repro.cli import main as cli_main

    buf = io.StringIO()
    rc = cli_main(["fuzz", "--corpus", "ci", "--budget", "5s"], out=buf)
    assert rc == 0, buf.getvalue()


def test_cli_fuzz_requires_a_seed_source():
    from repro.cli import main as cli_main

    buf = io.StringIO()
    assert cli_main(["fuzz"], out=buf) == 2
