"""Pinned inputs: op lists built from ``workloads.json`` and the output digest.

An *op* is one ``repro.cli.main(argv, out=buf)`` call.  ``workloads.json``
holds each workload's command lines; ``expected.json`` holds, per command
line, the digest of its stdout at the pinned inputs.  Both are data, so
the load a later PR is judged on cannot drift with the product's own
corpus or defaults.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
WORKLOADS_FILE = HERE / "workloads.json"
EXPECTED_FILE = HERE / "expected.json"

#: what stays of an op's stdout: every digit run plus the verdict words.
#: Wording, column widths and units may change in a refactor; simulated
#: numbers and verdicts may not.
_TOKENS = re.compile(r"\d+(?:\.\d+)?|\bOK\b|\bFAILED\b")
#: ``repro perf`` prints host wall time and events/s beside the event
#: count; only the count is simulated output
_EVENTS = re.compile(r"(\d+) events")
_SEED = re.compile(r"\{seed\*100\+(\d+)\}")


def load_workloads() -> dict:
    """The benchmark's workloads, ``{name: spec}`` in file order."""
    with open(WORKLOADS_FILE) as fh:
        return json.load(fh)["workloads"]


def load_spec(name: str) -> dict:
    """One workload's spec; ``selftest`` is the mini-workload beside them."""
    with open(WORKLOADS_FILE) as fh:
        data = json.load(fh)
    return data["selftest"] if name == "selftest" else data["workloads"][name]


def load_expected() -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)["digests"]


class Op(NamedTuple):
    """One CLI invocation: its pin key, its argv, and how it is checked."""

    key: str
    argv: list
    check: str


def _make_op(spec, seed: int, tmp: str) -> Op:
    if isinstance(spec, str):
        spec = {"cmd": spec}
    # the key keeps the {tmp} placeholder (scratch paths differ per run)
    # but carries the resolved seed, so an op whose inputs the seed
    # changed has no pinned digest and is reported as unpinned
    key = _SEED.sub(lambda m: str(seed * 100 + int(m.group(1))), spec["cmd"])
    argv = [a.replace("{tmp}", tmp) for a in shlex.split(key)]
    return Op(key, argv, spec.get("check", "tokens"))


def build_ops(spec: dict, seed: int, tmp: str) -> list:
    """The op list of one pass of a workload.

    ``cold`` ops run once, then the ``warm`` ops ``warm_repeat`` times
    (only ``engine_pool`` has a warm half).  The seed moves every
    ``{seed*100+N}`` argument, which are the chaos seeds.  The figures, the
    apps and the fuzz programs are the same at every seed: the former
    have no seed, and unvetted fuzz seeds fail or run for minutes (see
    README).
    """
    seed %= 1_000_000
    cold = [_make_op(s, seed, tmp) for s in spec["cold"]]
    warm = [_make_op(s, seed, tmp) for s in spec.get("warm", ())]
    return cold + warm * spec.get("warm_repeat", 1)


def digest(text: str, check: str, tmp: str) -> str:
    """Digest of one op's stdout, reduced to its simulated content."""
    text = text.replace(tmp, "{tmp}")
    pattern = _EVENTS if check == "events" else _TOKENS
    tokens = pattern.findall(text)
    return hashlib.sha256(" ".join(tokens).encode()).hexdigest()[:16]
