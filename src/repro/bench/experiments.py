"""EXPERIMENTS.md, rendered from the code: ``python -m repro.bench.experiments``.

Evaluates the plans of Figures 1-9 and Table 1 as one in-process,
uncached :func:`repro.parallel.evaluate` batch, judges every claim of
:mod:`repro.bench.claims` against the results, and rewrites each
generated block of EXPERIMENTS.md — the text between
``<!-- generated: NAME -->`` and ``<!-- end generated -->``, one per
plan — with that plan's claims table and measured data.  Prose outside
the markers is hand-written and survives a re-render.  If a claim fails,
nothing is written: each failing claim's id, figure, measured and paper
values go to stderr and the exit status is 1.

``tests/bench/test_experiments.py`` renders in memory and demands the
committed file back byte for byte.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict

from repro.bench import claims
from repro.bench.figures import FIGURES, table1_overheads
from repro.bench.tables import format_figure, format_table1
from repro.parallel import evaluate

__all__ = ["PLANS", "PATH", "ClaimsFailed", "measure", "render", "main"]

#: the plans EXPERIMENTS.md reports, in file order
PLANS = ("fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
         "fig08", "fig09", "table1")
PATH = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

_BLOCK = re.compile(r"(<!-- generated: (\w+) -->\n)(.*?)(<!-- end generated -->)", re.S)


class ClaimsFailed(Exception):
    """One or more claims do not hold; the message has a line per claim."""


def measure() -> Dict[str, dict]:
    """Every plan's result, by plan name, from one engine batch."""
    plans = [FIGURES[name][0].plan() if name in FIGURES else table1_overheads.plan()
             for name in PLANS]
    results, _ = evaluate(plans)
    return dict(zip(PLANS, results))


def _block(name: str, result: dict, verdicts) -> str:
    lines = ["| claim | quantity | paper | measured | check |",
             "|---|---|---|---|---|"]
    lines += [
        f"| `{claim.id}` | {claim.quantity} | {claim.paper_text()} "
        f"| {claim.measured_text(measured)} | {claim.check} |"
        for claim, measured, _ in verdicts if claim.figure == name
    ]
    data = format_table1(result) if name == "table1" else format_figure(name, result)
    return "\n".join(lines) + f"\n\n```\n{data}\n```\n"


def render(text: str, results: Dict[str, dict]) -> str:
    """*text* with every generated block rewritten from *results*.

    Raises :class:`ClaimsFailed` if a claim does not hold, and
    ``ValueError`` unless *text* has exactly one block per plan.
    """
    verdicts = claims.judge(results)
    failed = [
        f"{claim.id} ({claim.source}): measured {claim.measured_text(measured)}, "
        f"paper {claim.paper_text()}, check {claim.check}"
        for claim, measured, holds in verdicts if not holds
    ]
    if failed:
        raise ClaimsFailed("\n".join(failed))
    seen = []

    def fill(match):
        name = match.group(2)
        if name not in results:
            raise ValueError(f"generated block {name!r} names no plan")
        seen.append(name)
        return match.group(1) + _block(name, results[name], verdicts) + match.group(4)

    out = _BLOCK.sub(fill, text)
    wrong = [name for name in results if seen.count(name) != 1]
    if wrong:
        raise ValueError(f"each plan needs exactly one generated block: {wrong}")
    return out


def main() -> int:
    try:
        text = render(PATH.read_text(encoding="utf-8"), measure())
    except ClaimsFailed as failed:
        print(f"claims that do not hold:\n{failed}", file=sys.stderr)
        return 1
    PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
