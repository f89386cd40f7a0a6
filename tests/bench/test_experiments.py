"""EXPERIMENTS.md is generated from the code, and every claim is checked.

The drift test renders the file in memory from one batch of every plan
and demands the committed file back byte for byte; regenerate it with
``python -m repro.bench.experiments``.  The rest exercise the check
engine on doctored results, so no test here simulates twice.
"""

import copy

import pytest

from repro.bench import claims, experiments


@pytest.fixture(scope="module")
def results():
    return experiments.measure()


@pytest.fixture(scope="module")
def committed():
    return experiments.PATH.read_text(encoding="utf-8")


def test_experiments_md_is_generated_from_the_code(results, committed):
    assert experiments.render(committed, results) == committed


def test_every_plan_has_claims_and_every_claim_reads_a_plan():
    figures = {claim.figure for claim in claims.CLAIMS}
    assert figures == set(experiments.PLANS)
    assert len({claim.id for claim in claims.CLAIMS}) == len(claims.CLAIMS)


def _set_point(figure, series, x, value):
    def doctor(results):
        points = results[figure]["series"][series]
        results[figure]["series"][series] = [
            (px, value if px == x else v) for px, v in points]
    return doctor


def _set_crossover(value):
    def doctor(results):
        results["fig01"]["crossover"] = value
    return doctor


#: check kind -> (doctoring, the one claim it breaks, measured, paper)
DOCTORED = {
    "tolerance": (_set_point("fig02", "Meiko tport", 1, 80.0),
                  "fig02.tport_1B", "measured 80 µs", "paper 52 µs"),
    "ordering": (_set_point("fig02", "MPI(mpich)", 180, 100.0),
                 "fig02.ordering", "measured at 180: 111.7, 159.6, 100",
                 "paper tport < low latency < mpich"),
    "bracket": (_set_crossover(300.0),
                "fig01.crossover", "measured 300.0 B", "paper 180 B"),
    "ratio": (_set_point("fig06", "tcp/atm", 262144, 3.0),
              "fig06.atm_over_eth", "measured 2.783×", "paper ≈ an order of magnitude"),
}


@pytest.mark.parametrize("kind", sorted(DOCTORED))
def test_a_claim_that_fails_fails_the_render_and_says_which(kind, results, committed):
    doctor, claim_id, measured, paper = DOCTORED[kind]
    doctored = copy.deepcopy(results)
    doctor(doctored)
    with pytest.raises(experiments.ClaimsFailed) as failed:
        experiments.render(committed, doctored)
    (line,) = str(failed.value).splitlines()  # exactly the one claim
    figure = {"fig01": "Figure 1", "fig02": "Figure 2", "fig06": "Figure 6"}[
        claim_id.split(".")[0]]
    assert line.startswith(f"{claim_id} ({figure}): ")
    assert measured in line and paper in line


def test_a_one_character_edit_inside_a_generated_block_is_drift(results, committed):
    at = committed.index("39375.0")  # Figure 9, Ethernet at P = 8
    edited = committed[:at] + "4" + committed[at + 1:]
    assert experiments.render(edited, results) != edited
    assert experiments.render(edited, results) == committed


def test_prose_outside_the_markers_survives_a_render(results, committed):
    heading = "## Figure 6 — TCP bandwidth\n"
    edited = committed.replace(heading, heading + "\nA hand-written remark.\n")
    assert edited != committed
    assert experiments.render(edited, results) == edited


def test_every_plan_needs_its_block(results, committed):
    with pytest.raises(ValueError, match="fig03"):
        experiments.render(committed.replace("<!-- generated: fig03 -->\n", ""), results)
