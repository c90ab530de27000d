"""Golden outputs: default and edge-case CLI runs hash to checked-in digests.

Each case runs ``arrivalab.cli.main`` in-process and compares the SHA-256 of
its ``manifest.txt`` (``validation_report.txt`` for ``validate``) with
``golden/digests.json``. The manifest hashes every CSV it lists, so one digest
pins every byte of the run. A change that alters any output fails here unless
the digests are re-recorded on purpose, only those of the cases it names:

    PYTHONPATH=src python tests/test_golden.py NAME...

With no names every digest is re-recorded; an unknown name is an error.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from arrivalab.cli import main
from arrivalab.csvio import sha256_file

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"

CASES = {
    "sweep-alpha": ["sweep-alpha"],
    "sweep-rate": ["sweep-rate"],
    "compare": ["compare"],
    "simulate": ["simulate"],
    "validate": ["validate"],
    # capacity 20 with mean holding 20: arrivals are blocked
    "sweep-rate-blocking": ["sweep-rate", "--horizon", "200", "--holding-rate", "0.05"],
    "simulate-lomax-capacity-3": ["simulate", "--holding", "lomax", "--capacity", "3"],
    "simulate-lomax-mginf": ["simulate", "--family", "lomax", "--capacity", "unbounded", "--holding", "lomax"],
    "simulate-unbounded-infinite": ["simulate", "--capacity", "unbounded", "--holding", "infinite"],
    # holds about 1000x the horizon: each departure time keeps its hold's last
    # bits, so these pin every holding variate (the cases above round most of
    # a one-ulp variate change away when they add it to an arrival time)
    "simulate-long-holds": ["simulate", "--rate", "10000", "--horizon", "1", "--holding-rate", "0.001"],
    "simulate-long-holds-lomax-capacity": [
        "simulate", "--rate", "10000", "--horizon", "1", "--holding", "lomax", "--holding-rate", "0.001",
        "--capacity", "5000",
    ],
    # flag paths the cases above leave out: repeated shape flags with a scale,
    # a node budget and Lomax holding; a one-parameter family with a label; the
    # curve flags of compare
    "sweep-alpha-flags": [
        "sweep-alpha", "--alpha", "0.5", "--alpha", "0.9", "--beta", "2", "--nodes", "5",
        "--holding", "lomax", "--replications", "3", "--horizon", "50",
    ],
    "simulate-pareto1-label": [
        "simulate", "--family", "pareto1", "--alpha", "0.7", "--capacity", "4", "--label", "probe",
        "--horizon", "50",
    ],
    "compare-flags": ["compare", "--alpha", "1.5", "--beta", "2", "--exp-rate", "2", "--x-max", "5"],
    # the ten alphas of the validate-suite benchmark: pins the stream id of
    # every validation block past the ten pareto1 cells
    "validate-ten-alphas": ["validate", "--config", str(GOLDEN / "validate-ten-alphas.cfg")],
}


def run_case(name, outdir) -> str:
    argv = CASES[name]
    assert main([*argv, "--out", str(outdir)]) == 0
    output = "validation_report.txt" if argv[0] == "validate" else "manifest.txt"
    return sha256_file(Path(outdir) / output)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


def test_every_golden_digest_has_a_case():
    assert set(json.loads(DIGESTS.read_text())) == set(CASES)


def record(names, path=DIGESTS) -> None:
    """Re-record the digests of the cases ``names`` in ``path``, keeping the
    others; every digest, and no other, when ``names`` is empty."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    digests = json.loads(path.read_text()) if names else {}
    names = sorted(set(names or CASES))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            digests[name] = run_case(name, Path(tmp) / name)
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")
    print(f"recorded {len(names)} digests in {path}", file=sys.stderr)


def test_recording_named_cases_keeps_the_other_digests(tmp_path):
    stale = {name: "stale" for name in CASES}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(stale))
    record(["simulate"], path)
    recorded = json.loads(path.read_text())
    assert recorded == {**stale, "simulate": json.loads(DIGESTS.read_text())["simulate"]}
    with pytest.raises(SystemExit, match="unknown golden case\\(s\\): simulat;"):
        record(["simulat"], path)
    assert json.loads(path.read_text()) == recorded


if __name__ == "__main__":
    record(sys.argv[1:])
