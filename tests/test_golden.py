"""Byte-for-byte comparison of CLI stdout against recorded golden files.

The files in tests/golden/ were recorded before the numeric lane's helpers
were merged (one entropy, multi-start search, subentropy and formatting
helper each) and pin its output: a change to the optimizer's path, a
rounding or a formatting difference shows up here, where a run compared
only with itself would not see it.
"""

from pathlib import Path

import pytest

from qcap import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_all_seed0.txt", ["verify", "all", "--seed", "0"]),
    (
        "verify_lower_bound_n2_d2_p1-4_uses3.txt",
        ["verify", "lower-bound", "--n", "2", "--d", "2", "--p", "1/4", "--uses", "3"],
    ),
    ("sweep_locking_p1-2_d2-300.csv", ["sweep", "locking", "--p", "1/2", "--d", "2:300"]),
] + [
    (f"bounds_theorem_n{n}.csv", ["bounds", "theorem", "--n", str(n), "--format", "csv"])
    for n in (2, 3, 7, 64)
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
