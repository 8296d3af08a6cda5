"""Byte-for-byte comparison of CLI stdout against recorded golden files.

The files in tests/golden/ were recorded before the numeric lane's helpers
were merged (one entropy, multi-start search, subentropy and formatting
helper each) and pin its output: a change to the optimizer's path, a
rounding or a formatting difference shows up here, where a run compared
only with itself would not see it. The `info coherent` file for the d=3
switch was recorded before `channels.apply` became the rank-factored
kernel. The `verify all` files for seeds 1 and 2 were recorded before the
brute-force objective took one batched spectrum per side. The d=3
`verify lower-bound` file, whose witness group has 972-dimensional
outputs, was recorded before the spectra of large outputs were taken
block by block and `apply` kept to the nonzero support. Every `verify
all` file was recorded while the Nelder-Mead restarts still ran one by one
through scipy, before they ran as one lockstep search. The d=4 `verify
lower-bound` file, whose witness group has 5120-dimensional outputs, was
recorded while `apply` still returned every output as one dense matrix,
and before the brute-force private objective took only the two average
outputs' spectra. The `verify all` files for seeds 3 and 4 were recorded
while Haar unitaries still came from LAPACK QR and the private objective
still built every member's output. The `verify all` files for seeds 5 to
7 were recorded before the single-use searches moved from Nelder-Mead to
gradient ascent, so every `verify all` file was recorded under
Nelder-Mead. The `info holevo` and `info private` files, for
erasure(3/10) x erasure(7/10) and for lemma1's switch of erasure(1/10)
and erasure(2/5), each on an ensemble of a pure, a full-rank and a rank-2
member (channel and ensemble JSON alongside), were recorded while
`apply` still took one ensemble member at a time, before members of
unequal rank went through one batched kernel with zero padding. The
`info coherent` file for main_channel(1, 1/4, 3) on a seeded rank-2 input
that weighs both flag values about equally (channel and state JSON
alongside) reaches the rocket blocks and their complement; it was recorded
while `apply` still returned its own output object, built by a
single-state branch of the kernel. The `verify lemma3` files for seed 7
at 25 samples and seed 0 at one sample were recorded while each sampled
ensemble still went through its own kernel call, with its states built
one by one. The `bounds theorem --n 7` JSON and the `sweep bounds --n 8
--k 2:5` CSV were recorded while each theorem row still held its values
as Fractions and printed them through `str`. The `verify lemma2-appendix`
files for seed 11 at 120001 samples (Monte Carlo chunks of 50000, 50000
and 20001) and seed 3 at 65 samples were recorded while the Haar
Monte Carlo still orthonormalised every column of each sample and the
entropy-gap states still went through one eigvalsh each.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from qcap import channels, cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (f"verify_all_seed{seed}.txt", ["verify", "all", "--seed", str(seed)]) for seed in range(8)
] + [
    (
        f"verify_lower_bound_n2_d{d}_p1-4_uses3.txt",
        ["verify", "lower-bound", "--n", "2", "--d", str(d), "--p", "1/4", "--uses", "3"],
    )
    for d in (2, 3, 4)
] + [
    ("sweep_locking_p1-2_d2-300.csv", ["sweep", "locking", "--p", "1/2", "--d", "2:300"]),
] + [
    (f"bounds_theorem_n{n}.csv", ["bounds", "theorem", "--n", str(n), "--format", "csv"])
    for n in (2, 3, 7, 64)
] + [
    ("bounds_theorem_n7.txt", ["bounds", "theorem", "--n", "7"]),
    ("sweep_bounds_n8_k2-5.csv", ["sweep", "bounds", "--n", "8", "--k", "2:5"]),
] + [
    (
        f"info_{quantity}_{channel}_mixed_rank.txt",
        ["info", quantity, "--channel", str(GOLDEN / f"channel_{channel}.json"),
         "--ensemble", str(GOLDEN / f"ensemble_mixed_rank_{ensemble}.json")],
    )
    for channel, ensemble in (("erasure_3-10_x_erasure_7-10", "a"), ("lemma1_switch", "b"))
    for quantity in ("holevo", "private")
] + [
    (
        "info_coherent_main_n1_p1-4_d3_rank2.txt",
        ["info", "coherent", "--channel", str(GOLDEN / "channel_main_n1_p1-4_d3.json"),
         "--state", str(GOLDEN / "state_main_n1_p1-4_d3_rank2.json")],
    ),
] + [
    (
        f"verify_lemma3_seed{seed}_samples{samples}.txt",
        ["verify", "lemma3", "--seed", str(seed), "--samples", str(samples)],
    )
    for seed, samples in ((7, 25), (0, 1))
] + [
    (
        f"verify_lemma2_appendix_seed{seed}_samples{samples}.txt",
        ["verify", "lemma2-appendix", "--seed", str(seed), "--samples", str(samples)],
    )
    for seed, samples in ((11, 120001), (3, 65))
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_info_coherent_d3_switch_erasure_branch_matches_golden(tmp_path, capsys):
    # main_channel(1, 1/4, 3) with the flag pinned to the erasure branch, the
    # erasure data register maximally mixed and the pad in |0>:
    # (1 - 2p) log2 3 = 0.79248125 bits
    d = 3
    chan = tmp_path / "channel.json"
    chan.write_text(channels.serialize_channel_spec(channels.main_channel(1, Fraction(1, 4), d)))
    matrix = [[[0.0, 0.0]] * (2 * d * d) for _ in range(2 * d * d)]
    for i in range(d):
        matrix[d * d + i * d][d * d + i * d] = [1 / d, 0.0]
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"layout": [2, d, d], "matrix": matrix}))
    code = cli.main(["info", "coherent", "--channel", str(chan), "--state", str(state)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5 * math.log2(3), abs=1e-8)
    assert out.encode() == (GOLDEN / "info_coherent_main_n1_p1-4_d3_erasure.txt").read_bytes()
