"""Byte-for-byte comparison of CLI reports against checked-in goldens.

Each golden under ``tests/golden/`` is the exact output of ``cli.main`` for
the argument list next to its name.  A refactor that keeps every reported
number and row order keeps these files; a change that means to alter the
report regenerates them with ``main(argv + ["--out", path])`` and says why.
"""

from pathlib import Path

import pytest

from seqdist import sequences, windows
from seqdist.cli import main

GOLDEN = Path(__file__).parent / "golden"
N = "4096"

CASES = {
    **{
        f"analyze_{f}.jsonl": ["analyze", "--fixture", f, "--horizon", N, "--format", "jsonl"]
        for f in ("F1", "F2", "F3", "F4", "F5", "F6", "F7")
    },
    **{
        f"analyze_{f}.{ext}": ["analyze", "--fixture", f, "--horizon", N, "--format", fmt]
        for f in ("F4", "F6")
        for ext, fmt in (("csv", "csv"), ("txt", "table"))
    },
    # F7 prints non-isolated sub-limit candidates, which F4 and F6 do not.
    "analyze_F7.txt": ["analyze", "--fixture", "F7", "--horizon", N],
    **{
        f"weights_F5.{ext}": [
            "weights", "--fixture", "F5", "--horizon", N,
            "--interval", "0:0.5", "--interval", "0.25:0.75",
            "--value", "0.98", "--epsilon", "0.05", "--format", fmt,
        ]
        for ext, fmt in (("jsonl", "jsonl"), ("csv", "csv"), ("txt", "table"))
    },
    **{
        f"demo_nonmeasure.{ext}": ["demo-nonmeasure", "--horizon", N, "--format", fmt]
        for ext, fmt in (("jsonl", "jsonl"), ("csv", "csv"), ("txt", "table"))
    },
    # The spec path is part of the report, so it is given relative to the
    # root of the checkout, where the tests run it.
    "analyze_mixed_zero.jsonl": [
        "analyze", "--spec-file", "tests/golden/mixed_zero.spec", "--horizon", N, "--format", "jsonl",
    ],
    # Two values whose float sums are inexact: the Cesaro rows take the
    # float walk.
    "analyze_two_valued_inexact.jsonl": [
        "analyze", "--spec-file", "tests/golden/two_valued_inexact.spec", "--horizon", N,
        "--format", "jsonl",
    ],
    # Sixteen terms of -0.0, then 1.0: the first window of 16 sums to -0.0,
    # and its zero mean is reported as +0.0.
    "analyze_negative_zero_lead.jsonl": [
        "analyze", "--spec-file", "tests/golden/negative_zero_lead.spec", "--horizon", "64",
        "--format", "jsonl",
    ],
    # The rotation by one half: a filled prefix of two values with exact
    # sums, whose head is grouped by one edge into two runs.
    "analyze_rotation_half.jsonl": [
        "analyze", "--spec-file", "tests/golden/rotation_half.spec", "--horizon", N,
        "--format", "jsonl",
    ],
    # Three terms of transient, then period 3 over four values: the Cesaro
    # rows take the float walk.
    "analyze_transient_combo.jsonl": [
        "analyze", "--spec-file", "tests/golden/transient_combo.spec", "--horizon", N,
        "--format", "jsonl",
    ],
    # A transient of 20000 terms: each row is folded onto a row shorter
    # than t + q, counted over 2 (t + q) - 1 terms of the repeated period.
    "analyze_long_transient.jsonl": [
        "analyze", "--spec-file", "tests/golden/long_transient.spec", "--horizon", "65536",
        "--format", "jsonl",
    ],
    # Doubling blocks shifted by 5: no period, and runs that start off the
    # powers of two.
    "analyze_shifted_doubling.jsonl": [
        "analyze", "--spec-file", "tests/golden/shifted_doubling.spec", "--horizon", "65536",
        "--format", "jsonl",
    ],
    # A tenth of doubling blocks: two values whose sums are inexact, so the
    # float walk fills the prefix of runs and checks each run's terms.
    "analyze_scaled_doubling.jsonl": [
        "analyze", "--spec-file", "tests/golden/scaled_doubling.spec", "--horizon", "65536",
        "--format", "jsonl",
    ],
    # The dyadic harmonic shifted by 3: term n is 1/j on the 2-adic class
    # of n + 3, so no class starts at its usual residue.
    "analyze_shifted_dyadic.jsonl": [
        "analyze", "--spec-file", "tests/golden/shifted_dyadic.spec", "--horizon", "65536",
        "--format", "jsonl",
    ],
    # Three class sets of F7: classes 15 on (period N/4), 16 on (N/2) and
    # 2-15 (N/2, dense).  Each is counted over one period, its rows folded
    # onto the member gaps or, for the dense set, the count walk.
    "weights_F7_65536.jsonl": [
        "weights", "--fixture", "F7", "--horizon", "65536", "--interval", "0.0:0.07",
        "--interval", "0.0588:0.0626", "--interval", "0.066:1.0", "--format", "jsonl",
    ],
    # Half of F5 plus doubling blocks, a filled prefix: the count of the
    # region [1.0, 1.5) at n = 131072 moves by more than 2**15 within one
    # walk block, which is then read again in 16-bit stretches of 2**15.
    "weights_rotation_doubling.jsonl": [
        "weights", "--spec-file", "tests/golden/rotation_doubling.spec", "--horizon", "524291",
        "--interval", "0.75:1.25", "--interval", "1.0:1.5", "--format", "jsonl",
    ],
    # The same regions at explicit lengths 256 and 1024: the first row's
    # count of [1.0, 1.5) swings from 0 to 256 within one walk block, so its
    # int8 reading reaches -128 or 127 and the walk hands over to 16-bit
    # lanes.
    "weights_rotation_doubling_4096.jsonl": [
        "weights", "--spec-file", "tests/golden/rotation_doubling.spec", "--horizon", N,
        "--lengths", "256,1024", "--interval", "0.75:1.25", "--interval", "1.0:1.5",
        "--format", "jsonl",
    ],
}

# Reports at 2**20, where blocks of 7 would take minutes: run at the default
# sizes only.
DEFAULT_SIZE_CASES = {
    # F7 at 2**20 holds 21 classes, and some of its clusters and cells
    # repeat only every 2**16 terms.
    "analyze_F7_1048576.jsonl": ["analyze", "--fixture", "F7", "--horizon", str(2**20), "--format", "jsonl"],
    # F7's values 1/2 ... 1/16 at 2**20 are classes 2-16, and 1 ... 1/16
    # classes 1-16: dense sets that repeat every 2**16 terms, N/16, which
    # are counted over one period.
    "weights_F7_1048576.jsonl": [
        "weights", "--fixture", "F7", "--horizon", str(2**20), "--interval", "0.0625:1.0",
        "--value", "1.0", "--epsilon", "0.9375", "--format", "jsonl",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_in_small_blocks(name, capsys, monkeypatch):
    # At N = 4096 every row of the prefix-sum walks fits in one block of the
    # default sizes, and the prefix in one chunk of materialize and
    # run_labels; blocks of 7 (the float walk, the count walk's stretches)
    # and 13 (the count walk) and chunks of 100 (of materialize, run_labels
    # and IntervalSet.contains) split each into many, the last partial.
    monkeypatch.setattr(windows, "_BLOCK", 7)
    monkeypatch.setattr(windows, "_COUNT_BLOCK", 13)
    monkeypatch.setattr(sequences, "_CHUNK", 100)
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_the_table_reaches_every_path_of_the_count_walk(capsys, monkeypatch):
    # CI runs this table through the console script, so its reports pin
    # each way the count walk reads a block of a row of 2**8 or more: the
    # 8-bit residues lifted by the block's first count, the int8 re-centre
    # on that count, the hand-over to 16-bit lanes of a block whose int8
    # reading reaches an end, and the 16-bit reading in stretches of a
    # block whose int16 reading does.
    reached = set()
    read = windows._lane_extrema

    def reading(lanes, buf, exact, n, s, e):
        got = read(lanes, buf, exact, n, s, e)
        if got is None:
            reached.add("hand-over" if lanes.itemsize == 1 else "stretches")
        elif lanes.itemsize == 1 and n >= 2**8:
            reached.add("re-centre" if got[0] >> 8 != got[1] >> 8 else "lift")
        return got

    monkeypatch.setattr(windows, "_lane_extrema", reading)
    monkeypatch.chdir(GOLDEN.parent.parent)
    for argv in CASES.values():
        assert main(argv) == 0
    capsys.readouterr()
    assert reached == {"lift", "re-centre", "hand-over", "stretches"}


@pytest.mark.parametrize("name", sorted(DEFAULT_SIZE_CASES))
def test_report_matches_golden_at_default_sizes(name, capsys):
    assert main(DEFAULT_SIZE_CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    # One line per golden of both tables, its name and then its argv, for
    # running each through the installed console script:
    #   python tests/test_golden.py | while read -r name argv; do ...
    for name, argv in sorted({**CASES, **DEFAULT_SIZE_CASES}.items()):
        print(name, *argv)
