import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdist import cli, sequences
from seqdist.cli import main, parse_spec_file, render
from seqdist.errors import InvalidSpecError
from seqdist.sequences import (
    MAX_HORIZON_ENV,
    Prefix,
    SequenceSpec,
    affine_combo,
    doubling_blocks,
    dyadic_harmonic,
    eval_at,
    materialize,
    ones_then_zeros,
    periodic,
    shift,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_table_report(capsys):
    code, out, err = run(
        capsys, ["analyze", "--fixture", "F4", "--horizon", "3000"]
    )
    assert code == 0 and err == ""
    assert "sub-limit candidate at 1" in out
    assert "verdict almost-convergent" in out
    assert "consistent" in out


def test_table_prints_the_flagged_words():
    # No fixture at small N reports an inconsistency, so the rows are built
    # here; the words come from flags the renderer reads, not stored fields.
    fractions = {"w_l": 0.125, "w_u": 0.375, "w_l_num": 1, "w_l_den": 8,
                 "w_u_num": 3, "w_u_den": 8, "converged": False}
    rows = [
        {"record": "sublimit", "center": 0.25, "radius": 0.01, "occurrences": 7,
         "isolated": False, **fractions},
        {"record": "sublimit_window", "n": 16, "min_count": 1, "max_count": 3,
         "center": 0.25},
        {"record": "weight", "label": "[0, 0.5)", "gap": 0.25, **fractions},
        {"record": "consistency", "difference": 0.5, "combined_bound": 0.125,
         "consistent": False},
    ]
    assert render(rows, "table") == (
        "sub-limit candidate at 0.25 (non-isolated, 7 occurrences): "
        "weight in [0.125, 0.375]  [not converged]\n"
        "           n          min          max\n"
        "          16            1            3\n"
        "weight of [0, 0.5): [0.125, 0.375] = [1/8, 3/8]  [not converged]\n"
        "route difference 0.5 vs combined bound 0.125: INCONSISTENT\n"
    )


def test_analyze_jsonl_is_deterministic_and_exact(capsys):
    argv = ["analyze", "--fixture", "F4", "--horizon", "3000", "--format", "jsonl"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical machine output
    rows = [json.loads(line) for line in out1.splitlines()]
    assert all(row["schema"] == "seqdist.report/1" for row in rows)
    window_rows = [r for r in rows if r["record"] == "sublimit_window"]
    assert window_rows
    for r in window_rows:
        # Every density decimal travels with its exact (count, n) pair.
        assert r["min_density"] == r["min_count"] / r["n"]
        assert r["max_density"] == r["max_count"] / r["n"]
    verdicts = [r for r in rows if r["record"] == "lorentz"]
    assert verdicts and verdicts[0]["verdict"] == "almost-convergent"


def test_analyze_csv_mirrors_jsonl(capsys):
    code, out, _ = run(
        capsys,
        ["analyze", "--fixture", "F2", "--horizon", "2000", "--format", "csv"],
    )
    assert code == 0
    header, *lines = out.splitlines()
    assert header.split(",")[:2] == ["schema", "record"]
    assert any(line.split(",")[1] == "quantization" for line in lines)
    code2, out2, _ = run(
        capsys,
        ["analyze", "--fixture", "F2", "--horizon", "2000", "--format", "csv"],
    )
    assert out == out2


def test_analyze_constant_sequence(capsys):
    code, out, _ = run(
        capsys,
        ["analyze", "--fixture", "F2", "--horizon", "2000", "--format", "jsonl"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    lorentz = next(r for r in rows if r["record"] == "lorentz")
    assert lorentz["estimate"] == 1.0
    assert lorentz["verdict"] == "almost-convergent"


def test_analyze_not_almost_convergent(capsys):
    code, out, _ = run(capsys, ["analyze", "--fixture", "F6", "--horizon", "16384"])
    assert code == 0
    assert "verdict not-almost-convergent" in out


def test_analyze_f4_at_scale_reports_a_third(capsys):
    code, out, _ = run(
        capsys,
        ["analyze", "--fixture", "F4", "--horizon", "30000", "--format", "jsonl"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    lorentz = next(r for r in rows if r["record"] == "lorentz")
    assert abs(lorentz["estimate"] - 1 / 3) <= 1e-3
    consistency = next(r for r in rows if r["record"] == "consistency")
    assert consistency["consistent"]


def test_weights_interval(capsys):
    code, out, _ = run(
        capsys,
        [
            "weights", "--fixture", "F5", "--horizon", "20000",
            "--interval", "0:0.5", "--format", "jsonl",
        ],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    weight = next(r for r in rows if r["record"] == "weight")
    assert abs((weight["w_l"] + weight["w_u"]) / 2 - 0.5) < 0.01
    assert weight["w_l_num"] / weight["w_l_den"] == weight["w_l"]
    per_window = [r for r in rows if r["record"] == "weight_window"]
    assert per_window and all({"n", "min_count", "max_count"} <= set(r) for r in per_window)


def test_a_negative_interval_end_needs_the_equals_form(capsys):
    # argparse reads "-1:0" after a space as an option, since it is not a
    # plain negative number; "--interval=-1:0" hands it over as the value.
    base = ["weights", "--fixture", "F3", "--horizon", "64", "--format", "jsonl"]
    code, out, err = run(capsys, [*base, "--interval=-1:0"])
    assert code == 0 and err == ""
    labels = {r["label"] for r in map(json.loads, out.splitlines()) if r["record"] == "weight"}
    assert labels == {"[-1.0, 0.0)"}
    with pytest.raises(SystemExit) as exc:
        main([*base, "--interval", "-1:0"])
    assert exc.value.code == 2


def test_weights_value_near_one(capsys):
    code, out, _ = run(
        capsys,
        [
            "weights", "--fixture", "F1", "--horizon", "10000",
            "--value", "1.0", "--epsilon", "0.1", "--format", "jsonl",
        ],
    )
    assert code == 0
    weight = next(
        json.loads(line) for line in out.splitlines()
        if json.loads(line)["record"] == "weight"
    )
    assert weight["w_l"] == 0.0
    assert weight["w_u"] <= 3 / 512
    code, out, _ = run(
        capsys,
        [
            "weights", "--fixture", "F2", "--horizon", "10000",
            "--value", "1.0", "--epsilon", "0.1", "--format", "jsonl",
        ],
    )
    weight = next(
        json.loads(line) for line in out.splitlines()
        if json.loads(line)["record"] == "weight"
    )
    assert weight["w_l"] == weight["w_u"] == 1.0


def test_weights_requires_target(capsys):
    code, _, err = run(capsys, ["weights", "--fixture", "F2", "--horizon", "100"])
    assert code == 2
    assert "interval" in err


def test_demo_nonmeasure(capsys):
    code, out, _ = run(capsys, ["demo-nonmeasure", "--horizon", "10000"])
    assert code == 0
    assert "no such measure exists" in out
    assert "all-ones near 1: [1, 1]" in out
    code, out_json, _ = run(
        capsys, ["demo-nonmeasure", "--horizon", "10000", "--format", "jsonl"]
    )
    rows = [json.loads(line) for line in out_json.splitlines()]
    ones_rows = [r for r in rows if r["record"] == "weight" and "all-ones" in r["label"]]
    assert ones_rows[0]["w_l_num"] == ones_rows[0]["w_l_den"] == 1


def test_demo_scale_independent(capsys):
    # Same qualitative table at both horizons: transients at 0, constant at 1.
    for horizon in ("1000", "10000"):
        code, out, _ = run(
            capsys, ["demo-nonmeasure", "--horizon", horizon, "--format", "jsonl"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        w1 = next(r for r in rows if r["record"] == "weight" and "n0=1)" in r["label"])
        assert w1["w_l"] == 0.0 and w1["w_u"] <= 0.05
        w_ones = next(r for r in rows if r["record"] == "weight" and "all-ones" in r["label"])
        assert w_ones["w_l"] == w_ones["w_u"] == 1.0


def test_spec_file_round_trip(capsys, tmp_path):
    path = tmp_path / "seq.spec"
    path.write_text("# three-periodic indicator\nkind = periodic\npattern = 1, 0, 0\n")
    code, out, _ = run(
        capsys,
        ["analyze", "--spec-file", str(path), "--horizon", "3000", "--format", "jsonl"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    lorentz = next(r for r in rows if r["record"] == "lorentz")
    assert abs(lorentz["estimate"] - 1 / 3) < 0.01


def test_a_spec_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    # A UTF-8 byte-order mark is dropped, not read into the first key.
    golden = Path(__file__).parent / "golden" / "shifted_doubling.spec"
    path = tmp_path / "bom.spec"
    path.write_bytes(b"\xef\xbb\xbf" + golden.read_bytes())
    reports = []
    for source in (golden, path):
        code, out, err = run(
            capsys, ["analyze", "--spec-file", str(source), "--horizon", "4096", "--format", "jsonl"]
        )
        assert code == 0 and err == ""
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["record"] == "meta" and rows[0].pop("source") == str(source)
        reports.append(rows)
    assert reports[0] == reports[1]


def test_spec_file_grammar():
    spec = parse_spec_file("kind = rotation\nalpha = 0.25\n")
    assert spec.kind == "rotation" and spec.alpha == 0.25
    spec = parse_spec_file("kind = affine-combo\ncoefficients = 0.5, 0.25\nchildren = F3, F2\n")
    assert eval_at(spec, 2) == 0.75
    spec = parse_spec_file("kind = table\nvalues = 1, 2, 3\nbound = 5\n")
    assert spec.bound == 5.0
    spec = parse_spec_file("kind = doubling-blocks\nshift = 5\n")
    assert spec.shift == 5 and [eval_at(spec, n) for n in (1, 2, 3, 4)] == [0.0, 0.0, 1.0, 1.0]
    for bad in ("-1", "1.5"):
        with pytest.raises(InvalidSpecError):
            parse_spec_file(f"kind = doubling-blocks\nshift = {bad}\n")
    with pytest.raises(InvalidSpecError):
        parse_spec_file("pattern = 1\n")  # no kind
    with pytest.raises(InvalidSpecError):
        parse_spec_file("kind = periodic\npattern = 1\nbogus = 2\n")
    with pytest.raises(InvalidSpecError):
        parse_spec_file("kind = periodic\npattern = 1, 2\nbound = 0.5\n")
    with pytest.raises(InvalidSpecError):
        parse_spec_file("kind = periodic\npattern = one\n")


def test_bad_usage_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "--horizon", "100"])
    assert code == 2 and "fixture" in err
    for lengths, cause in (
        ("7,3", "strictly increasing"), ("5,3", "strictly increasing"),
        ("0,5", "window length"), ("4,x", "bad --lengths"),
    ):
        code, _, err = run(
            capsys, ["analyze", "--fixture", "F2", "--horizon", "100", "--lengths", lengths]
        )
        assert code == 2 and cause in err
    code, out, err = run(capsys, [
        "analyze", "--fixture", "F4", "--horizon", "4096", "--lengths", "16,32", "--schedule", "8x4",
    ])
    assert code == 2 and out == "" and err.startswith("seqdist:") and "--schedule" in err
    out = tmp_path / "missing" / "x.jsonl"
    code, _, err = run(capsys, ["analyze", "--fixture", "F4", "--horizon", "64", "--out", str(out)])
    assert code == 2 and err.startswith("seqdist: cannot write")
    for center in ("inf", "nan"):
        code, _, err = run(
            capsys, ["weights", "--fixture", "F4", "--horizon", "64", "--value", center]
        )
        assert code == 2 and err.startswith("seqdist:")


def test_resource_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setenv(MAX_HORIZON_ENV, "1000")
    code, _, err = run(capsys, ["analyze", "--fixture", "F2", "--horizon", "2000"])
    assert code == 3
    assert "resource" in err


@pytest.mark.parametrize("fixture_name", ["F4", "F5"])
def test_running_out_of_memory_exits_3(capsys, monkeypatch, fixture_name):
    # numpy raises a MemoryError subclass when an allocation fails; the
    # report gives its text, with no traceback.
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (10**9,)")

    monkeypatch.setattr(sequences, "_terms", refuse)
    code, out, err = run(capsys, ["analyze", "--fixture", fixture_name, "--horizon", "4096"])
    assert code == 3 and out == ""
    assert err.startswith("seqdist: resource limit: Unable to allocate 7.45 GiB")
    assert "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_non_positive_cap_exits_2(capsys, monkeypatch, cap):
    monkeypatch.setenv(MAX_HORIZON_ENV, cap)
    code, out, err = run(capsys, ["analyze", "--fixture", "F2", "--horizon", "64"])
    assert code == 2 and out == "" and MAX_HORIZON_ENV in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        [
            "analyze", "--fixture", "F3", "--horizon", "2000",
            "--format", "jsonl", "--out", str(target),
        ],
    )
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert any(r["record"] == "consistency" and r["consistent"] for r in rows)


@pytest.mark.parametrize(
    "text",
    [
        "kind = periodic\npattern = 1, 0\nbound = nan\n",
        "kind = periodic\npattern = 1, 0\nbound = inf\n",
        "kind = affine-combo\ncoefficients = 1e308, 1e308\nchildren = F2, F2\n",
    ],
)
def test_non_finite_bound_exits_2(capsys, tmp_path, text):
    path = tmp_path / "seq.spec"
    path.write_text(text)
    code, out, err = run(capsys, ["analyze", "--spec-file", str(path), "--horizon", "100"])
    assert code == 2 and out == ""
    assert err.startswith("seqdist:") and "finite" in err


@pytest.mark.parametrize("data, cause", [
    (b"kind = periodic\npattern = 1, 0\xff\n", "cannot read"),
    # A doubled or trailing comma is a typo, not a shorter list.
    (b"kind = periodic\npattern = 1, , 0, 0\n", "could not parse 'pattern'"),
    (b"kind = periodic\npattern = 1, 0, 0,\n", "could not parse 'pattern'"),
    (b"kind = table\nvalues = 1,\n", "could not parse 'values'"),
    (b"kind = affine-combo\ncoefficients = 0.5,, 1\nchildren = F3, F2\n", "could not parse 'coefficients'"),
    (b"kind = affine-combo\ncoefficients = 0.5, 0.25, 1\nchildren = F3, , F2\n", "unknown fixture ''"),
    (b"kind = affine-combo\ncoefficients = 0.5, 0.25\nchildren = F3, F2,\n", "must pair up"),
], ids=["not-utf8", "doubled", "trailing", "table", "coefficients", "child", "trailing-child"])
def test_a_bad_spec_file_exits_2(capsys, tmp_path, data, cause):
    path = tmp_path / "seq.spec"
    path.write_bytes(data)
    code, out, err = run(capsys, ["analyze", "--spec-file", str(path), "--horizon", "64"])
    assert code == 2 and out == "" and err.startswith("seqdist:") and cause in err


@pytest.mark.parametrize("flag", ["--tolerance-gap", "--tolerance-trend"])
def test_nan_tolerance_exits_2(capsys, flag):
    code, out, err = run(capsys, ["analyze", "--fixture", "F4", "--horizon", "4096", flag, "nan"])
    assert code == 2 and out == ""
    assert err.startswith("seqdist:") and "finite" in err


@pytest.mark.parametrize("bound", ["1e12", "1e308"])
def test_huge_partition_exits_3(capsys, tmp_path, bound):
    path = tmp_path / "seq.spec"
    path.write_text(f"kind = periodic\npattern = 1, 0\nbound = {bound}\n")
    code, out, err = run(capsys, ["analyze", "--spec-file", str(path), "--horizon", "4096"])
    assert code == 3 and out == ""
    assert "resource limit" in err


def test_a_large_bound_builds_no_partition_points(capsys, tmp_path):
    # At bound 468000 the finer mesh has 6e7 cells, just under the cap, but
    # only the 4 cells holding a value are found, so the report peaks as it
    # does at bound 1.
    peaks = []
    for bound in ("468000", "1"):
        path = tmp_path / "seq.spec"
        path.write_text(f"kind = periodic\npattern = 0.1, 0.4, 0.7, 0.9\nbound = {bound}\n")
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["analyze", "--spec-file", str(path), "--horizon", "4096"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[0] <= peaks[1] + 10 * 2**20


@pytest.mark.parametrize("fixture, n", [
    ("F1", 2**21), ("F4", 2**21), ("F6", 2**21), ("F5", 2**16), ("F7", 2**16),
])
def test_analyze_labels_each_head_entry_once(fixture, n, capsys, monkeypatch):
    # The head is grouped once, by every cluster's and cell's first value,
    # and the counted runs and the clusters' last indices are all read from
    # that grouping: F1, F4 and F6 have two values, counted from one run
    # (4, 3 and 22 head entries), F5 all N distinct terms, and F7 one head
    # entry per 2-adic class.
    head = sequences.materialize(sequences.fixture(fixture), n).head.size
    labelled = []
    run_labels = Prefix.run_labels

    def spy(self, starts, terms):
        labelled.append((terms is self.head, terms.size))
        return run_labels(self, starts, terms)

    monkeypatch.setattr(Prefix, "run_labels", spy)
    code, out, err = run(
        capsys, ["analyze", "--fixture", fixture, "--horizon", str(n), "--format", "jsonl"]
    )
    assert code == 0 and err == "" and out
    assert labelled == [(True, head)]


def test_main_reuses_one_parser_and_reads_the_cap_on_every_call(capsys, monkeypatch):
    # An append flag's list must not carry over from one call to the next,
    # and the horizon cap is read from the environment, not the parser.
    base = ["weights", "--fixture", "F5", "--horizon", "256", "--format", "jsonl"]
    two = base + ["--interval", "0:0.5", "--interval", "0.25:0.75"]
    one = base + ["--interval", "0:0.5"]
    fresh = []
    for argv in (two, one):
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert run(capsys, two) == fresh[0] and run(capsys, one) == fresh[1]
    assert fresh[0][1].count('"record": "weight"') == 2
    assert fresh[1][1].count('"record": "weight"') == 1
    assert cli._parser() is cli._parser()
    monkeypatch.setenv(MAX_HORIZON_ENV, "100")
    code, out, err = run(capsys, one)
    assert code == 3 and out == "" and "resource limit" in err
    monkeypatch.delenv(MAX_HORIZON_ENV)
    assert run(capsys, one) == fresh[1]


def test_periodic_two_valued_analyze_never_fills_the_prefix(capsys, monkeypatch):
    # Counts, span, index and last indices of these come from the first
    # t + q terms and the last period, or of F6 and its shift from the first
    # and last term of each run; an interval's mask is taken over the head
    # too.  Only the float walk of the transient combo reads every term.
    filled = []
    fill = Prefix.values.func

    def spy(self):
        filled.append(self.horizon)
        return fill(self)

    monkeypatch.setattr(Prefix.values, "func", spy)
    big = str(2**21)
    fixtures = [["--fixture", f] for f in ("F1", "F2", "F3", "F4", "F6")]
    specs = [["--spec-file", f"tests/golden/{f}.spec"] for f in ("mixed_zero", "shifted_doubling")]
    for source in (*fixtures, *specs):
        code, out, err = run(capsys, ["analyze", *source, "--horizon", big, "--format", "jsonl"])
        assert code == 0 and err == "" and out
    assert filled == []
    for f in ("F4", "F6"):
        code, out, _ = run(capsys, ["weights", "--fixture", f, "--horizon", big,
                                    "--interval", "0:0.5", "--value", "1", "--format", "jsonl"])
        assert code == 0 and out
    assert filled == []
    code, _, _ = run(capsys, ["analyze", "--spec-file", "tests/golden/transient_combo.spec",
                              "--horizon", "4096", "--format", "jsonl"])
    assert code == 0 and filled == [4096]

# --------------------------------------------------------- one report, any layout


@st.composite
def layout_specs(draw):
    """A spec for each way a prefix can be read: periodic patterns holding
    +-0.0, ones-then-zeros whose transient may pass the horizon, shifted
    doubling blocks and dyadic harmonics, and affine combos and shifts of
    these, whose periods may need an lcm past the horizon."""
    patterns = st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.25]), min_size=1, max_size=9
    ).map(periodic)
    steps = st.integers(1, 6000).map(ones_then_zeros)
    leaves = patterns | steps | st.just(doubling_blocks()) | st.just(dyadic_harmonic())
    shifted = lambda specs: st.builds(shift, specs, st.integers(0, 40))
    coefs = st.sampled_from([1.0, -0.5, 0.1, 3.0])
    tree = st.recursive(
        shifted(leaves),
        lambda kids: st.lists(st.tuples(coefs, shifted(kids)), min_size=1, max_size=3).map(affine_combo),
        max_leaves=4,
    )
    return draw(shifted(tree))


def analyze_report(spec, n) -> str:
    """``analyze --format jsonl`` of ``spec`` at horizon ``n``."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "_resolve_spec", lambda args: ("probe", spec))
        assert main(["analyze", "--fixture", "F1", "--horizon", str(n), "--format", "jsonl"]) == 0
    return out.getvalue()


@given(layout_specs(), st.sampled_from([64, 100, 777, 4096, 5000]), st.sampled_from([7, 100]))
# A transient past N, and a period (lcm 7 * 8 * 9) past N.
@example(shift(ones_then_zeros(5000), 3), 4096, 7)
@example(affine_combo([(1.0, periodic([1.0] + [0.0] * 6)), (0.5, periodic([-0.0] * 8)),
                       (0.1, shift(periodic([0.25] * 8 + [-0.5]), 2))]), 100, 7)
@example(shift(dyadic_harmonic(), 3), 4096, 7)
@settings(max_examples=120, deadline=None)
def test_a_report_is_the_same_from_any_head_layout(spec, n, chunk):
    # A spec with a period, breaks or a class rule is read from its head;
    # with the three rules patched away the same spec is filled and read
    # term by term.  The two reports agree byte for byte, chunk edges
    # falling inside runs, periods and classes.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", chunk)
        declared = analyze_report(spec, n)
        for rule in ("period", "breaks", "classes"):
            mp.setattr(SequenceSpec, rule, lambda self, *args: None)
        assert materialize(spec, n).head.size == n
        assert analyze_report(spec, n) == declared
