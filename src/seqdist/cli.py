"""Command-line front end.

Subcommands:

* ``analyze``         -- full cross-validated report for one sequence:
  sub-limit table, weight estimates, weight-bounds interval, quantization
  estimate with error bound, and the uniform-Cesaro verdict.
* ``weights``         -- weight tables for explicit intervals and/or values,
  with per-window (n, min_count, max_count) rows.
* ``demo-nonmeasure`` -- the finite-additivity-only demonstration: finite
  index sets all get weight 0, yet the constant-one sequence forces total
  weight 1, so no countably additive measure can reproduce windowed
  densities.

Sequences come either from the built-in fixtures F1..F7 or from a spec
file holding one sequence as flat ``key = value`` lines, e.g.::

    kind = periodic       # or: rotation + alpha, table + values,
    pattern = 1, 0, 0     #     affine-combo + coefficients + children, ...

Lists are comma-separated, with no empty entry; ``#`` starts a comment; an
optional ``bound`` line may widen (never narrow) the certified bound, and an
optional ``shift`` line translates the sequence (term n becomes term
n + shift); affine children are fixture names.  Exit codes: 0 success, 2
usage or parse error, 3 resource limit.  Machine formats (jsonl, csv) are deterministic for a fixed
configuration and carry a schema field; every density decimal travels with
its exact (count, n) pair.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from fractions import Fraction

from .distribution import IntervalSet, interval_about, set_weight
from .errors import InvalidSpecError, ResourceLimitError, SeqdistError
from .lorentz import cross_validate
from .sequences import (
    FIXTURE_NAMES,
    SequenceSpec,
    affine_combo,
    doubling_blocks,
    dyadic_harmonic,
    fixture,
    materialize,
    ones_then_zeros,
    periodic,
    rotation,
    shift,
    table,
)
from .weights import DEFAULT_TOLERANCES, Tolerances
from .windows import WindowSchedule

SCHEMA = "seqdist.report/1"

FORMATS = ("table", "jsonl", "csv")

# Stable column order for the CSV mirror of the JSONL rows.
CSV_FIELDS = (
    "schema", "record", "source", "label", "horizon", "bound", "n",
    "min_count", "max_count", "offsets", "min_density", "max_density",
    "min_mean", "max_mean", "gap", "center", "radius", "occurrences",
    "isolated", "converged", "w_l_num", "w_l_den", "w_u_num", "w_u_den",
    "w_l", "w_u", "lower", "upper", "point", "error_bound", "estimate",
    "uniform_gap", "verdict", "difference", "combined_bound", "consistent",
    "residual_count", "value",
)


def parse_spec_file(text: str) -> SequenceSpec:
    """Parse the flat key=value grammar into a spec."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpecError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in fields:
            raise InvalidSpecError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    if "kind" not in fields:
        raise InvalidSpecError("spec file must declare a kind")
    kind = fields.pop("kind")
    declared_bound = fields.pop("bound", None)
    declared_shift = fields.pop("shift", None)

    def floats(key: str) -> list[float]:
        raw = fields.pop(key, None)
        if raw is None:
            raise InvalidSpecError(f"kind {kind!r} needs a {key!r} line")
        try:
            return [float(tok) for tok in raw.split(",")]
        except ValueError as exc:
            raise InvalidSpecError(f"could not parse {key!r}: {raw!r}") from exc

    if kind == "periodic":
        spec = periodic(floats("pattern"))
    elif kind == "ones-then-zeros":
        raw = fields.pop("n0", None)
        if raw is None:
            raise InvalidSpecError("ones-then-zeros needs an n0 line")
        try:
            spec = ones_then_zeros(int(raw))
        except ValueError as exc:
            raise InvalidSpecError(f"could not parse n0: {raw!r}") from exc
    elif kind == "rotation":
        vals = floats("alpha")
        if len(vals) != 1:
            raise InvalidSpecError("rotation takes a single alpha")
        spec = rotation(vals[0])
    elif kind == "doubling-blocks":
        spec = doubling_blocks()
    elif kind == "dyadic-harmonic":
        spec = dyadic_harmonic()
    elif kind == "table":
        spec = table(floats("values"))
    elif kind == "affine-combo":
        coefs = floats("coefficients")
        raw = fields.pop("children", None)
        if raw is None:
            raise InvalidSpecError("affine-combo needs a children line")
        names = [tok.strip() for tok in raw.split(",")]
        if len(names) != len(coefs):
            raise InvalidSpecError("coefficients and children must pair up")
        spec = affine_combo(list(zip(coefs, (fixture(n) for n in names))))
    else:
        raise InvalidSpecError(f"unknown kind {kind!r}")
    if fields:
        raise InvalidSpecError(f"unrecognized keys: {sorted(fields)}")
    if declared_shift is not None:
        try:
            spec = shift(spec, int(declared_shift))
        except ValueError as exc:
            raise InvalidSpecError(f"could not parse shift: {declared_shift!r}") from exc
    if declared_bound is not None:
        try:
            explicit = float(declared_bound)
        except ValueError as exc:
            raise InvalidSpecError(f"could not parse bound: {declared_bound!r}") from exc
        if explicit < spec.bound:
            raise InvalidSpecError(
                f"declared bound {explicit} is below the certified bound {spec.bound}"
            )
        spec = dataclasses.replace(spec, bound=explicit)
    return spec


def _fraction_fields(prefix: str, value: Fraction) -> dict:
    return {
        f"{prefix}_num": value.numerator,
        f"{prefix}_den": value.denominator,
        prefix: float(value),
    }


def _meta_row(source: str, horizon: int, bound: float, label: str) -> dict:
    return {
        "record": "meta",
        "source": source,
        "horizon": horizon,
        "bound": bound,
        "label": label,
        "value": "prefix-relative",
    }


def _weight_fields(w) -> dict:
    return {
        "converged": w.converged,
        **_fraction_fields("w_l", w.w_l_hat),
        **_fraction_fields("w_u", w.w_u_hat),
    }


def _row(record: str, obj, names, **extra) -> dict:
    """A ``record`` row copying the named attributes of a result object."""
    return {"record": record, **{name: getattr(obj, name) for name in names}, **extra}


def _estimate_rows(record: str, key: str, w, **head) -> list[dict]:
    """A weight estimate's ``record`` row, then one ``{record}_window`` row per
    density-profile row, each tagged ``key: head[key]``."""
    return [
        {"record": record, **head, **_weight_fields(w)},
        *(
            _row(f"{record}_window", r, ("n", "min_count", "max_count"),
                 offsets=r.offsets_scanned, min_density=r.min_count / r.n,
                 max_density=r.max_count / r.n, **{key: head[key]})
            for r in w.per_window.rows
        ),
    ]


def analyze_rows(meta: dict, record) -> list[dict]:
    """Flatten a CrossValidation into report rows after the ``meta`` row."""
    rows = [meta]
    for c in record.sublimits.clusters:
        rows.extend(_estimate_rows(
            "sublimit", "center", c.weight,
            **{name: getattr(c, name) for name in ("center", "radius", "occurrences", "isolated")},
        ))
    rows.append(
        _row("residual", record.sublimits, ("residual_count",),
             value=float(record.sublimits.residual_mass))
    )
    rows.append(_row("weight_bounds", record.bounds, ("lower", "upper", "point", "verdict")))
    rows.append(
        _row("quantization", record.quantization,
             ("point", "lower", "upper", "error_bound", "verdict"))
    )
    lv = record.lorentz
    rows.append(_row("lorentz", lv, ("estimate", "uniform_gap", "verdict")))
    rows.extend(
        _row("cesaro_window", r, ("n", "min_mean", "max_mean"), gap=r.max_mean - r.min_mean)
        for r in lv.profile.rows
    )
    rows.append(_row("consistency", record, ("difference", "combined_bound", "consistent")))
    return rows


# The table format: one str.format template per record.  Besides the row's
# fields a template may name three words the renderer spells from its flags:
# {tag} (isolated), {unconverged} (converged) and {flag} (consistent).
_TABLE_LINES = {
    "meta": "sequence {source}: {label}\n"
            "horizon {horizon}  schema {schema}  (all quantities prefix-relative)",
    "sublimit": "sub-limit candidate at {center:.6g} ({tag}, {occurrences} occurrences): "
                "weight in [{w_l:.6g}, {w_u:.6g}]{unconverged}",
    "weight": "weight of {label}: [{w_l:.6g}, {w_u:.6g}]"
              " = [{w_l_num}/{w_l_den}, {w_u_num}/{w_u_den}]{unconverged}",
    "residual": "terms outside recurrent clusters: {residual_count}",
    "weight_bounds": "weight-bounds interval: [{lower:.6g}, {upper:.6g}]"
                     " around {point:.6g}, verdict {verdict}",
    "quantization": "quantization estimate: {point:.6g} (+/- {error_bound:.3g}),"
                    " verdict {verdict}",
    "lorentz": "uniform-Cesaro estimate: {estimate:.6g}, gap {uniform_gap:.3g}, verdict {verdict}",
    "consistency": "route difference {difference:.3g} vs combined bound"
                   " {combined_bound:.3g}: {flag}",
    "note": "{value}",
}
# A run of ``*_window`` rows prints the header once, then counts or means.
_WINDOW_HEADER = f"    {'n':>8} {'min':>12} {'max':>12}"
_COUNT_LINE = "    {n:>8} {min_count:>12} {max_count:>12}"
_MEAN_LINE = "    {n:>8} {min_mean:>12.6g} {max_mean:>12.6g}"


def _render_table(rows: list[dict]) -> str:
    out: list[str] = []
    in_windows = False
    for row in rows:
        windowed = row["record"].endswith("_window")
        if windowed and not in_windows:
            out.append(_WINDOW_HEADER)
        in_windows = windowed
        if windowed:
            template = _COUNT_LINE if "min_count" in row else _MEAN_LINE
        else:
            template = _TABLE_LINES[row["record"]]
        out.append(template.format(
            **row,
            tag="isolated" if row.get("isolated") else "non-isolated",
            unconverged="" if row.get("converged", True) else "  [not converged]",
            flag="consistent" if row.get("consistent") else "INCONSISTENT",
        ))
    return "\n".join(out) + "\n"


def render(rows: list[dict], out_format: str) -> str:
    rows = [{"schema": SCHEMA, **row} for row in rows]
    if out_format == "jsonl":
        encode = json.JSONEncoder(sort_keys=True).encode
        return "".join(encode(row) + "\n" for row in rows)
    if out_format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_FIELDS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return _render_table(rows)


def _emit(rows: list[dict], args) -> int:
    """Render rows in ``args.format`` to ``args.out`` or stdout."""
    text = render(rows, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidSpecError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _resolve_spec(args) -> tuple[str, SequenceSpec]:
    if args.fixture and args.spec_file:
        raise InvalidSpecError("give either --fixture or --spec-file, not both")
    if args.fixture:
        return args.fixture, fixture(args.fixture)
    if args.spec_file:
        try:
            # utf-8-sig drops a leading byte-order mark, which would
            # otherwise start the first key.
            with open(args.spec_file, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidSpecError(f"cannot read {args.spec_file}: {exc}") from exc
        return args.spec_file, parse_spec_file(text)
    raise InvalidSpecError("one of --fixture or --spec-file is required")


def _parse_schedule(args, horizon: int) -> WindowSchedule:
    if args.lengths and args.schedule:
        raise InvalidSpecError("give either --lengths or --schedule, not both")
    if args.lengths:
        try:
            lengths = tuple(int(tok) for tok in args.lengths.split(","))
        except ValueError as exc:
            raise InvalidSpecError(f"bad --lengths {args.lengths!r}") from exc
        return WindowSchedule(lengths)
    base, ratio = 16, 2
    if args.schedule:
        try:
            base_s, ratio_s = args.schedule.lower().split("x", 1)
            base, ratio = int(base_s), int(ratio_s)
        except ValueError as exc:
            raise InvalidSpecError(
                f"--schedule wants BASExRATIO (e.g. 16x2), got {args.schedule!r}"
            ) from exc
    return WindowSchedule.geometric(horizon, base=base, ratio=ratio)


def _config_from(args) -> tuple[str, SequenceSpec, WindowSchedule, Tolerances]:
    """(source, spec, schedule, tolerances) resolved from the flags."""
    source, spec = _resolve_spec(args)
    schedule = _parse_schedule(args, args.horizon)
    schedule.validate_for(args.horizon)
    tol = dataclasses.replace(
        DEFAULT_TOLERANCES, gap=args.tolerance_gap, trend=args.tolerance_trend
    )
    return source, spec, schedule, tol


def cmd_analyze(args) -> int:
    source, spec, schedule, tol = _config_from(args)
    record = cross_validate(spec, args.horizon, schedule=schedule, tolerances=tol)
    meta = _meta_row(source, args.horizon, spec.bound, spec.describe())
    return _emit(analyze_rows(meta, record), args)


def _parse_interval(token: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = token.split(":", 1)
        return float(lo_s), float(hi_s)
    except ValueError as exc:
        raise InvalidSpecError(f"--interval wants LO:HI, got {token!r}") from exc


def cmd_weights(args) -> int:
    source, spec, schedule, tol = _config_from(args)
    if not args.interval and args.value is None:
        raise InvalidSpecError("give at least one --interval or --value")
    p = materialize(spec, args.horizon)
    rows = [_meta_row(source, args.horizon, spec.bound, spec.describe())]
    targets: list[tuple[str, IntervalSet]] = []
    for token in args.interval or ():
        lo, hi = _parse_interval(token)
        if lo < -p.bound or hi > p.bound:
            raise InvalidSpecError(
                f"interval [{lo}, {hi}) outside the bound [-{p.bound}, {p.bound}]"
            )
        targets.append((f"[{lo!r}, {hi!r})", IntervalSet(intervals=((lo, hi),))))
    for v in args.value or ():
        targets.append(
            (f"[{v!r} +/- {args.epsilon!r})", interval_about(v, args.epsilon, p.bound))
        )
    for label, region in targets:
        w = set_weight(p, region, schedule, tol)
        rows.extend(_estimate_rows("weight", "label", w, label=label, gap=float(w.gap)))
    return _emit(rows, args)


DEMO_PROSE = (
    "Windowed densities behave like a finitely additive set function but not "
    "like a measure.  Every finite index set has weight 0: its members fall "
    "out of all but boundedly many windows, so the windowed density tends to "
    "0 uniformly in the offset.  If some countably additive measure on the "
    "positive integers reproduced these weights, every finite set would get "
    "measure 0 and, summing a countable disjoint cover, the whole index set "
    "would too.  But the constant-one sequence concentrates weight 1 on any "
    "cell around 1, i.e. on the whole index set.  0 = 1 is the contradiction: "
    "no such measure exists, and the demo table below shows both halves with "
    "exact window counts."
)


def cmd_demo_nonmeasure(args) -> int:
    horizon = args.horizon
    schedule = WindowSchedule.geometric(horizon)
    rows = [
        _meta_row(
            "demo-nonmeasure", horizon, 1.0, "finite sets weigh 0, the full space weighs 1"
        ),
        {"record": "note", "value": DEMO_PROSE},
    ]
    cases = [(f"ones-then-zeros(n0={n0}) near 1", ones_then_zeros(n0)) for n0 in (1, 10, 100)]
    for label, spec in [*cases, ("all-ones near 1", fixture("F2"))]:
        w = set_weight(materialize(spec, horizon), interval_about(1.0, 0.1, 1.0), schedule)
        rows.extend(_estimate_rows("weight", "label", w, label=label, gap=float(w.gap)))
    return _emit(rows, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdist",
        description="Finite-horizon distribution and almost-convergence reports "
        "for bounded sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_spec=True):
        if with_spec:
            sp.add_argument("--fixture", choices=FIXTURE_NAMES, help="built-in sequence")
            sp.add_argument("--spec-file", help="path to a key=value spec file")
            sp.add_argument(
                "--horizon", type=int, default=10_000, help="prefix length N"
            )
            sp.add_argument(
                "--schedule",
                help="geometric window schedule as BASExRATIO (default 16x2)",
            )
            sp.add_argument(
                "--lengths", help="explicit comma-separated window lengths"
            )
            sp.add_argument(
                "--tolerance-gap", type=float, default=DEFAULT_TOLERANCES.gap
            )
            sp.add_argument(
                "--tolerance-trend", type=float, default=DEFAULT_TOLERANCES.trend
            )
        sp.add_argument("--format", choices=FORMATS, default="table")
        sp.add_argument("--out", help="write the report here instead of stdout")

    sp_analyze = sub.add_parser("analyze", help="full cross-validated report")
    add_common(sp_analyze)
    sp_analyze.set_defaults(func=cmd_analyze)

    sp_weights = sub.add_parser("weights", help="interval / value weight tables")
    add_common(sp_weights)
    sp_weights.add_argument(
        "--interval", action="append", help="half-open interval LO:HI (repeatable)"
    )
    sp_weights.add_argument(
        "--value", action="append", type=float, help="estimate the weight near VALUE"
    )
    sp_weights.add_argument(
        "--epsilon", type=float, default=0.05, help="half-width used with --value"
    )
    sp_weights.set_defaults(func=cmd_weights)

    sp_demo = sub.add_parser(
        "demo-nonmeasure", help="finite additivity vs countable additivity demo"
    )
    sp_demo.add_argument("--horizon", type=int, default=10_000)
    add_common(sp_demo, with_spec=False)
    sp_demo.set_defaults(func=cmd_demo_nonmeasure)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and an
    # append flag's default is None, so no list is carried between calls.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"seqdist: resource limit: {exc}", file=sys.stderr)
        return 3
    except SeqdistError as exc:
        print(f"seqdist: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
