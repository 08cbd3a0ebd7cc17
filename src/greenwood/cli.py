"""Command-line interface.

Subcommands
-----------
quantiles    build a Monte Carlo quantile table (raw or spectrogram domain)
test         run one test on a single sample read from CSV
power        run a rejection-rate study over a parameter grid
analyze      screen a long signal, segment-wise or through a spectrogram
spectrogram  compute and store a spectrogram matrix

A flag that the command line does not read is a usage error: each mode,
domain, kind and family accepts only the flags it uses.

Exit codes: 0 success, 1 runtime failure (unreadable or invalid input data,
or not enough memory for the requested sizes), 2 argument error (bad flags,
insufficient replications, missing table coverage).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, replace
from functools import partial

import numpy as np

from .critical import (
    QuantileTable,
    TableCoverageError,
    TableRequest,
    atomic_open,
    build_quantile_table,
    json_text,
)
from .distributions import FAMILIES, DistributionSpec
from .power import PowerStudyConfig, export_curve, run_power_study
from .rng import RngStream
from .signal import (
    _check_beta,
    _check_rate,
    _frames,
    batch_test,
    build_spectrogram_quantile_table,
    frequency_rows,
    is_binary_signal,
    kaiser_window,
    read_csv_column,
    read_signal,
    segment_signal,
    spectrogram,
    spectrogram_null_params,
)
from .testing import _KINDS, TestSpec, _sample_size, run_test

__all__ = ["main"]


# a colon grid may expand to at most this many points
_MAX_GRID_POINTS = 10_000


class _UsageError(Exception):
    pass


@contextmanager
def _flag_values():
    """Report a ValueError raised while checking flag values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _checked(parse, check):
    """A flag type: ``parse`` the text (argparse reports a ValueError as ``invalid int
    value: 'x'``), then refuse the value by the error ``check`` raises for it."""

    def flag(text: str):
        value = parse(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    flag.__name__ = parse.__name__
    return flag


# the flags whose values the library checks, by its own rules
_seed = _checked(int, RngStream)
_sample_rate = _checked(float, _check_rate)
_beta = _checked(float, _check_beta)


def _parse_list(text: str, parse=float) -> list:
    """The comma list ``text`` of ints (``parse=int``) or floats; blank items are skipped."""
    try:
        return [parse(part) for part in text.split(",") if part.strip()]
    except ValueError:
        what = "integers" if parse is int else "numbers"
        raise _UsageError(f"expected a comma-separated list of {what}, got {text!r}")


def _parse_grid(text: str) -> list[float]:
    """Either ``start:step:stop`` (inclusive) or a comma list; ``inf`` allowed."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise _UsageError(f"grid must be start:step:stop or a comma list, got {text!r}")
        try:
            start, step, stop = (float(p) for p in pieces)
        except ValueError:
            raise _UsageError(f"non-numeric grid bounds in {text!r}")
        if not np.isfinite([start, step, stop]).all():
            raise _UsageError(f"--grid bounds must be finite, got {text!r}")
        if step <= 0:
            raise _UsageError("grid step must be positive")
        # clamped before rounding, so that no huge (or overflowing) span is expanded
        count = int(round(min(max((stop - start) / step, -1.0), _MAX_GRID_POINTS)))
        if count >= _MAX_GRID_POINTS:
            raise _UsageError(
                f"--grid must expand to at most {_MAX_GRID_POINTS} points, got {text!r}"
            )
        grid = [start + k * step for k in range(count + 1)]
        return [g for g in grid if g <= stop + 1e-12]
    return _parse_list(text)


def _family_spec(args) -> DistributionSpec:
    """The ``--family`` spec, each parameter read from the flag of its name."""
    if args.family is None:
        raise _UsageError("--family is required here")
    cls, params = FAMILIES[args.family], {}
    for f in fields(cls):
        if getattr(args, f.name) is not None:
            params[f.name] = getattr(args, f.name)
        elif f.default is MISSING:
            raise _UsageError(f"--{f.name} is required for the {args.family} family")
    with _flag_values():
        return cls(**params)


# the parameter flags of each family, one per spec field and named after it
_PARAMS = {tag: tuple(f.name for f in fields(cls)) for tag, cls in FAMILIES.items()}
_FAMILY = ("family", *(name for names in _PARAMS.values() for name in names))
_SPECTRAL = ("window_length", "beta", "overlap", "f_min", "f_max")
# defaults of the flags that some command lines do not read, which parse as
# None until the check; replications are (default, with --quick) per command.
# --sample-rate stays None when not given: a binary signal brings its own.
_DEFAULTS = {"beta": 5.0, "overlap": 0, "signals": 100, "segment_length": 1000}
_REPS = {"quantiles": (100000, 10000), "power": (2000, 500)}


def _check_flags(args) -> None:
    """Refuse each flag that this command line does not read, then fill in defaults."""
    entry, family = _KINDS.get(getattr(args, "kind", None)), getattr(args, "family", None)
    domain, mode = getattr(args, "domain", None), getattr(args, "mode", None)
    if mode == "tf" and not entry.tabled:
        raise _UsageError("time-frequency mode supports the mg test kinds only")
    # (flags, where they apply, whether this command line reads them); a
    # command without --kind, --domain or --mode reads what they would select
    scopes = [
        (_FAMILY, "kind mg_two_sided", entry is None or entry.null is None),
        *((names, f"the {tag} family", family == tag) for tag, names in _PARAMS.items()),
        (("table",), "the mg kinds", entry is not None and entry.tabled),
        (("n", "reps", "quick"), "the raw domain", domain != "spectrogram"),
        (("signal_length", "signals", "sample_rate", *_SPECTRAL), "the spectrogram domain",
         domain != "raw"),
        (("segment_length",), "time mode", mode != "tf"),
        ((*_SPECTRAL, "sample_rate"), "tf mode", mode != "time"),
        # a simulated signal's rate only places the band
        (("sample_rate",), "the spectrogram domain with --f-min or --f-max",
         domain != "spectrogram" or args.f_min is not None or args.f_max is not None),
    ]
    for names, where, read in scopes:
        for name in names:
            if not read and getattr(args, name, None) is not None:
                raise _UsageError(f"--{name.replace('_', '-')} applies to {where} only")
    for name, value in _DEFAULTS.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)
    if args.command in _REPS and args.reps is None:
        args.reps = _REPS[args.command][bool(args.quick)]


def _load_table(path) -> QuantileTable:
    try:
        return QuantileTable.load(path)
    except ValueError as exc:
        raise ValueError(f"cannot parse quantile table {path}: {exc}")


def _test_spec(args) -> TestSpec:
    """The ``--kind`` test at level ``--c`` with its ``--table`` and null.

    The spec holds its kind's null: the fixed one, or for ``mg_two_sided``
    the ``--family`` spec.
    """
    entry = _KINDS[args.kind]
    table = _load_table(args.table) if args.table else None
    if entry.tabled and table is None:
        raise _UsageError(f"--table is required for kind {args.kind}")
    null = _family_spec(args) if entry.null is None else None
    with _flag_values():
        return TestSpec(kind=args.kind, c=args.c, table=table, null_spec=null)


def _read_signal(args):
    """The ``--input`` signal; ``--sample-rate`` is the rate of CSV input, which has none."""
    if args.sample_rate is not None and is_binary_signal(args.input):
        raise _UsageError("--sample-rate applies to CSV input only")
    return read_signal(args.input, args.sample_rate or 1.0)


def _write_or_print(text: str, out: str | None) -> None:
    """``text`` in the file ``out``, written atomically, or on stdout."""
    if out:
        with atomic_open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands


def _cmd_quantiles(args) -> int:
    spec = _family_spec(args)
    cs = _parse_list(args.c)
    if not cs:
        raise _UsageError("--c must list at least one level")
    sides = ("lower", "upper") if args.side == "both" else (args.side,)
    rng = RngStream(args.seed)

    if args.domain == "spectrogram":
        if args.window_length is None or args.signal_length is None:
            raise _UsageError(
                "spectrogram domain requires --window-length and --signal-length"
            )
        with _flag_values():  # the levels and the geometry all come from flags
            table = build_spectrogram_quantile_table(
                spec,
                [(c, side) for c in cs for side in sides],
                args.signal_length,
                args.window_length,
                args.beta,
                args.overlap,
                args.signals,
                rng,
                args.f_min,
                args.f_max,
                args.sample_rate or 1.0,
            )
    else:
        ns = _parse_list(args.n, int) if args.n else []
        if not ns:
            raise _UsageError("--n must list at least one sample size")
        with _flag_values():  # the requests, duplicates included, come from flags
            requests = [
                TableRequest(spec, n, c, side) for n in ns for c in cs for side in sides
            ]
            table = build_quantile_table(requests, args.reps, rng)
    table.save(args.out)
    print(f"wrote {len(table)} entries to {args.out}")
    return 0


def _cmd_test(args) -> int:
    spec = _test_spec(args)
    outcome = run_test(spec, read_csv_column(args.input))
    _write_or_print(json_text(outcome.to_json_dict()), args.out)
    return 0


def _cmd_power(args) -> int:
    spec = _test_spec(args)
    grid = _parse_grid(args.grid)
    ns = _parse_list(args.n, int)
    with _flag_values():
        config = PowerStudyConfig(
            test=spec,
            data_family=args.data_family,
            parameter_grid=tuple(grid),
            sample_sizes=tuple(ns),
            replications=args.reps,
            master_seed=args.seed,
        )
    curve = run_power_study(config)
    export_curve(curve, args.out)
    print(f"wrote {len(curve.points)} rows to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    spec = _test_spec(args)
    # the signal and its spectrogram are freed before the batch runs
    units, spec, labels = _analysis_units(args, spec)
    domain = "time" if args.mode == "time" else "time-frequency"
    report = batch_test(units, spec, domain=domain, labels=labels)

    _write_or_print(report.json_text(), args.out)
    print(
        f"{report.domain}: {len(report.outcomes)} units, "
        f"{report.rejection_percentage:.2f}% rejected at c={args.c}",
        file=sys.stderr,
    )
    return 0


def _analysis_units(args, spec: TestSpec) -> tuple:
    """``(units, spec, labels)`` for ``analyze``: the segments, one per row,
    or the band's spectrogram rows, with ``spec`` keyed by the geometry."""
    sig = _read_signal(args)
    if args.mode == "time":
        with _flag_values():  # the segment length must fit the signal and the kind
            units = segment_signal(sig, args.segment_length)
            _sample_size(spec.kind, units.shape[1])
        return units, spec, None
    if args.window_length is None:
        raise _UsageError("time-frequency mode requires --window-length")
    has_tf_entries = any(
        rec["params"].get("domain") == "spectrogram" for rec in spec.table.records
    )
    if not has_tf_entries:
        raise _UsageError(
            "time-frequency mode needs a table built from spectrogram nulls "
            "(build one with: greenwood quantiles --domain spectrogram ...); "
            f"{args.table} holds raw-sample entries only"
        )
    with _flag_values():  # the geometry must give the signal 2 frames
        extra = spectrogram_null_params(
            spec.null_spec, args.window_length, args.beta, args.overlap, len(sig)
        )
    sp = spectrogram(sig, kaiser_window(args.window_length, args.beta), args.overlap)
    del sig  # free the signal before the band is copied
    with _flag_values():  # the band must fit the spectrogram
        freqs, rows = frequency_rows(sp, args.f_min, args.f_max)
    return rows, replace(spec, extra_params=extra), freqs


def _cmd_spectrogram(args) -> int:
    if args.window_length is None:
        raise _UsageError("spectrogram requires --window-length")
    sig = _read_signal(args)
    with _flag_values():  # the geometry is all flags, and must fit the signal
        _frames(len(sig), args.window_length, args.overlap)  # before the window is built
        sp = spectrogram(sig, kaiser_window(args.window_length, args.beta), args.overlap)
    # the name np.save would give the file
    target = args.out if args.out.endswith(".npy") else args.out + ".npy"
    with atomic_open(target, "wb") as fh:
        np.save(fh, sp.magnitude_squared)
    meta = {
        "shape": list(sp.magnitude_squared.shape),
        "frequency_step_hz": float(sp.frequencies[1] - sp.frequencies[0]),
        "frame_count": int(sp.times.size),
        "window_length": int(sp.window.size),
        "beta": args.beta,
        "overlap": args.overlap,
        "sample_rate": sig.sample_rate,
        "matrix_file": target,
    }
    sys.stdout.write(json_text(meta))
    return 0


# --------------------------------------------------------------------------


# a parser of flags that several subcommands share, passed to them as a parent
_parent = partial(argparse.ArgumentParser, add_help=False)


def _test_flags(**kind) -> argparse.ArgumentParser:
    """``--kind``, its ``--table`` and the level ``--c``."""
    p = _parent()
    p.add_argument("--kind", choices=tuple(_KINDS), **kind)
    p.add_argument("--table", help="quantile table JSON (mg kinds only, which need one)")
    p.add_argument("--c", type=float, default=0.05, help="level (default 0.05)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenwood",
        description="Heavy-tail testing with the modified Greenwood statistic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups that several subcommands share; a flag that some command
    # lines do not read defaults to None here and in _DEFAULTS after the check.
    # The family flags are --family and one flag per spec field.
    test = _test_flags(required=True)
    family = _parent()
    family.add_argument("--family", choices=tuple(FAMILIES), help="distribution family")
    for tag, cls in FAMILIES.items():
        for f in fields(cls):
            default = "required" if f.default is MISSING else f"default {f.default:g}"
            family.add_argument(f"--{f.name}", type=float, help=f"{tag} {f.name} ({default})")
    geometry = _parent()
    geometry.add_argument("--window-length", type=int, help="spectrogram window length")
    geometry.add_argument("--beta", type=_beta, help="Kaiser beta (default 5)")
    geometry.add_argument("--overlap", type=int, help="window overlap (default 0)")
    geometry.add_argument("--sample-rate", type=_sample_rate, help="CSV or simulated rate, Hz")
    signal = _parent()
    signal.add_argument("--input", required=True, help="CSV sample or signal (binary or CSV)")
    band = _parent()
    band.add_argument("--f-min", type=float, help="band lower edge, Hz")
    band.add_argument("--f-max", type=float, help="band upper edge, Hz")
    study = _parent()
    study.add_argument("--seed", type=_seed, default=0, help="master seed in [0, 2**64)")
    reps = study.add_mutually_exclusive_group()
    reps.add_argument("--reps", type=int, help="replications (100000; power: 2000 per point)")
    reps.add_argument("--quick", action="store_true", default=None, help="10000 reps (power: 500)")

    p = sub.add_parser(
        "quantiles", parents=[family, study, geometry, band],
        help="build a Monte Carlo quantile table",
    )
    p.add_argument("--n", help="comma list of sample sizes (raw domain)")
    p.add_argument("--c", default="0.05", help="comma list of levels (default 0.05)")
    p.add_argument("--side", choices=("lower", "upper", "both"), default="both")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument(
        "--domain",
        choices=("raw", "spectrogram"),
        default="raw",
        help="simulate plain samples, or rows of a spectrogram",
    )
    p.add_argument("--signal-length", type=int, help="simulated signal length")
    p.add_argument("--signals", type=int, help="simulated signals to pool (default 100)")
    p.set_defaults(func=_cmd_quantiles)

    p = sub.add_parser("test", parents=[family, test, signal], help="test one CSV sample")
    p.add_argument("--out", help="write the outcome JSON here instead of stdout")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser(
        "power", parents=[family, test, study], help="rejection-rate study over a parameter grid"
    )
    p.add_argument(
        "--data-family",
        required=True,
        choices=tuple(FAMILIES),
        help="family the data is drawn from",
    )
    p.add_argument("--grid", required=True, help="start:step:stop or comma list")
    p.add_argument("--n", required=True, help="comma list of sample sizes")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "analyze", parents=[family, _test_flags(default="mg2"), signal, geometry, band],
        help="screen a long signal for heavy tails",
    )
    p.add_argument("--mode", choices=("time", "tf"), default="time")
    p.add_argument("--segment-length", type=int, help="time mode segment length (default 1000)")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "spectrogram", parents=[signal, geometry], help="compute and store a spectrogram matrix"
    )
    p.add_argument("--out", required=True, help="output .npy path for the matrix")
    p.set_defaults(func=_cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (_UsageError, TableCoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
