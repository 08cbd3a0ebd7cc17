"""Command-line interface.

Subcommands
-----------
quantiles    build a Monte Carlo quantile table (raw or spectrogram domain)
test         run one test on a single sample read from CSV
power        run a rejection-rate study over a parameter grid
analyze      screen a long signal, segment-wise or through a spectrogram
spectrogram  compute and store a spectrogram matrix

Exit codes: 0 success, 1 runtime failure (unreadable or invalid input data,
or not enough memory for the requested sizes), 2 argument error (bad flags,
insufficient replications, missing table coverage).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from .critical import (
    QuantileTable,
    TableCoverageError,
    TableRequest,
    atomic_open,
    build_quantile_table,
    write_json,
)
from .distributions import FAMILIES, DistributionSpec
from .power import PowerStudyConfig, export_curve, run_power_study
from .rng import RngStream
from .signal import (
    batch_test,
    build_spectrogram_quantile_table,
    frequency_rows,
    kaiser_window,
    read_csv_column,
    read_signal,
    segment_signal,
    spectrogram,
    spectrogram_null_params,
)
from .testing import BASELINE_KINDS, MG_KINDS, TestSpec, null_for, run_test

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


def _seed(text: str) -> int:
    """``--seed``: an integer in ``[0, 2**64)``, the range of a Philox key word."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {seed}")
    return seed


def _sample_rate(text: str) -> float:
    """``--sample-rate``: a finite positive number of Hz."""
    try:
        rate = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (rate > 0 and math.isfinite(rate)):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return rate


def _beta(text: str) -> float:
    """``--beta``: a Kaiser shape that :func:`~greenwood.signal.kaiser_window` accepts."""
    try:
        beta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    try:
        kaiser_window(2, beta)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return beta


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"expected a comma-separated list of integers, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"expected a comma-separated list of numbers, got {text!r}")


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
    return _parse_float_list(text)


def _spec_from_args(args) -> DistributionSpec:
    """The ``--family`` spec, each parameter read from the flag of its name."""
    if args.family is None:
        raise _UsageError("--family is required here")
    cls = FAMILIES[args.family]
    params = {f.name: getattr(args, f.name) for f in fields(cls)}
    for name, value in params.items():
        if value is None:
            raise _UsageError(f"--{name} is required for the {args.family} family")
    with _flag_values():
        return cls(**params)


def _add_family_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    # one flag per spec field, same name; a field without a default defaults to None
    parser.add_argument(
        "--family", choices=tuple(FAMILIES), required=required, help="distribution family"
    )
    parser.add_argument("--mu", type=float, default=0.0, help="gaussian mean")
    parser.add_argument("--sigma2", type=float, default=1.0, help="gaussian variance")
    parser.add_argument("--alpha", type=float, help="stable tail index in (0, 2]")
    parser.add_argument("--sigma", type=float, default=1.0, help="stable scale")
    parser.add_argument(
        "--nu", type=float, help="student t degrees of freedom (integer or 'inf')"
    )
    parser.add_argument("--gamma", type=float, help="gpd shape")
    parser.add_argument("--delta", type=float, default=1.0, help="gpd scale")


def _load_table(path) -> QuantileTable:
    try:
        return QuantileTable.load(path)
    except ValueError as exc:
        raise ValueError(f"cannot parse quantile table {path}: {exc}")


def _test_spec(args) -> TestSpec:
    """The ``--kind`` test at level ``--c`` with its ``--table`` and null.

    The null is the kind's fixed one, or the ``--family`` spec for a kind
    without one; the baselines record none.
    """
    table = _load_table(args.table) if args.table else None
    if args.kind in MG_KINDS and table is None:
        raise _UsageError(f"--table is required for kind {args.kind}")
    null = None
    if args.kind in MG_KINDS:
        null = null_for(args.kind) or _spec_from_args(args)
    with _flag_values():
        return TestSpec(kind=args.kind, c=args.c, table=table, null_spec=null)


def _spectrogram(sig, args):
    """Spectrogram of ``sig`` under the ``--window-length/--beta/--overlap`` geometry."""
    with _flag_values():  # the geometry is all flags, and must fit the signal
        return spectrogram(sig, kaiser_window(args.window_length, args.beta), args.overlap)


def _write_or_print(doc: dict, out: str | None) -> None:
    if out:
        write_json(out, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# subcommands


def _cmd_quantiles(args) -> int:
    reps = 10000 if args.quick else args.reps
    if reps < 1000:
        raise _UsageError(f"--reps must be at least 1000 (got {reps})")
    spec = _spec_from_args(args)
    cs = _parse_float_list(args.c)
    if not cs:
        raise _UsageError("--c must list at least one level")
    sides = ("lower", "upper") if args.side == "both" else (args.side,)
    rng = RngStream(args.seed)

    if args.domain == "spectrogram":
        if args.n is not None:
            raise _UsageError(
                "--n applies to the raw domain only; spectrogram entries take n "
                "from --signal-length and --window-length"
            )
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
                args.sample_rate,
            )
    else:
        if args.window_length is not None or args.signal_length is not None:
            flag = "--window-length" if args.window_length is not None else "--signal-length"
            raise _UsageError(f"{flag} applies to the spectrogram domain only")
        ns = _parse_int_list(args.n) if args.n else []
        if not ns:
            raise _UsageError("--n must list at least one sample size")
        with _flag_values():
            requests = [
                TableRequest(spec, n, c, side) for n in ns for c in cs for side in sides
            ]
        table = build_quantile_table(requests, reps, rng)
    table.save(args.out)
    print(f"wrote {len(table)} entries to {args.out}")
    return 0


def _cmd_test(args) -> int:
    spec = _test_spec(args)
    outcome = run_test(spec, read_csv_column(args.input))
    _write_or_print(outcome.to_json_dict(), args.out)
    return 0


def _cmd_power(args) -> int:
    reps = 500 if args.quick else args.reps
    spec = _test_spec(args)
    grid = _parse_grid(args.grid)
    if not grid:
        raise _UsageError("parameter grid is empty")
    ns = _parse_int_list(args.n)
    with _flag_values():
        config = PowerStudyConfig(
            test=spec,
            data_family=args.data_family,
            parameter_grid=tuple(grid),
            sample_sizes=tuple(ns),
            replications=reps,
            master_seed=args.seed,
        )
    curve = run_power_study(config)
    export_curve(curve, args.out)
    print(f"wrote {len(curve.points)} rows to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    spec = _test_spec(args)
    sig = read_signal(args.input, args.sample_rate)

    if args.mode == "time":
        with _flag_values():  # the segment length must fit the signal
            segments = segment_signal(sig, args.segment_length)
        report = batch_test(segments, spec, domain="time")
    else:
        if args.kind not in MG_KINDS:
            raise _UsageError("time-frequency mode supports the mg test kinds only")
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
        extra = spectrogram_null_params(
            spec.null_spec, args.window_length, args.beta, args.overlap, len(sig)
        )
        spec = replace(spec, extra_params=extra)
        sp = _spectrogram(sig, args)
        rows = frequency_rows(sp, args.f_min, args.f_max)
        report = batch_test(
            [r for _, r in rows],
            spec,
            domain="time-frequency",
            labels=[f for f, _ in rows],
        )

    _write_or_print(report.to_json_dict(), args.out)
    print(
        f"{report.domain}: {len(report.outcomes)} units, "
        f"{report.rejection_percentage:.2f}% rejected at c={args.c}",
        file=sys.stderr,
    )
    return 0


def _cmd_spectrogram(args) -> int:
    sig = read_signal(args.input, args.sample_rate)
    sp = _spectrogram(sig, args)
    # the name np.save would give the file
    target = args.out if args.out.endswith(".npy") else args.out + ".npy"
    with atomic_open(target, "wb") as fh:
        np.save(fh, sp.magnitude_squared)
    meta = {
        "shape": list(sp.magnitude_squared.shape),
        "frequency_step_hz": float(sp.frequencies[1] - sp.frequencies[0])
        if sp.frequencies.size > 1
        else 0.0,
        "frame_count": int(sp.times.size),
        "window_length": int(sp.window.size),
        "beta": args.beta,
        "overlap": args.overlap,
        "sample_rate": sig.sample_rate,
        "matrix_file": target,
    }
    print(json.dumps(meta, indent=2, sort_keys=True))
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenwood",
        description="Heavy-tail testing with the modified Greenwood statistic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantiles", help="build a Monte Carlo quantile table")
    _add_family_flags(p, required=True)
    p.add_argument("--n", help="comma list of sample sizes (raw domain)")
    p.add_argument("--c", default="0.05", help="comma list of levels (default 0.05)")
    p.add_argument("--side", choices=("lower", "upper", "both"), default="both")
    p.add_argument("--reps", type=int, default=100000, help="replications (min 1000)")
    p.add_argument("--seed", type=_seed, default=0, help="master seed in [0, 2**64)")
    p.add_argument("--quick", action="store_true", help="drop replications to 10000")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument(
        "--domain",
        choices=("raw", "spectrogram"),
        default="raw",
        help="simulate plain samples, or rows of a spectrogram",
    )
    p.add_argument("--window-length", type=int, help="spectrogram window length")
    p.add_argument("--beta", type=_beta, default=5.0, help="Kaiser beta (default 5)")
    p.add_argument("--overlap", type=int, default=0, help="window overlap (default 0)")
    p.add_argument("--signal-length", type=int, help="simulated signal length")
    p.add_argument(
        "--signals", type=int, default=100, help="simulated signals to pool (default 100)"
    )
    p.add_argument("--f-min", type=float, help="band lower edge, Hz")
    p.add_argument("--f-max", type=float, help="band upper edge, Hz")
    p.add_argument("--sample-rate", type=_sample_rate, default=1.0, help="simulated rate, Hz")
    p.set_defaults(func=_cmd_quantiles)

    p = sub.add_parser("test", help="test one sample from a single-column CSV")
    _add_family_flags(p)
    p.add_argument("--input", required=True, help="sample file (one number per line)")
    p.add_argument("--kind", required=True, choices=MG_KINDS + BASELINE_KINDS)
    p.add_argument("--table", help="quantile table JSON (required for mg kinds)")
    p.add_argument("--c", type=float, default=0.05, help="level (default 0.05)")
    p.add_argument("--out", help="write the outcome JSON here instead of stdout")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("power", help="rejection-rate study over a parameter grid")
    _add_family_flags(p)
    p.add_argument("--kind", required=True, choices=MG_KINDS + BASELINE_KINDS)
    p.add_argument("--table", help="quantile table JSON (required for mg kinds)")
    p.add_argument(
        "--data-family",
        required=True,
        choices=tuple(FAMILIES),
        help="family the data is drawn from",
    )
    p.add_argument("--grid", required=True, help="start:step:stop or comma list")
    p.add_argument("--n", required=True, help="comma list of sample sizes")
    p.add_argument("--c", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=2000, help="replications per point")
    p.add_argument("--seed", type=_seed, default=0, help="master seed in [0, 2**64)")
    p.add_argument("--quick", action="store_true", help="drop replications to 500")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("analyze", help="screen a long signal for heavy tails")
    _add_family_flags(p)
    p.add_argument("--input", required=True, help="signal file (binary or CSV)")
    p.add_argument("--mode", choices=("time", "tf"), default="time")
    p.add_argument("--kind", default="mg2", choices=MG_KINDS + BASELINE_KINDS)
    p.add_argument("--table", help="quantile table JSON (required for mg kinds)")
    p.add_argument("--c", type=float, default=0.05)
    p.add_argument(
        "--segment-length", type=int, default=1000, help="time mode segment length"
    )
    p.add_argument("--window-length", type=int, help="tf mode window length")
    p.add_argument("--beta", type=_beta, default=5.0, help="Kaiser beta (default 5)")
    p.add_argument("--overlap", type=int, default=0)
    p.add_argument("--f-min", type=float, help="band lower edge, Hz")
    p.add_argument("--f-max", type=float, help="band upper edge, Hz")
    p.add_argument("--sample-rate", type=_sample_rate, default=1.0, help="rate for CSV input")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrogram", help="compute and store a spectrogram matrix")
    p.add_argument("--input", required=True, help="signal file (binary or CSV)")
    p.add_argument("--window-length", type=int, required=True)
    p.add_argument("--beta", type=_beta, default=5.0, help="Kaiser beta (default 5)")
    p.add_argument("--overlap", type=int, default=0)
    p.add_argument("--sample-rate", type=_sample_rate, default=1.0, help="rate for CSV input")
    p.add_argument("--out", required=True, help="output .npy path for the matrix")
    p.set_defaults(func=_cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, TableCoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
