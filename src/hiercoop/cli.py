"""Command-line front end.

Four subcommands: analyze (one network size, full report), sweep (metric
rows across a size grid, CSV or JSON lines), verify (built-in oracle
suites), tradeoff (rank candidate (c0, R, Q) triples on one geometry).

Every option is declared once, in _OPTIONS, and can come from a flag or
from an INI config file (--config), with flags winning over the file and
the file over built-in defaults. A subcommand offers only the flags it
reads. The default rates R = Q = 1 are illustrative placeholders, not
measurements.

A command line whose first word names a subcommand is parsed once, by that
subcommand's parser; words it leaves over get the root parser's
"unrecognized arguments" error. Any other command line (-h, no subcommand,
an unknown one, or a flag before it) goes through the root parser.

Numbers are printed with 12 significant digits. Exit codes: 0 success,
1 verify failure, 2 configuration error, 3 domain or infeasibility error
(a float overflow counts as a domain error), 141 when the reader closed
stdout early, as a shell reports a process ended by SIGPIPE.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, NamedTuple

from .area import c0_tradeoff, classify
from .errors import DomainError, InfeasibleError, PlanError
from .explorer import compare_schemes, ratio_original
from .optimizer import layer_choice
from .params import MAX_LAYERS, MIN_NODES, N_MAX, NetworkConfig, derive
from .throughput import (
    multihop_baseline,
    original_optimal_layers,
    original_throughput,
    smooth_modified,
    throughput_given_M1,
)

#: Column order of sweep output; the error column is last and usually empty.
SWEEP_COLUMNS = (
    "n",
    "T1_smooth",
    "T1_int",
    "T_orig",
    "multihop",
    "ratio",
    "ratio_log_adj",
    "per_pair",
    "area_factor",
    "error",
)

#: Most points a sweep grid may hold; bounds the work and memory of one sweep.
MAX_GRID_POINTS = 10_000


class ConfigError(ValueError):
    """Configuration is malformed or incomplete; maps to exit code 2."""


def _fmt(x: float) -> str:
    return "%.12g" % x


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_n(key: str, raw: str) -> int:
    n = _parse_int(key, raw)
    if n > N_MAX:
        raise ConfigError(f"{key}: network size must stay at or below 2**62, got {n}")
    return n


def _parse_depth(key: str, raw: str) -> int:
    h = _parse_int(key, raw)
    if not 2 <= h <= MAX_LAYERS:
        raise ConfigError(f"{key}: depth cap must lie in 2..{MAX_LAYERS}, got {h}")
    return h


def _parse_format(key: str, raw: str) -> str:
    # any format some subcommand prints; main checks the subcommand's own list
    known = sorted({fmt for _, _, formats in _COMMANDS.values() for fmt in formats})
    if raw not in known:
        raise ConfigError(f"{key}: expected {', '.join(known[:-1])} or {known[-1]}, got {raw!r}")
    return raw


def _parse_grid(key: str, raw: str) -> list[int]:
    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError(f"{key}: expected n_min:n_max:points:log|lin, got {raw!r}")
    n_min, n_max = _parse_n(key, parts[0]), _parse_n(key, parts[1])
    points = _parse_int(key, parts[2])
    spacing = parts[3]
    if spacing not in ("log", "lin"):
        raise ConfigError(f"{key}: spacing must be log or lin, got {spacing!r}")
    if not 1 <= points <= MAX_GRID_POINTS:
        raise ConfigError(f"{key}: points must lie in 1..{MAX_GRID_POINTS}, got {points}")
    if n_min > n_max:
        raise ConfigError(f"{key}: n_min must not exceed n_max, got {raw!r}")
    if points == 1:
        if n_min != n_max:
            raise ConfigError(f"{key}: a 1-point grid needs n_min == n_max")
        return [n_min]
    if spacing == "log" and n_min < 1:
        raise ConfigError(f"{key}: log spacing needs n_min >= 1")
    # exact ends; lin points in integers, interior log points clamped into range
    last = points - 1
    if spacing == "lin":
        grid = [n_min + (n_max - n_min) * i // last for i in range(points)]
    else:
        ratio, grid = n_max / n_min, [n_min]
        for i in range(1, last):
            n = round(n_min * ratio ** (i / last))
            grid.append(n_min if n < n_min else n_max if n > n_max else n)
        grid.append(n_max)
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ConfigError(
                f"{key}: grid rounds to duplicate points near {a}; "
                f"use fewer points or a wider range"
            )
    return grid


def _parse_candidates(key: str, raw: str) -> list[tuple[float, ...]]:
    items = [s.strip() for s in raw.replace("\n", ",").split(",") if s.strip()]
    triples = [item.split(":") for item in items]
    for item, parts in zip(items, triples):
        if len(parts) != 3:
            raise ConfigError(f"{key}: expected c0:R:Q, got {item!r}")
    return [tuple(_parse_float(key, p) for p in parts) for parts in triples]


class _Option(NamedTuple):
    """One option: its config file section, the parser that turns a raw flag or
    file string into its value, the subcommands that read it (only they offer
    the flag), help text, default (None: unset), and, for a repeatable flag
    whose values join with commas, the flag's name.
    """

    section: str
    parse: Callable[[str, str], object]
    commands: tuple[str, ...]
    help: str
    default: object = None
    flag: str | None = None


#: subcommand names, abbreviated for the option table
_A, _S, _V, _T = "analyze", "sweep", "verify", "tradeoff"

#: config key -> its one declaration; drives argparse, the config file reader
#: and the merge of the two.
_OPTIONS: dict[str, _Option] = {
    "rate-r": _Option("params", _parse_float, (_A, _S, _V),
                      "long-range transmission rate R; the default is illustrative", 1.0),
    "rate-q": _Option("params", _parse_float, (_A, _S, _V),
                      "in-cluster exchange rate Q; the default is illustrative", 1.0),
    "n": _Option("network", _parse_n, (_A, _T), "network size in nodes, 4..2**62"),
    "area": _Option("network", _parse_float, (_A, _S, _T), "deployment area", 1.0),
    "alpha": _Option("network", _parse_float, (_A, _S, _T), "path-loss exponent", 3.0),
    "c0": _Option("network", _parse_float, (_A, _S), "dense/sparse threshold constant", 1.0),
    "grid": _Option("sweep", _parse_grid, (_S,), "sweep grid as n_min:n_max:points:log|lin"),
    "c-mh": _Option("options", _parse_float, (_A, _S), "multihop baseline constant"),
    "log-base": _Option("options", _parse_float, (_S,),
                        "base for the log-adjusted ratio", 10.0),
    "nu": _Option("options", _parse_float, (_S,), "grow area as n**nu across a sweep"),
    "h-max": _Option("options", _parse_depth, (_A,), f"depth search cap, 2..{MAX_LAYERS}"),
    "format": _Option("options", _parse_format, (_A, _S, _T),
                      "output format: text, csv or jsonl, as the subcommand offers"),
    "seed": _Option("options", _parse_int, (_V,), "seed for the verify suites", 0),
    "candidates": _Option("tradeoff", _parse_candidates, (_T,),
                          "candidate triple C0:R:Q; repeat for several; a value that "
                          "starts with '-' needs --candidate=C0:R:Q", flag="candidate"),
}


def _load_config(path: str) -> dict[str, object]:
    import configparser  # deferred: only --config reads a file

    # no interpolation: a value is its literal text, so "1%" fails as a number
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    values: dict[str, object] = {}
    sections = {opt.section for opt in _OPTIONS.values()}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            opt = _OPTIONS.get(key)
            if opt is None or opt.section != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = opt.parse(key, raw)
    return values


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser, and each subcommand's parser by name.

    Built once per process: a parse fills a fresh namespace each call and
    copies an append flag's list before extending it.
    """
    parser = argparse.ArgumentParser(
        prog="hiercoop",
        description="Throughput analysis of hierarchical cooperation schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (_, about, _) in _COMMANDS.items():
        commands[command] = sub.add_parser(command, help=about)
        g = commands[command].add_argument_group("options (flag > config file > default)")
        g.add_argument("--config", metavar="PATH", help="INI config file")
        for name, opt in _OPTIONS.items():
            if command not in opt.commands:
                continue
            text = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            if opt.flag is None:
                g.add_argument(f"--{name}", dest=name, help=text)
            else:
                g.add_argument(
                    f"--{opt.flag}", dest=name, action="append", metavar=opt.flag.upper(),
                    help=text,
                )
    return parser, commands


def _merge(args: argparse.Namespace) -> dict[str, object]:
    # file values of options the subcommand does not read are parsed, then dropped
    values = {} if args.config is None else _load_config(args.config)
    cfg = {}
    for name, opt in _OPTIONS.items():
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = opt.parse(name, raw if opt.flag is None else ",".join(raw))
        read = args.command in opt.commands
        cfg[name] = values.get(name, opt.default) if read else opt.default
    return cfg


def _network(cfg: dict[str, object], n: int) -> NetworkConfig:
    try:
        return NetworkConfig(
            n=n, area=cfg["area"], alpha=cfg["alpha"], c0=cfg["c0"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _emit(records: list[dict[str, object]], fmt: str) -> None:
    """Print records as text (key = value lines), csv (header, then rows) or jsonl.

    Floats print with 12 significant digits, None as none, an empty cell or
    null. A non-finite float raises DomainError before anything is printed.
    """
    for record in records:
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{key} is not finite: {value}")
    if fmt == "jsonl":
        import json  # deferred: keeps the import off every text and csv run

        for record in records:
            rounded = {
                k: float(_fmt(v)) if isinstance(v, float) else v for k, v in record.items()
            }
            print(json.dumps(rounded, allow_nan=False))
    elif fmt == "csv":
        import csv  # deferred: keeps the import off every text and jsonl run

        # csv writes None as an empty cell
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(records[0])
        for record in records:
            writer.writerow(_fmt(v) if isinstance(v, float) else v for v in record.values())
    else:
        for record in records:
            for key, value in record.items():
                if isinstance(value, float):
                    value = _fmt(value)
                print(f"{key} = {'none' if value is None else value}")


def _cmd_analyze(cfg: dict[str, object]) -> int:
    if cfg["n"] is None:
        raise ConfigError("analyze needs a network size; pass --n")
    params = derive(cfg["rate-r"], cfg["rate-q"])
    network = _network(cfg, cfg["n"])
    n = network.n
    regime = classify(network)
    record: dict[str, object] = {
        "n": n,
        "R": params.R,
        "Q": params.Q,
        "beta1": params.beta1,
        "beta": params.beta,
        "c": params.c,
        "regime": regime.regime.value,
        "area_factor": regime.factor,
        # c0*n can overflow while the regime decision stands; report the
        # auxiliary margin as missing rather than fail the whole report
        "threshold": regime.threshold if math.isfinite(regime.threshold) else None,
    }
    choice = layer_choice(n, params, h_max=cfg["h-max"])
    smooth = smooth_modified(n, params)
    if choice is None:
        for key in ("h_exact", "h_approx", "h_int", "M1_int", "T1_int", "P1", "P2", "P3"):
            record[key] = None
    else:
        given = throughput_given_M1(choice.h_int, choice.M1, n, params)
        record.update(
            h_exact=choice.h_exact,
            h_approx=choice.h_approx,
            h_int=choice.h_int,
            M1_int=choice.M1,
            T1_int=choice.value,
            P1=given.phase_slots[0],
            P2=given.phase_slots[1],
            P3=given.phase_slots[2],
        )
    record.update(
        T1_smooth=smooth.value,
        T1_area=smooth.value * regime.factor,
        # per_pair_rate's quotient, from the report already at hand
        per_pair=smooth.value / n,
        h_orig=original_optimal_layers(n, params),
        T_orig=original_throughput(n, params),
        ratio=ratio_original(n, params),
    )
    if cfg["c-mh"] is not None:
        record["multihop"] = multihop_baseline(n, cfg["c-mh"])
    _emit([record], cfg["format"])
    return 0


def _cmd_sweep(cfg: dict[str, object]) -> int:
    if cfg["grid"] is None:
        raise ConfigError("sweep needs a grid; pass --grid n_min:n_max:points:log|lin")
    if cfg["c-mh"] is None:
        raise ConfigError("sweep needs the multihop constant; pass --c-mh")
    params = derive(cfg["rate-r"], cfg["rate-q"])
    base = _network(cfg, max(MIN_NODES, cfg["grid"][0]))
    rows = compare_schemes(
        cfg["grid"], base, params, cfg["c-mh"],
        log_base=cfg["log-base"], nu=cfg["nu"],
    )
    _emit(
        [
            {"n": row.n, **{col: row.extras.get(col) for col in SWEEP_COLUMNS[1:-1]},
             "error": row.error}
            for row in rows
        ],
        cfg["format"],
    )
    if all(row.error is not None for row in rows):
        print("sweep: every grid point failed", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(cfg: dict[str, object]) -> int:
    from .selfcheck import run_all  # deferred: only verify runs the suites

    params = derive(cfg["rate-r"], cfg["rate-q"])
    results = run_all(params, seed=cfg["seed"])
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"suite {r.name}: {status} cases={r.cases} "
            f"worst_rel_err={_fmt(r.worst_rel_err)} tol={_fmt(r.tolerance)}"
        )
    worst = max(r.worst_rel_err for r in results)
    print(f"worst_rel_err_overall={_fmt(worst)}")
    ok = all(r.passed for r in results)
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_tradeoff(cfg: dict[str, object]) -> int:
    if cfg["n"] is None:
        raise ConfigError("tradeoff needs a network size; pass --n")
    if not cfg["candidates"]:
        raise ConfigError(
            "tradeoff needs candidates; pass --candidate C0:R:Q (repeatable) "
            "or a [tradeoff] candidates line in the config file"
        )
    network = _network(cfg, cfg["n"])
    outcomes = c0_tradeoff(network, cfg["candidates"])
    if cfg["format"] == "jsonl":
        _emit(
            [{"rank": rank, **o._asdict()} for rank, o in enumerate(outcomes, start=1)],
            "jsonl",
        )
    else:
        for rank, o in enumerate(outcomes, start=1):
            head = f"{rank}. c0={_fmt(o.c0)} R={_fmt(o.R)} Q={_fmt(o.Q)}"
            if o.error is not None:
                print(f"{head} error: {o.error}")
            else:
                print(f"{head} value={_fmt(o.value)} area_factor={_fmt(o.area_factor)}")
    if all(o.error is not None for o in outcomes):
        print("tradeoff: every candidate failed", file=sys.stderr)
        return 3
    return 0


#: subcommand -> (handler, one-line help, output formats with the default first)
_COMMANDS: dict[str, tuple[Callable[[dict[str, object]], int], str, tuple[str, ...]]] = {
    _A: (_cmd_analyze, "full report for one network size", ("text", "jsonl")),
    _S: (_cmd_sweep, "metric rows across a size grid", ("csv", "jsonl")),
    _V: (_cmd_verify, "run the built-in oracle suites", ("text",)),
    _T: (_cmd_tradeoff, "rank candidate (c0, R, Q) triples", ("text", "jsonl")),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    # the root parser would scan such argv only to hand argv[1:] on to the
    # same subcommand parser, whose leftovers it then reports as below
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run, _, formats = _COMMANDS[args.command]
    try:
        cfg = _merge(args)
        fmt = cfg["format"] = cfg["format"] or formats[0]
        if fmt not in formats:
            raise ConfigError(f"{args.command} prints {' or '.join(formats)}, not {fmt}")
        code = run(cfg)
        sys.stdout.flush()  # a closed pipe fails here, inside the try, not at shutdown
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InfeasibleError, PlanError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); send what is still buffered
        # to devnull so the flush at shutdown stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
