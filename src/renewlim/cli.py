"""Command-line harness wiring the modules into reproducible experiments.

Every command accepts ``--config PATH`` pointing at a JSON object whose keys
mirror the long flag names (dashes as underscores); explicit flags override
file values.  One table per command lists its options, and ``resolve``
checks a value from the file with the same validator as the flag's string.
All floats are printed with 17 significant digits so output is
byte-reproducible.  The worker count is the RL_THREADS env var, else the
available parallelism; it is no option, since it never changes numeric
output.

Exit codes: 0 success, 1 invariant/acceptance failure, 2 usage/config error,
each error on one ``error: ...`` line of stderr.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import re
import sys
from collections.abc import Callable, Iterator
from dataclasses import astuple, dataclass, replace

from . import distributions, limits, oracle, renewal, scaling, subordinator
from .errors import ConfigError, RenewlimError

_METHODS = ("closed", "quadrature", "mc")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_field(value) -> str:
    return str(value) if isinstance(value, int) else _fmt(value)


# ---------------------------------------------------------------------------
# validators: each takes a flag's string or a JSON value from --config and
# returns the checked value, or raises ValueError with a message that
# ``resolve`` prefixes with the field name
# ---------------------------------------------------------------------------


def _number(kind: type) -> Callable[[object], float]:
    """A validator for ``kind``, int or float, taking a numeric string or a
    JSON number.  Booleans are not numbers, and an int field does not take
    a float, so 10.7 is not truncated."""
    accepted = (str, int, float) if kind is float else (str, int)

    def check(raw):
        if isinstance(raw, accepted) and not isinstance(raw, bool):
            try:
                return kind(raw)
            except (ValueError, OverflowError):
                pass
        raise ValueError(f"expected {kind.__name__}, got {raw!r}")

    return check


_real, _integer = _number(float), _number(int)


def _positive(raw) -> float:
    value = _real(raw)
    if not value > 0:
        raise ValueError(f"must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"must be finite, got {value}")
    return value


def _at_least(low: int) -> Callable[[object], int]:
    def check(raw) -> int:
        value = _integer(raw)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return check


def _text(raw) -> str:
    """A spec or a path: a flag's string or a JSON string, nothing else."""
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {raw!r}")
    return raw


def _one_of(choices: tuple[str, ...]) -> Callable[[object], str]:
    def check(raw) -> str:
        value = str(raw).strip().lower()
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")
        return value

    return check


def _methods(raw) -> list[str]:
    """A comma list or a nonempty JSON array of moment routes, each kept once, in order."""
    items = raw if isinstance(raw, list) and raw else str(raw).split(",")
    return list(dict.fromkeys(map(_one_of(_METHODS), items)))


def _s_grid(raw) -> tuple:
    """Levels from a comma list, a JSON array or one number; the grid itself
    is checked by ``renewal.convergence_table``."""
    if isinstance(raw, str):
        raw = [p for p in raw.split(",") if p.strip()]
    return tuple(map(_real, raw if isinstance(raw, list) else [raw]))


# ---------------------------------------------------------------------------
# command tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """One row of a command table.

    The first flag names the config key (dashes as underscores); later flags
    are aliases.  ``check`` validates a flag's string and a config value
    alike.  An option given by neither resolves to ``default``, or fails
    when it is ``required``.
    """

    flags: tuple[str, ...]
    check: Callable[[object], object]
    default: object = None
    required: bool = False
    help: str | None = None

    @property
    def key(self) -> str:
        return self.flags[0][2:].replace("-", "_")


_CASE = Option(
    ("--case",), _one_of(distributions.CASES), required=True, help=",".join(distributions.CASES)
)
_LEVEL = Option(("--s",), _positive, required=True, help="level s")
_REPS = Option(("--reps",), _at_least(2), required=True, help="replications")
_SEED = Option(("--seed",), _at_least(0), required=True, help="master seed")
_DIST = Option(("--dist",), _text, help="inter-arrival spec, e.g. exp:1.0")
_SUB = Option(("--sub",), _text, help="subordinator spec, e.g. cp:rate=1.0,jump=exp:1.0")
_CSV = Option(("--csv",), _text, help="output path; stdout when omitted")

TABLES: dict[str, tuple[Option, ...]] = {
    "moment": (
        Option(("--alpha",), _positive, required=True, help="stable index in (1, 2)"),
        Option(("--r",), _positive, required=True, help="moment order"),
        Option(("--n",), _at_least(1), default=10**5, help="sample count for --method mc"),
        Option(("--seed",), _at_least(0), default=0, help="master seed for --method mc"),
        Option(("--tol",), _positive, default=1e-9, help="absolute error bound of quadrature"),
        Option(("--method",), _methods, default=("closed",), help="e.g. closed,quadrature,mc"),
    ),
    "limit": (
        _CASE,
        Option(("--mu", "--m"), _positive, required=True, help="mean inter-arrival time, or m"),
        Option(("--sigma", "--b"), _real, help="standard deviation, or b (cases a1/b1)"),
        Option(("--alpha",), _real, help="tail index (cases a3/b3)"),
    ),
    "scaling": (
        Option(("--alpha",), _positive, required=True, help="regular-variation index"),
        Option(("--ell",), _text, required=True, help="slowly varying spec, e.g. const:1.0"),
        Option(("--x",), _positive, required=True, help="point at which c(x) is solved"),
        Option(("--tol",), _positive, default=scaling.DEFAULT_RESIDUAL_TOL, help="residual bound"),
    ),
    "simulate renewal": (replace(_DIST, required=True), _LEVEL, _REPS, _SEED, _CSV),
    "simulate passage": (replace(_SUB, required=True), _LEVEL, _REPS, _SEED, _CSV),
    "converge": (
        Option(("--side",), _one_of(("renewal", "passage")), required=True, help="renewal|passage"),
        _CASE,
        _DIST,
        _SUB,
        Option(("--ell",), _text, help="slowly varying spec for c(s) (cases a2/a3/b2/b3)"),
        Option(("--s-grid",), _s_grid, required=True, help="comma list of increasing levels"),
        _REPS,
        _SEED,
        replace(_CSV, required=True, help="output path"),
    ),
    "selfcheck": (Option(("--seed",), _at_least(0), default=20240801, help="master seed"),),
}


def resolve(command: str, args: argparse.Namespace, config: dict) -> dict:
    """The checked value of every option of ``command``: the flag's value,
    else the config file's, else the default.  Unknown config keys, missing
    required options and values failing their row's validator raise
    ConfigError."""
    table = TABLES[command]
    unknown = set(config) - {opt.key for opt in table}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown config key for this command")
    resolved = {}
    for opt in table:
        raw = getattr(args, opt.key)
        if raw is None:
            raw = config.get(opt.key)
        if raw is None and opt.required:
            raise ConfigError(f"{opt.key}: required but not supplied")
        try:
            resolved[opt.key] = opt.default if raw is None else opt.check(raw)
        except ValueError as exc:
            raise ConfigError(f"{opt.key}: {exc}") from None
    return resolved


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import json  # here, so a call with no config file skips its import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path!r}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path!r} is not UTF-8: {exc.reason}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config: top level of {path!r} must be a JSON object")
    return data


def _write_csv(path: str | None, header: str, rows) -> None:
    """The header, then one line per row: ints as they are, floats to 17
    significant digits; to stdout when ``path`` is None.  The file is opened
    only here, once every row is known, so a failed run leaves none."""
    lines = [header] + [",".join(map(_csv_field, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"csv: cannot write {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_moment(cfg: dict) -> int:
    alpha, r = cfg["alpha"], cfg["r"]
    routes = {
        "closed": lambda: limits.stable_abs_moment(alpha, r),
        "quadrature": lambda: limits.stable_abs_moment_quadrature(alpha, r, cfg["tol"]),
        "mc": lambda: limits.stable_abs_moment_mc(alpha, r, cfg["n"], cfg["seed"]).mean,
    }
    values = {method: routes[method]() for method in cfg["method"]}
    for method, value in values.items():
        print(f"{method} {_fmt(value)}")
    for ma, mb in itertools.combinations(values, 2):
        ref = values[ma]
        rel = abs(values[ma] - values[mb]) / abs(ref) if ref else math.inf
        print(f"rel_discrepancy {ma}/{mb} {_fmt(rel)}")
    return 0


def _cmd_limit(cfg: dict) -> int:
    value = limits.limit_constant(
        distributions.LimitCase(cfg["case"], cfg["mu"], sigma=cfg["sigma"], alpha=cfg["alpha"])
    )
    print(_fmt(value))
    return 0


def _cmd_scaling(cfg: dict) -> int:
    ell = scaling.parse_slowly_varying(cfg["ell"])
    alpha, x = cfg["alpha"], cfg["x"]
    c = scaling.solve_c(alpha, ell, x, cfg["tol"])
    residual = x * ell(c) / c**alpha - 1.0
    print(f"c {_fmt(c)}")
    print(f"residual {_fmt(residual)}")
    return 0


def _cmd_simulate_renewal(cfg: dict) -> int:
    spec = distributions.parse_interarrival(cfg["dist"])
    est = renewal.renewal_estimates(spec, cfg["s"], cfg["reps"], cfg["seed"])
    dev, over = est.deviation, est.overshoot
    row = (cfg["s"], cfg["reps"], cfg["seed"], dev.mean, dev.std_error, over.mean, over.std_error)
    header = "s,n_reps,seed,estimate,stderr,overshoot_mean,overshoot_stderr,wald_residual"
    _write_csv(cfg["csv"], header, [(*row, est.wald)])
    return 0


def _cmd_simulate_passage(cfg: dict) -> int:
    spec = subordinator.parse_subordinator(cfg["sub"])
    dev, violations = subordinator.mc_passage(spec, cfg["s"], cfg["reps"], cfg["seed"])
    row = (cfg["s"], cfg["reps"], cfg["seed"], dev.mean, dev.std_error, violations)
    header = "s,n_reps,seed,estimate,stderr,coupling_violation_fraction"
    _write_csv(cfg["csv"], header, [row])
    return 0


def _cmd_converge(cfg: dict) -> int:
    # the side picks which spec option is read; the other one may not be given
    if cfg["side"] == "renewal":
        spec_key, other, parse = "dist", "sub", distributions.parse_interarrival
    else:
        spec_key, other, parse = "sub", "dist", subordinator.parse_subordinator
    if cfg[other] is not None:
        raise ConfigError(f"{other}: not read by --side {cfg['side']}")
    if cfg[spec_key] is None:
        raise ConfigError(f"{spec_key}: required but not supplied")
    ell = scaling.parse_slowly_varying(cfg["ell"]) if cfg["ell"] is not None else None
    spec = parse(cfg[spec_key])
    rows = renewal.convergence_table(spec, cfg["case"], ell, cfg["s_grid"], cfg["reps"], cfg["seed"])
    # the fields of a row are the CSV columns, in order
    _write_csv(cfg["csv"], renewal.CSV_HEADER, map(astuple, rows))
    return 0


@dataclass(frozen=True)
class Check:
    """One verdict of ``selfcheck``; ``z`` is the statistic of a studentised
    gate, None for the other checks."""

    name: str
    ok: bool
    detail: str
    z: float | None = None


def _z_check(name: str, z: float, label: str) -> Check:
    """The verdict of a studentised gate: it passes when |z| <= 4."""
    return Check(name, abs(z) <= 4.0, f"{label} {_fmt(z)}", z)


def selfcheck(seed: int) -> Iterator[Check]:
    """The built-in oracle and invariant checks at master seed ``seed``,
    each yielded as soon as it is decided."""
    # closed form vs quadrature across the (alpha, r) grid
    worst = 0.0
    for alpha in (1.1, 1.5, 1.9):
        for r in (0.25, 0.5, 1.0):
            closed = limits.stable_abs_moment(alpha, r)
            quad = limits.stable_abs_moment_quadrature(alpha, r, tol=1e-9)
            worst = max(worst, abs(closed - quad) / closed)
    yield Check("moment-closed-vs-quadrature", worst <= 1e-6, f"max rel diff {_fmt(worst)}")

    # Monte Carlo side of the triangle at alpha = 1.5, r = 0.5
    mc = limits.stable_abs_moment_mc(1.5, 0.5, 200_000, seed)
    z = abs(mc.mean - limits.stable_abs_moment(1.5, 0.5)) / mc.std_error
    yield _z_check("moment-monte-carlo", z, "|z| =")

    # coupling invariant on exact paths
    for spec_text in ("cp:rate=1.0,jump=exp:1.0", "cp:rate=5.0,jump=pareto:1.5,1.0"):
        spec = subordinator.parse_subordinator(spec_text)
        frac = subordinator.mc_passage(spec, 100.0, 2000, seed)[1]
        yield Check(f"coupling[{spec_text}]", frac == 0.0, f"violation fraction {_fmt(frac)}")

    # coupled studentized residual of the stopping identity; the exp:1.0
    # replications also feed the Poisson oracle check below
    estimates = {}
    for dist_text in ("exp:1.0", "pareto:1.5,1.0"):
        spec = distributions.parse_interarrival(dist_text)
        estimates[dist_text] = renewal.renewal_estimates(spec, 100.0, 20_000, seed)
        yield _z_check(f"wald[{dist_text}]", estimates[dist_text].wald, "residual")

    # exact Poisson oracle vs Monte Carlo and vs its own asymptote
    exact = oracle.exact_abs_deviation_poisson(100.0)
    est = estimates["exp:1.0"].deviation
    yield _z_check("poisson-oracle-vs-mc", abs(est.mean - exact) / est.std_error, "|z| =")
    asym = oracle.exact_abs_deviation_poisson(1e4) / math.sqrt(1e4)
    target = math.sqrt(2.0 / math.pi)
    ok = abs(asym / target - 1.0) <= 0.01
    yield Check("poisson-oracle-asymptote", ok, f"value {_fmt(asym)} vs {_fmt(target)}")

    # scaling solver residual invariant
    ell = scaling.LogShifted(2.0, math.e)
    bad = 0
    for x in (1e4, 1e6, 1e8):
        c = scaling.solve_c(2.0, ell, x)
        if abs(x * ell(c) / c**2 - 1.0) > 1e-10:
            bad += 1
    yield Check("scaling-residual", bad == 0, f"{bad} residual violations")


def _cmd_selfcheck(cfg: dict) -> int:
    failures = 0
    for check in selfcheck(cfg["seed"]):
        failures += not check.ok
        print(f"{'ok' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

#: (help, body) per command; a two-word name is a subcommand of the first word
COMMANDS: dict[str, tuple[str, Callable[[dict], int]]] = {
    "moment": ("fractional absolute moment of the stable limit law", _cmd_moment),
    "limit": ("print the limit constant for a convergence case", _cmd_limit),
    "scaling": ("solve the scaling-function equation at one point", _cmd_scaling),
    "simulate renewal": ("renewal counting process at level s", _cmd_simulate_renewal),
    "simulate passage": ("subordinator first passage of level s", _cmd_simulate_passage),
    "converge": ("convergence table against the case limit", _cmd_converge),
    "selfcheck": ("run the built-in oracle and invariant checks", _cmd_selfcheck),
}
_GROUP_HELP = {"simulate": "Monte Carlo simulation runs"}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (an unknown flag, a missing
    subcommand or flag value) raise ConfigError, so ``run`` prints them on
    one line like any other bad input; subparsers inherit the class.

    Every option but -h is a long flag, so a word with one leading dash is
    a value: ``--x -inf`` and ``--x -1e5`` reach the validator as ``--x=-inf``
    does, where argparse would take them for unknown flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # after -h is added: argparse reads a word this matches as a value
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argparse front end of ``TABLES``: every option is a plain string
    here, and ``resolve`` checks it."""
    parser = _Parser(
        prog="renewlim",
        description="Simulation and numerical verification toolkit for renewal "
        "counting and subordinator first-passage limit behaviour.",
    )
    # the metavars name the choices, not the dest, in a missing-subcommand error
    words = dict.fromkeys(name.split()[0] for name in COMMANDS)
    sub = parser.add_subparsers(dest="command", metavar="|".join(words), required=True)
    groups = {}
    for name, (help_text, _) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            p = sub.add_parser(group, help=_GROUP_HELP[group])
            leaves = [n.split()[1] for n in COMMANDS if n.startswith(group + " ")]
            groups[group] = p.add_subparsers(dest="target", metavar="|".join(leaves), required=True)
        p = (groups[group] if group else sub).add_parser(leaf, help=help_text)
        for opt in TABLES[name]:
            p.add_argument(*opt.flags, dest=opt.key, help=opt.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.set_defaults(command_name=name)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve(args.command_name, args, _load_config(args.config))
        return COMMANDS[args.command_name][1](cfg)
    except RenewlimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # failed checks (InvariantError, NoBracketError, ToleranceNotMetError)
        # are RuntimeErrors and exit 1; bad input is a ValueError and exits 2
        return 1 if isinstance(exc, RuntimeError) else 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)


def main() -> None:
    code = run(sys.argv[1:])
    # what is left dies with the process: frozen, it spares the interpreter's
    # shutdown collections a walk over numpy's and renewlim's objects
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
