"""Command-line harness wiring the modules into reproducible experiments.

Every command accepts ``--config PATH`` pointing at a JSON object whose keys
mirror the long flag names (dashes as underscores); explicit flags override
file values.  All floats are printed with 17 significant digits so output is
byte-reproducible, and the worker count (RL_THREADS env var, else
``--threads``, else available parallelism) never changes numeric output.

Exit codes: 0 success, 1 invariant/acceptance failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import distributions, limits, renewal, scaling, subordinator
from .errors import (
    ConfigError,
    InvariantError,
    NoBracketError,
    RenewlimError,
    SpecParseError,
    ToleranceNotMetError,
)
from .montecarlo import replication_rng, stream_base

_METHODS = ("closed", "quadrature", "mc")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(mapping: dict, field: str):
    if mapping.get(field) is None:
        raise ConfigError(f"{field}: required but not supplied")
    return mapping[field]


def _positive(mapping: dict, field: str, kind=float):
    value = _require(mapping, field)
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected {kind.__name__}, got {value!r}") from None
    if not value > 0:
        raise ConfigError(f"{field}: must be positive, got {value}")
    if value == math.inf:
        raise ConfigError(f"{field}: must be finite, got {value}")
    return value


def _case(mapping: dict) -> str:
    case = str(_require(mapping, "case")).strip().lower()
    if case not in limits.CASES:
        raise ConfigError(f"case: must be one of {limits.CASES}, got {case!r}")
    return case


def _seed(mapping: dict, field: str = "seed") -> int:
    value = _require(mapping, field)
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected integer, got {value!r}") from None
    if value < 0:
        raise ConfigError(f"{field}: must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class MomentConfig:
    alpha: float
    r: float
    method: str = "closed"
    n: int | None = None
    seed: int | None = None
    tol: float = 1e-9

    def methods(self) -> list[str]:
        out = []
        for token in str(self.method).split(","):
            token = token.strip().lower()
            if token not in _METHODS:
                raise ConfigError(f"method: must be from {_METHODS}, got {token!r}")
            if token not in out:
                out.append(token)
        if not out:
            raise ConfigError("method: at least one method required")
        return out


@dataclass(frozen=True)
class LimitConfig:
    case: str
    mu: float
    sigma: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class ScalingConfig:
    alpha: float
    ell: str
    x: float
    tol: float = scaling.DEFAULT_RESIDUAL_TOL


@dataclass(frozen=True)
class SimulateConfig:
    target: str  # "renewal" or "passage"
    spec: str  # distribution or subordinator spec string
    s: float
    reps: int
    seed: int
    csv: str | None = None
    threads: int | None = None


@dataclass(frozen=True)
class ConvergeConfig:
    side: str
    case: str
    spec: str
    s_grid: tuple
    reps: int
    seed: int
    csv: str
    ell: str | None = None
    threads: int | None = None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path!r}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config: top level of {path!r} must be a JSON object")
    return data


def _merge(args: argparse.Namespace, config: dict, keys: list[str]) -> dict:
    """Flags override config-file values; absent values stay None."""
    unknown = set(config) - set(keys)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown config key for this command")
    merged = {}
    for key in keys:
        cli_value = getattr(args, key, None)
        merged[key] = cli_value if cli_value is not None else config.get(key)
    return merged


def _write_csv(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_s_grid(raw) -> tuple:
    if raw is None:
        raise ConfigError("s_grid: required but not supplied")
    if isinstance(raw, str):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
    elif isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        raise ConfigError(f"s_grid: expected comma list or array, got {raw!r}")
    try:
        grid = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"s_grid: non-numeric entry in {raw!r}") from None
    if not grid:
        raise ConfigError("s_grid: must be nonempty")
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"s_grid: entries must be finite, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"s_grid: must be strictly increasing, got {grid}")
    return grid


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_moment(args: argparse.Namespace) -> int:
    mapping = _merge(args, _load_config(args.config), ["alpha", "r", "method", "n", "seed", "tol"])
    cfg = MomentConfig(
        alpha=_positive(mapping, "alpha"),
        r=_positive(mapping, "r"),
        method=mapping.get("method") or "closed",
        n=_positive(mapping, "n", kind=int) if mapping.get("n") is not None else None,
        seed=_seed(mapping) if mapping.get("seed") is not None else None,
        tol=_positive(mapping, "tol") if mapping.get("tol") is not None else 1e-9,
    )
    methods = cfg.methods()
    values: dict[str, float] = {}
    for method in methods:
        if method == "closed":
            values[method] = limits.stable_abs_moment(cfg.alpha, cfg.r)
        elif method == "quadrature":
            values[method] = limits.stable_abs_moment_quadrature(cfg.alpha, cfg.r, cfg.tol)
        else:
            n = cfg.n if cfg.n is not None else 10**5
            seed = cfg.seed if cfg.seed is not None else 0
            params = distributions.StableParams.from_alpha(cfg.alpha)
            draws = params.sample(replication_rng(stream_base(seed), 0), size=n)
            values[method] = float(
                sum(abs(float(w)) ** cfg.r for w in draws) / n
            )
    for method in methods:
        print(f"{method} {_fmt(values[method])}")
    for i, ma in enumerate(methods):
        for mb in methods[i + 1 :]:
            ref = values[ma]
            rel = abs(values[ma] - values[mb]) / abs(ref) if ref else math.inf
            print(f"rel_discrepancy {ma}/{mb} {_fmt(rel)}")
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    mapping = _merge(args, _load_config(args.config), ["case", "mu", "sigma", "alpha"])
    cfg = LimitConfig(
        case=_case(mapping),
        mu=_positive(mapping, "mu"),
        sigma=float(mapping["sigma"]) if mapping.get("sigma") is not None else None,
        alpha=float(mapping["alpha"]) if mapping.get("alpha") is not None else None,
    )
    value = limits.limit_constant(
        limits.LimitCase(cfg.case, cfg.mu, sigma=cfg.sigma, alpha=cfg.alpha)
    )
    print(_fmt(value))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    mapping = _merge(args, _load_config(args.config), ["alpha", "ell", "x", "tol"])
    cfg = ScalingConfig(
        alpha=_positive(mapping, "alpha"),
        ell=str(_require(mapping, "ell")),
        x=_positive(mapping, "x"),
        tol=_positive(mapping, "tol") if mapping.get("tol") is not None else scaling.DEFAULT_RESIDUAL_TOL,
    )
    ell = scaling.parse_slowly_varying(cfg.ell)
    c = scaling.solve_c(cfg.alpha, ell, cfg.x, cfg.tol)
    residual = cfg.x * ell(c) / c**cfg.alpha - 1.0
    print(f"c {_fmt(c)}")
    print(f"residual {_fmt(residual)}")
    return 0


def _simulate_config(args: argparse.Namespace, target: str, spec_flag: str) -> SimulateConfig:
    keys = [spec_flag, "s", "reps", "seed", "csv", "threads"]
    mapping = _merge(args, _load_config(args.config), keys)
    return SimulateConfig(
        target=target,
        spec=str(_require(mapping, spec_flag)),
        s=_positive(mapping, "s"),
        reps=int(_positive(mapping, "reps", kind=int)),
        seed=_seed(mapping),
        csv=mapping.get("csv"),
        threads=int(mapping["threads"]) if mapping.get("threads") is not None else None,
    )


def _cmd_simulate_renewal(args: argparse.Namespace) -> int:
    cfg = _simulate_config(args, "renewal", "dist")
    spec = distributions.parse_interarrival(cfg.spec)
    est = renewal.renewal_estimates(spec, cfg.s, cfg.reps, cfg.seed, cfg.threads)
    lines = [
        "s,n_reps,seed,estimate,stderr,overshoot_mean,overshoot_stderr,wald_residual",
        ",".join(
            [
                _fmt(cfg.s),
                str(cfg.reps),
                str(cfg.seed),
                _fmt(est.deviation.mean),
                _fmt(est.deviation.std_error),
                _fmt(est.overshoot.mean),
                _fmt(est.overshoot.std_error),
                _fmt(est.wald),
            ]
        ),
    ]
    _write_csv(cfg.csv, lines)
    return 0


def _cmd_simulate_passage(args: argparse.Namespace) -> int:
    cfg = _simulate_config(args, "passage", "sub")
    spec = subordinator.parse_subordinator(cfg.spec)
    dev, violations = subordinator.mc_passage(spec, cfg.s, cfg.reps, cfg.seed, cfg.threads)
    lines = [
        "s,n_reps,seed,estimate,stderr,coupling_violation_fraction",
        ",".join(
            [
                _fmt(cfg.s),
                str(cfg.reps),
                str(cfg.seed),
                _fmt(dev.mean),
                _fmt(dev.std_error),
                _fmt(violations),
            ]
        ),
    ]
    _write_csv(cfg.csv, lines)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    side = (getattr(args, "side", None) or config.get("side") or "").strip().lower()
    if side not in ("renewal", "passage"):
        raise ConfigError(f"side: must be renewal or passage, got {side!r}")
    spec_flag = "dist" if side == "renewal" else "sub"
    keys = ["side", "case", spec_flag, "ell", "s_grid", "reps", "seed", "csv", "threads"]
    mapping = _merge(args, config, keys)
    cfg = ConvergeConfig(
        side=side,
        case=_case(mapping),
        spec=str(_require(mapping, spec_flag)),
        ell=str(mapping["ell"]) if mapping.get("ell") is not None else None,
        s_grid=_parse_s_grid(mapping.get("s_grid")),
        reps=int(_positive(mapping, "reps", kind=int)),
        seed=_seed(mapping),
        csv=str(_require(mapping, "csv")),
        threads=int(mapping["threads"]) if mapping.get("threads") is not None else None,
    )
    ell = scaling.parse_slowly_varying(cfg.ell) if cfg.ell is not None else None
    if side == "renewal":
        spec = distributions.parse_interarrival(cfg.spec)
    else:
        spec = subordinator.parse_subordinator(cfg.spec)
    rows = renewal.convergence_table(
        spec, cfg.case, ell, cfg.s_grid, cfg.reps, cfg.seed, cfg.threads
    )
    lines = [renewal.CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.s),
                    str(row.n_reps),
                    _fmt(row.estimate),
                    _fmt(row.stderr),
                    _fmt(row.normalizer),
                    _fmt(row.ratio),
                    _fmt(row.limit),
                    _fmt(row.rel_gap),
                ]
            )
        )
    _write_csv(cfg.csv, lines)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    mapping = _merge(args, _load_config(args.config), ["seed"])
    seed = _seed(mapping) if mapping.get("seed") is not None else 20240801
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'ok' if ok else 'FAIL'} {name}: {detail}")

    # closed form vs quadrature across the (alpha, r) grid
    worst = 0.0
    for alpha in (1.1, 1.5, 1.9):
        for r in (0.25, 0.5, 1.0):
            closed = limits.stable_abs_moment(alpha, r)
            quad = limits.stable_abs_moment_quadrature(alpha, r, tol=1e-9)
            worst = max(worst, abs(closed - quad) / closed)
    report("moment-closed-vs-quadrature", worst <= 1e-6, f"max rel diff {_fmt(worst)}")

    # Monte Carlo side of the triangle at alpha = 1.5, r = 0.5
    alpha, r, n = 1.5, 0.5, 200_000
    params = distributions.StableParams.from_alpha(alpha)
    draws = params.sample(replication_rng(stream_base(seed), 0), size=n)
    powered = abs(draws) ** r
    mc_mean = float(powered.mean())
    mc_se = float(powered.std(ddof=1)) / math.sqrt(n)
    closed = limits.stable_abs_moment(alpha, r)
    z = abs(mc_mean - closed) / mc_se
    report("moment-monte-carlo", z <= 4.0, f"|z| = {_fmt(z)}")

    # coupling invariant on exact paths
    for spec_text in ("cp:rate=1.0,jump=exp:1.0", "cp:rate=5.0,jump=pareto:1.5,1.0"):
        spec = subordinator.parse_subordinator(spec_text)
        frac = subordinator.coupling_check(spec, 100.0, 2000, seed)
        report(f"coupling[{spec_text}]", frac == 0.0, f"violation fraction {_fmt(frac)}")

    # coupled studentized residual of the stopping identity; the exp:1.0
    # replications also feed the Poisson oracle check below
    estimates = {}
    for dist_text in ("exp:1.0", "pareto:1.5,1.0"):
        spec = distributions.parse_interarrival(dist_text)
        estimates[dist_text] = renewal.renewal_estimates(spec, 100.0, 20_000, seed)
        resid = estimates[dist_text].wald
        report(f"wald[{dist_text}]", abs(resid) <= 4.0, f"residual {_fmt(resid)}")

    # exact Poisson oracle vs Monte Carlo and vs its own asymptote
    oracle = renewal.exact_abs_deviation_poisson(100.0)
    est = estimates["exp:1.0"].deviation
    z = abs(est.mean - oracle) / est.std_error
    report("poisson-oracle-vs-mc", z <= 4.0, f"|z| = {_fmt(z)}")
    asym = renewal.exact_abs_deviation_poisson(1e4) / math.sqrt(1e4)
    target = math.sqrt(2.0 / math.pi)
    report(
        "poisson-oracle-asymptote",
        abs(asym / target - 1.0) <= 0.01,
        f"value {_fmt(asym)} vs {_fmt(target)}",
    )

    # scaling solver residual invariant
    ell = scaling.LogShifted(2.0, math.e)
    bad = 0
    for x in (1e4, 1e6, 1e8):
        c = scaling.solve_c(2.0, ell, x)
        if abs(x * ell(c) / c**2 - 1.0) > 1e-10:
            bad += 1
    report("scaling-residual", bad == 0, f"{bad} residual violations")

    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewlim",
        description="Simulation and numerical verification toolkit for renewal "
        "counting and subordinator first-passage limit behaviour.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")

    p = sub.add_parser("moment", help="fractional absolute moment of the stable limit law")
    p.add_argument("--alpha", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--method", help="comma list from closed,quadrature,mc")
    p.add_argument("--n", type=int, help="Monte Carlo sample count for --method mc")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float, help="absolute tolerance for the quadrature route")
    add_config(p)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("limit", help="print the limit constant for a convergence case")
    p.add_argument("--case", choices=limits.CASES)
    p.add_argument("--mu", "--m", dest="mu", type=float)
    p.add_argument("--sigma", "--b", dest="sigma", type=float)
    p.add_argument("--alpha", type=float)
    add_config(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("scaling", help="solve the scaling-function equation at one point")
    p.add_argument("--alpha", type=float)
    p.add_argument("--ell", help="slowly varying spec, e.g. const:1.0")
    p.add_argument("--x", type=float)
    p.add_argument("--tol", type=float)
    add_config(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("simulate", help="Monte Carlo simulation runs")
    sim_sub = p.add_subparsers(dest="target", required=True)

    ps = sim_sub.add_parser("renewal", help="renewal counting process at level s")
    ps.add_argument("--dist", help="inter-arrival spec, e.g. exp:1.0")
    ps.add_argument("--s", type=float)
    ps.add_argument("--reps", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--csv", help="output path; stdout when omitted")
    ps.add_argument("--threads", type=int)
    add_config(ps)
    ps.set_defaults(func=_cmd_simulate_renewal)

    ps = sim_sub.add_parser("passage", help="subordinator first passage of level s")
    ps.add_argument("--sub", help="subordinator spec, e.g. cp:rate=1.0,jump=exp:1.0")
    ps.add_argument("--s", type=float)
    ps.add_argument("--reps", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--csv", help="output path; stdout when omitted")
    ps.add_argument("--threads", type=int)
    add_config(ps)
    ps.set_defaults(func=_cmd_simulate_passage)

    p = sub.add_parser("converge", help="convergence table against the case limit")
    p.add_argument("--side", choices=("renewal", "passage"))
    p.add_argument("--case", choices=limits.CASES)
    p.add_argument("--dist", help="inter-arrival spec (side renewal)")
    p.add_argument("--sub", help="subordinator spec (side passage)")
    p.add_argument("--ell", help="slowly varying spec for c(s) (cases a2/a3/b2/b3)")
    p.add_argument("--s-grid", dest="s_grid", help="comma list of increasing levels")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv")
    p.add_argument("--threads", type=int)
    add_config(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("selfcheck", help="run the built-in oracle and invariant checks")
    p.add_argument("--seed", type=int)
    add_config(p)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, SpecParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, NoBracketError, ToleranceNotMetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RenewlimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
