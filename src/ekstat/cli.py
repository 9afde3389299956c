"""Command-line front end: operator evaluation, Mellin factorization
checks, identity verification, and sampling.

Configuration resolves in three layers: built-in defaults, then a JSON
config file (``--config``), then explicit flags.  Every report embeds the
fully resolved configuration, and identical configurations with identical
seeds produce byte-identical reports apart from the timestamp line.

Exit codes: 0 success (and verification passed), 1 verification failure,
2 usage error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import mc_oracle, mellin
from .densities import (
    BetaParams,
    DirichletParams,
    GenDirichletParams,
    PathwayDimParams,
    beta1_sample,
    dirichlet1_sample,
    gen_dirichlet1_sample,
    pathway_sample,
)
from .errors import EkstatError, EvaluationError, PoleError, UsageError
from .kober import (
    CLASSICAL,
    IDENTITIES,
    PATHWAY,
    gamma_product,
    identity_record,
    kober1_eval,
    kober2_eval,
)
from .reporting import dumps_csv, dumps_json, timestamp
from .streams import check_workers, default_workers

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_EVAL_FNS = {
    "second": kober2_eval,
    "first": kober1_eval,
    "pathway-second": kober2_eval,
    "pathway-first": kober1_eval,
}


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok != "")
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as a comma-separated float list") from exc


def parse_density(spec: str, k: int):
    """Density spec of the form ``gamma:2,3`` (unit-rate product gammas)
    or ``exp`` (all shapes 1)."""
    spec = str(spec)
    if spec == "exp":
        return gamma_product((1.0,) * k)
    if spec.startswith("gamma:"):
        shapes = _floats(spec[len("gamma:"):])
        if len(shapes) != k:
            raise UsageError(f"density {spec!r} has {len(shapes)} shapes but k={k}")
        return gamma_product(shapes)
    raise UsageError(f"unknown density spec {spec!r}; use gamma:<shapes> or exp")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _family_params(cfg, family):
    """Parameters of ``family`` from the flags named after its fields, each
    with one comma-separated value per dimension (scalars: one value)."""
    values = {}
    for name in family.fields:
        vals = _floats(cfg[name])
        scalar = name in family.scalars
        if len(vals) != (1 if scalar else cfg["k"]):
            raise UsageError(f"{_flag(name)} takes one value"
                             + ("" if scalar else f" per dimension (k={cfg['k']})"))
        values[name] = vals[0] if scalar else vals
    return family.build(values)


def _flags_error(what, family, used) -> UsageError:
    return UsageError(f"{what} takes {' '.join(map(_flag, family.fields))}; "
                      f"got {' '.join(map(_flag, sorted(used)))}")


# every identity's parameter flags, with a family that declares each
_IDENTITY_FLAGS = {name: rec.family for rec in IDENTITIES.values() for name in rec.family.fields}


def _identity_params(cfg, given):
    """The identity's mixing parameters from its own family's flags, or
    None (the identity's defaults) when no parameter flag was given."""
    family = identity_record(cfg["theorem"]).family
    used = given & _IDENTITY_FLAGS.keys()
    if not used:
        return None
    # a field with a built-in default (alpha_last) may be left out
    if not used <= set(family.fields) or any(n not in given and n not in _DEFAULTS
                                             for n in family.fields):
        raise _flags_error(f"identity {cfg['theorem']}", family, used)
    return _family_params(cfg, family)


def _write_report(cfg, payload: dict, rows=None, header=None) -> None:
    doc = {"config": {k: v for k, v in sorted(cfg.items()) if v is not None},
           "timestamp": timestamp(), "result": payload}
    if cfg.get("format", "json") == "csv":
        if rows is None:
            raise UsageError("this command has no CSV representation")
        text = dumps_csv(header, rows)
    else:
        text = dumps_json(doc)
    out = cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(cfg, given) -> int:
    kind = cfg["kind"]
    if kind not in _EVAL_FNS:
        raise UsageError(f"unknown operator kind {kind!r}")
    family = PATHWAY if kind.startswith("pathway") else CLASSICAL
    used = given & _IDENTITY_FLAGS.keys()
    if not used <= set(family.fields):
        raise _flags_error(f"operator kind {kind}", family, used)
    params = _family_params(cfg, family)
    f = parse_density(cfg["density"], cfg["k"])
    points = [np.asarray(_floats(p)) for p in cfg["point"]]
    results = []
    for pt in points:
        if pt.size != cfg["k"]:
            raise UsageError(f"point {pt.tolist()} does not have k={cfg['k']} coordinates")
        res = _EVAL_FNS[kind](pt, params, f, n=cfg["nodes"])
        results.append({"point": pt.tolist(), "value": res.value,
                        "est_error": res.est_error, "n_nodes": res.n_nodes})
        print(f"value={res.value:.12g} est_error={res.est_error:.3g} at {pt.tolist()}",
              file=sys.stderr)
    header = [f"point_{j+1}" for j in range(cfg["k"])] + ["value", "est_error", "n_nodes"]
    rows = [list(r["point"]) + [r["value"], r["est_error"], r["n_nodes"]] for r in results]
    _write_report(cfg, {"evaluations": results}, rows, header)
    return EXIT_OK


def _cmd_mellin_check(cfg, given) -> int:
    params = _family_params(cfg, CLASSICAL)
    f = parse_density(cfg["density"], cfg["k"])
    report = mellin.mellin_factorization_check(
        cfg["kind"], params, f, n=cfg["nodes"], tol=cfg["tol"]
    )
    header = (
        [f"s{j+1}_re" for j in range(cfg["k"])] + [f"s{j+1}_im" for j in range(cfg["k"])]
        + ["lhs_re", "lhs_im", "rhs_re", "rhs_im", "rel_err"]
    )
    rows = [
        [c.real for c in s] + [c.imag for c in s]
        + [l.real, l.imag, r.real, r.imag, e]
        for s, l, r, e in zip(report.s_points, report.lhs, report.rhs, report.rel_err)
    ]
    _write_report(cfg, report.to_dict(), rows, header)
    print(f"max relative error {report.max_rel_err:.3e} "
          f"({'pass' if report.passed else 'FAIL'} at tol {cfg['tol']:g})", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_verify(cfg, given) -> int:
    theorem, k = cfg["theorem"], cfg["k"]
    params = _identity_params(cfg, given)
    f = parse_density(cfg["density"], k) if cfg.get("density") else None
    spec = mc_oracle.make_spec(theorem, k, params=params, f=f)
    probes = [_floats(p) for p in cfg["probe"]] if cfg.get("probe") else None
    report = mc_oracle.verify(
        spec,
        probes=probes,
        n_samples=cfg["samples"],
        seed=cfg["seed"],
        n_nodes=cfg["nodes"],
        constant_scale=cfg["constant_scale"],
        workers=cfg["workers"],
    )
    header = (
        [f"probe_{j+1}" for j in range(k)]
        + ["empirical", "se", "predicted", "z"]
    )
    rows = [
        list(p) + [e, s, pr, zz]
        for p, e, s, pr, zz in zip(report.probes, report.empirical, report.se,
                                   report.predicted, report.z)
    ]
    _write_report(cfg, report.to_dict(), rows, header)
    verdict = "pass" if report.passed else "FAIL"
    print(f"theorem {theorem}: {verdict} (fraction within 4 SE "
          f"{report.fraction_within_4se:.2f}, max |z| {report.max_abs_z:.2f})",
          file=sys.stderr)
    if report.adjudication_notes:
        print(f"adjudication: {report.adjudication_notes}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAIL


_FAMILY_FORMS = ("beta:a,b | dirichlet:a1,..;last | gen-dirichlet:a1,..;b1,.. "
                 "| pathway:a,q,eta,zeta | gamma:shapes")


def _cmd_sample(cfg, given) -> int:
    family = str(cfg["family"])
    n, seed, workers = cfg["n"], cfg["seed"], cfg["workers"]
    name, _, arg = family.partition(":")
    groups = tuple(_floats(text) for text in arg.split(";"))
    sizes = [len(g) for g in groups]
    if name == "beta" and sizes == [2]:
        sm = beta1_sample(BetaParams(*groups[0]), n, seed, workers)
    elif name == "dirichlet" and len(sizes) == 2 and sizes[1] == 1:
        sm = dirichlet1_sample(DirichletParams(groups[0], groups[1][0]), n, seed, workers)
    elif name == "gen-dirichlet" and len(sizes) == 2:
        sm = gen_dirichlet1_sample(GenDirichletParams(*groups), n, seed, workers)
    elif name == "pathway" and sizes == [4]:
        sm = pathway_sample(PathwayDimParams(*groups[0]), n, seed, workers)
    elif name == "gamma" and len(sizes) == 1:
        sm = gamma_product(groups[0]).sample(n, seed, workers)
    else:
        raise UsageError(f"cannot read --family {family!r}; expected {_FAMILY_FORMS}")
    header = [f"x{j+1}" for j in range(sm.dim)]
    rows = sm.data.tolist()
    payload = {"family": family, "n": sm.n, "seed": sm.seed,
               "draws": [list(r) for r in sm.data]}
    _write_report(cfg, payload, rows, header)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "nodes": 64,
    "format": "json",
    "seed": 0,
    "samples": 10**6,
    "n": 1000,
    "tol": 1e-6,
    "constant_scale": 1.0,
    "alpha_last": 1.0,
}


def _add_common(sp):
    sp.add_argument("--config", help="JSON file with defaults for any flag")
    sp.add_argument("--nodes", type=int, help="quadrature nodes per dimension")
    sp.add_argument("--format", choices=("json", "csv"), help="report format")
    sp.add_argument("--out", help="report path (stdout when omitted)")
    sp.add_argument("--workers", type=int,
                    help="threads for sampling, a positive integer (env EKSTAT_WORKERS); "
                         "at most the CPU count run, and the draws do not depend on it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ekstat",
        description="Multivariable fractional-integral operators with "
                    "statistical verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an operator at points")
    p.add_argument("--kind", required=True, choices=tuple(_EVAL_FNS))
    p.add_argument("--k", type=int, required=True)
    for name in dict.fromkeys(CLASSICAL.fields + PATHWAY.fields):
        p.add_argument(_flag(name))
    p.add_argument("--density", default="gamma:2")
    p.add_argument("--point", action="append", required=True,
                   help="comma-separated coordinates; repeatable")
    _add_common(p)

    p = sub.add_parser("mellin-check", help="run the Mellin factorization check")
    p.add_argument("--kind", required=True, choices=("second", "first"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--zeta", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--density", default=None)
    p.add_argument("--tol", type=float)
    _add_common(p)

    p = sub.add_parser("verify", help="Monte Carlo verification of an identity",
                       description="Parameter flags default to the identity's own; "
                                   "theorems 2.4/2.5 take --alphas as the catalogued "
                                   "parameters minus one.")
    p.add_argument("--theorem", required=True, choices=mc_oracle.IDENTITY_IDS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--constant-scale", dest="constant_scale", type=float,
                   help="multiply the density constant (negative control)")
    p.add_argument("--probe", action="append", help="probe point; repeatable")
    for name, family in _IDENTITY_FLAGS.items():
        p.add_argument(_flag(name), dest=name, type=float if name in family.scalars else str)
    p.add_argument("--density")
    _add_common(p)

    p = sub.add_parser("sample", help="draw from one of the density families")
    p.add_argument("--family", required=True, help=_FAMILY_FORMS)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    return ap


def resolve_config(args: argparse.Namespace) -> tuple[dict, set]:
    """defaults < config file < explicit flags; also returns the keys the
    user set, by flag or in the config file."""
    import json

    cfg = dict(_DEFAULTS)
    flags = {k: v for k, v in vars(args).items() if v is not None}
    path = flags.pop("config", None)
    given = set(flags)
    if path:
        with open(path) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        cfg.update(file_cfg)
        given.update(file_cfg)
    cfg.update(flags)
    cfg["workers"] = check_workers(cfg["workers"]) if "workers" in cfg else default_workers()
    return cfg, given


_COMMANDS = {
    "eval": _cmd_eval,
    "mellin-check": _cmd_mellin_check,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg, given = resolve_config(args)
        if cfg.get("command") == "mellin-check" and not cfg.get("density"):
            cfg["density"] = "gamma:" + ",".join(["2"] + [str(2 + j) for j in range(1, cfg["k"])])
        return _COMMANDS[args.command](cfg, given)
    except KeyError as exc:
        print(f"error: missing required option {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, PoleError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EkstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
