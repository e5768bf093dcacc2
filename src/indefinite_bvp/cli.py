"""Command line interface: config parsing, subcommand dispatch, reports.

Configs are INI files with [problem], [search] and [annulus] sections.
Weights and nonlinearities are given either as shorthand constructors
(sin_pm(freq,nu,mu), sine(freq), power(p), arctan_scaled(nu),
clamp0(expr)) or as arithmetic expressions in t (weights), s
(nonlinearities) or r (the radial weight q of [annulus]).

Exit codes: 0 success, 2 configuration error, 3 hypothesis failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import re
import sys
import warnings
from importlib import metadata

from .bounds import compute_mu_star
from .eigen import hump_eigenvalues
from .errors import (BracketingError, ConfigurationError, DegreeUndefinedError,
                     DivergenceError, DomainError, HypothesisError,
                     PatternError, SolverError, UnclassifiableError)
from .expressions import parse_expression
from .integrator import ProblemSpec
from .lyndon import lyndon_words, witt_count
from .nonlinearity import NonlinearitySpec
from .presets import get_preset, list_presets
from .radial import (AnnulusProblem, check_q_integral, find_radial_solutions,
                     solution_to_radial)
from .shooting import (SearchConfig, find_neumann_solutions,
                       find_periodic_solutions, verify_solution)
from .subharmonic import (CodeTarget, classify_records, coded_records,
                          enumerate_class_representatives)
from .weight import WeightSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4

_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\((.*)\)\s*$")
_MAX_WORDS = 10 ** 6    # the most Lyndon words a command lists


def _version():
    try:
        return metadata.version("indefinite-bvp")
    except metadata.PackageNotFoundError:
        return "unknown"


def parse_weight(src, period=None):
    """Weight from shorthand or an expression in t."""
    m = _CALL_RE.match(src)
    if m and m.group(1) in ("sin_pm", "sine"):
        name, args = m.group(1), m.group(2).split(",")
        arity = 1 if name == "sine" else 3
        try:
            if len(args) != arity:
                raise ValueError("%s takes %d argument(s), got %d"
                                 % (name, arity, len(args)))
            freq, *rest = (float(a) for a in args)
            build = getattr(WeightSpec, name)
            return build(freq, *rest, period=period)
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                "bad arguments in weight shorthand %r: %s" % (src, exc))
    if period is None:
        raise ConfigurationError("expression weights require period")
    return WeightSpec.from_expression(src, period)


def parse_nonlinearity(src):
    """Nonlinearity from shorthand or an expression in s."""
    m = _CALL_RE.match(src)
    if m and m.group(1) in ("power", "arctan_scaled", "clamp0"):
        name, inner = m.group(1), m.group(2)
        if name == "clamp0":
            return NonlinearitySpec.from_expression(inner, clamp=True)
        build = getattr(NonlinearitySpec, name)
        try:
            return build(float(inner))
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                "bad argument in nonlinearity shorthand %r: %s" % (src, exc))
    return NonlinearitySpec.from_expression(src)


# key -> type of every key a section accepts
_PROBLEM_KEYS = {"weight": str, "period": float, "g": str, "mu": float,
                 "c": float, "boundary": str}
_PRESET_KEYS = {"preset": str, "mu": float}
_ANNULUS_KEYS = {"n": int, "r1": float, "r2": float, "mu": float, "q": str,
                 "g": str}
_SEARCH_KEYS = {f.name: int if f.type == "int" else float
                for f in dataclasses.fields(SearchConfig)}
# [search] keys that set nothing any more: a config that has one still
# loads, with a warning that names it
_RETIRED_SEARCH_KEYS = {
    "screen_steps": "the screen steps adaptively on the batched DOP853 "
                    "kernel",
}


def _read_section(cp, name, types, required=(), retired=None):
    """The keys of config section ``name``, each converted by its type in
    ``types``; an unknown, missing or unconvertible key is a
    ConfigurationError.  A key of ``retired`` (key -> reason) is dropped
    with a UserWarning that names it."""
    if name not in cp:
        raise ConfigurationError("config needs a [%s] section" % name)
    sec = cp[name]
    retired = retired or {}
    for key in sorted(set(sec) & set(retired)):
        warnings.warn("[%s] %s is retired and ignored: %s"
                      % (name, key, retired[key]), UserWarning, stacklevel=2)
    unknown = sorted(set(sec) - set(types) - set(retired))
    if unknown:
        raise ConfigurationError("unknown [%s] key(s): %s"
                                 % (name, ", ".join(unknown)))
    missing = [key for key in required if key not in sec]
    if missing:
        raise ConfigurationError("missing [%s] key(s): %s"
                                 % (name, ", ".join(missing)))
    out = {}
    for key in sec:
        if key in retired:
            continue
        try:
            out[key] = types[key](sec[key])
        except ValueError as exc:
            raise ConfigurationError("bad [%s] value for %r: %s"
                                     % (name, key, exc))
    return out


def load_config(path):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigurationError("cannot read config file %r" % path)
    return cp


def problem_from_config(cp, mu_override=None):
    """(ProblemSpec, SearchConfig, resolved dict) from a parsed config."""
    if cp.has_option("problem", "preset"):
        sec = _read_section(cp, "problem", _PRESET_KEYS)
        if mu_override is not None:
            sec["mu"] = mu_override
        try:
            preset = get_preset(sec.pop("preset"), **sec)
        except DomainError as exc:
            raise ConfigurationError("bad [problem] value: %s" % exc) \
                from exc
        search = _search_from_config(cp, default=preset.search)
        return preset.problem, search, dict(cp["problem"])
    sec = _read_section(cp, "problem", _PROBLEM_KEYS, required=("weight",))
    w = parse_weight(sec["weight"], period=sec.get("period"))
    g = parse_nonlinearity(sec.get("g", "power(2)"))
    mu = mu_override if mu_override is not None else sec.get("mu", 1.0)
    try:
        p = ProblemSpec.build(w, mu, sec.get("c", 0.0), g,
                              boundary=sec.get("boundary", "periodic"))
    except DomainError as exc:
        raise ConfigurationError("bad [problem] value: %s" % exc) from exc
    return p, _search_from_config(cp), dict(cp["problem"])


def _search_from_config(cp, default=None):
    base = default or SearchConfig()
    if "search" not in cp:
        return base
    sec = _read_section(cp, "search", _SEARCH_KEYS,
                        retired=_RETIRED_SEARCH_KEYS)
    try:
        return dataclasses.replace(base, **sec)
    except DomainError as exc:
        raise ConfigurationError("bad [search] value: %s" % exc) from exc


def annulus_from_config(cp):
    sec = _read_section(cp, "annulus", _ANNULUS_KEYS,
                        required=("n", "r1", "r2", "q"))
    expr = parse_expression(sec["q"])
    if expr.variable not in (None, "r"):
        raise ConfigurationError("radial weight expressions use the "
                                 "variable r")
    g = parse_nonlinearity(sec.get("g", "power(2)"))
    try:
        return AnnulusProblem(sec["n"], sec["r1"], sec["r2"], expr, g,
                              sec.get("mu", 1.0))
    except ConfigurationError as exc:
        raise ConfigurationError("bad [annulus] value: %s" % exc) from exc


# ---------------------------------------------------------------------------
# report helpers


def _record_dict(rec):
    return {
        "initial": {"u": rec.initial.u, "y": rec.initial.y},
        "k": rec.k,
        "residual": rec.residual,
        "sup_norm": rec.sup_norm,
        "boundary": rec.boundary,
        "code": rec.code_string,
        "min_period_multiple": rec.min_period_multiple,
        "unclassifiable": rec.unclassifiable,
    }


def _emit(report, args):
    # RFC 8259 has no NaN or Infinity: every non-finite value is null
    plain = json.loads(json.dumps(report, sort_keys=True, default=float),
                       parse_constant=lambda _: None)
    text = json.dumps(plain, indent=2, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _base_report(resolved, command):
    return {"version": _version(), "command": command, "config": resolved}


def _add_solutions(report, recs, p, sc, verify=False, trajectories=None):
    """Classify ``recs`` and put their levels and records in ``report``,
    each record with its verification flag when ``verify``; write one
    trajectory CSV per record when given a path prefix."""
    levels = classify_records(recs, p)
    report["levels"] = {"r": levels[0], "R": levels[1]} if levels else None
    report["solutions"] = [_record_dict(r) for r in recs]
    if verify:
        for row, rec in zip(report["solutions"], recs):
            row["verified"] = verify_solution(rec, p, sc=sc).passed
    if trajectories:
        for i, rec in enumerate(recs):
            rec.trajectory.to_csv("%s_%d.csv" % (trajectories, i))


# ---------------------------------------------------------------------------
# subcommands


def _require_at_least(args, flag, least):
    """ConfigurationError naming ``--flag`` when its value is below
    ``least``: an out-of-range argument, not a numerical failure."""
    value = getattr(args, flag)
    if value is not None and value < least:
        raise ConfigurationError("--%s must be at least %d, got %d"
                                 % (flag, least, value))


def _listable_count(n, k):
    """``witt_count(n, k)``, or a ConfigurationError naming it above
    ``_MAX_WORDS``: the words are all listed before the report prints."""
    count = witt_count(n, k)
    if count > _MAX_WORDS:
        raise ConfigurationError("%d Lyndon words of length %d over %d "
                                 "symbols is above the %d a command lists"
                                 % (count, k, n, _MAX_WORDS))
    return count


def cmd_bounds(args):
    cp = load_config(args.config)
    p, search, resolved = problem_from_config(cp, args.mu)
    report = _base_report(resolved, "bounds")
    # without a [search] section R* comes from the coarse default sweep
    sc = search if "search" in cp else None
    report["bounds"] = compute_mu_star(p, search_config=sc).to_dict()
    _emit(report, args)
    return EXIT_OK


def cmd_solve(args):
    _require_at_least(args, "k", 1)
    p, sc, resolved = problem_from_config(load_config(args.config), args.mu)
    report = _base_report(resolved, "solve")
    report["k"] = args.k
    _add_solutions(report, find_periodic_solutions(p, args.k, sc), p, sc,
                   trajectories=args.trajectories)
    _emit(report, args)
    return EXIT_OK


def cmd_neumann(args):
    p, sc, resolved = problem_from_config(load_config(args.config), args.mu)
    report = _base_report(resolved, "neumann")
    _add_solutions(report, find_neumann_solutions(p, sc), p, sc,
                   trajectories=args.trajectories)
    _emit(report, args)
    return EXIT_OK


def cmd_subharmonic(args):
    _require_at_least(args, "k", 2)
    if args.enumerate:
        if args.m is None:
            raise ConfigurationError("--enumerate needs --m")
        _require_at_least(args, "m", 1)
        report = _base_report({}, "subharmonic")
        report["k"] = args.k
        report["m"] = args.m
        report["class_count"] = _listable_count(2 ** args.m, args.k)
        report["classes"] = [t.word_string for t in
                             enumerate_class_representatives(args.m, args.k)]
        _emit(report, args)
        return EXIT_OK
    if args.config is None:
        raise ConfigurationError("subharmonic needs --config unless "
                                 "--enumerate is given")
    if args.word and set(args.word) - {"0", "1"}:
        raise ConfigurationError("--word must be a string of 0s and 1s, "
                                 "got %r" % args.word)
    p, sc, resolved = problem_from_config(load_config(args.config), args.mu)
    if args.word:
        try:
            targets = [CodeTarget(args.k, tuple(int(b) for b in args.word))]
        except DomainError as exc:
            raise ConfigurationError("--word %s: %s" % (args.word, exc)) \
                from exc
        if targets[0].m != p.pattern.m:
            raise ConfigurationError("--word %s does not match the weight "
                                     "pattern" % args.word)
    else:
        _listable_count(2 ** p.pattern.m, args.k)
        targets = enumerate_class_representatives(p.pattern.m, args.k)
    report = _base_report(resolved, "subharmonic")
    report["k"] = args.k
    # one search serves every target
    coded = coded_records(p, args.k, sc)
    report["targets"] = []
    for tgt in targets:
        rec = next((r for r in coded if tgt.matches(r.code)), None)
        report["targets"].append({
            "word": tgt.word_string,
            "found": rec is not None,
            "record": _record_dict(rec) if rec else None})
    _emit(report, args)
    return EXIT_OK


def cmd_lyndon(args):
    _require_at_least(args, "n", 2)
    _require_at_least(args, "k", 1)
    report = _base_report({}, "lyndon")
    report["n"] = args.n
    report["k"] = args.k
    report["count"] = (_listable_count if args.list else witt_count)(
        args.n, args.k)
    if args.list:
        report["words"] = ["".join(str(s) for s in w.symbols)
                           for w in lyndon_words(args.n, args.k)]
    _emit(report, args)
    return EXIT_OK


def cmd_eigen(args):
    cp = load_config(args.config)
    p, _, resolved = problem_from_config(cp, args.mu)
    report = _base_report(resolved, "eigen")
    lams = hump_eigenvalues(p)
    report["hump_eigenvalues"] = lams
    report["ginf_threshold"] = max(lams)
    _emit(report, args)
    return EXIT_OK


def cmd_radial(args):
    cp = load_config(args.config)
    ap = annulus_from_config(cp)
    sc = _search_from_config(cp)
    recs, rm, p = find_radial_solutions(ap, sc)
    report = _base_report(dict(cp["annulus"]), "radial")
    report["T"] = rm.T
    report["q_integral"] = check_q_integral(ap)
    _add_solutions(report, recs, p, sc)
    if args.profiles:
        for i, rec in enumerate(recs):
            rs, us = solution_to_radial(rec.trajectory, rm)
            path = "%s_%d.csv" % (args.profiles, i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("r,U\n")
                for r, u in zip(rs, us):
                    fh.write("%.17g,%.17g\n" % (r, u))
    _emit(report, args)
    return EXIT_OK


def cmd_report(args):
    preset = get_preset(args.preset)
    p, sc = preset.problem, preset.search
    report = _base_report({"preset": preset.name}, "report")
    report["notes"] = preset.notes
    if p.boundary == "neumann":
        recs = find_neumann_solutions(p, sc)
    else:
        recs = find_periodic_solutions(p, preset.k, sc)
    _add_solutions(report, recs, p, sc, verify=True)
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="indefinite-bvp",
        description="Positive periodic, subharmonic and Neumann/radial "
                    "solutions of superlinear indefinite problems")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True,
                            help="INI config file")
            sp.add_argument("--mu", type=float, default=None,
                            help="override the weight scaling mu")
        sp.add_argument("--out", help="write the JSON report here")

    sp = sub.add_parser("bounds", help="explicit constants and mu*")
    add_common(sp)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("solve", help="periodic solutions")
    add_common(sp)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--trajectories", help="CSV path prefix")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("neumann", help="Neumann solutions")
    add_common(sp)
    sp.add_argument("--trajectories", help="CSV path prefix")
    sp.set_defaults(fn=cmd_neumann)

    sp = sub.add_parser("subharmonic", help="coded kT-periodic solutions")
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--word", help="target bit string of length m*k")
    sp.add_argument("--enumerate", action="store_true",
                    help="list class representatives only")
    sp.add_argument("--m", type=int, help="humps per period (enumeration)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_subharmonic)

    sp = sub.add_parser("lyndon", help="Lyndon word counts")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_lyndon)

    sp = sub.add_parser("eigen", help="hump eigenvalues and threshold")
    add_common(sp)
    sp.set_defaults(fn=cmd_eigen)

    sp = sub.add_parser("radial", help="radial Neumann profiles")
    sp.add_argument("--config", required=True)
    sp.add_argument("--profiles", help="CSV path prefix for (r, U)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_radial)

    sp = sub.add_parser("report", help="run a named preset end to end")
    sp.add_argument("--preset", required=True, choices=list_presets())
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_report)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (ConfigurationError, PatternError) as exc:
        _error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except HypothesisError as exc:
        _error(exc, EXIT_HYPOTHESIS)
        return EXIT_HYPOTHESIS
    except (BracketingError, DivergenceError, DegreeUndefinedError,
            UnclassifiableError, DomainError, SolverError) as exc:
        _error(exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL


def _error(exc, code):
    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    print(json.dumps(payload, indent=2), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
