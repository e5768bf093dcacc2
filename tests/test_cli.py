"""CLI parsing, dispatch, report emission and exit codes."""

import argparse
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import indefinite_bvp
from indefinite_bvp import bounds, cli, shooting
from indefinite_bvp.cli import (annulus_from_config, build_parser, main,
                                parse_nonlinearity, parse_weight,
                                problem_from_config, load_config)
from indefinite_bvp.errors import ConfigurationError
from indefinite_bvp.nonlinearity import g_eval
from indefinite_bvp.presets import get_preset
from indefinite_bvp.weight import evaluate

SRC = str(pathlib.Path(indefinite_bvp.__file__).resolve().parents[1])


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_weight_shorthand():
    w = parse_weight("sine(6.283185307179586)", period=1.0)
    assert evaluate(w, 0.25) == pytest.approx(1.0)
    w2 = parse_weight("sin_pm(9.42477796076938, 1, 7)", period=1.0)
    assert evaluate(w2, 0.5) == pytest.approx(-7.0)


def test_parse_weight_expression_needs_period():
    w = parse_weight("sin(2*pi*t)", period=1.0)
    assert evaluate(w, 0.25) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        parse_weight("sin(2*pi*t)")


def test_parse_weight_bad_shorthand():
    with pytest.raises(ConfigurationError):
        parse_weight("sine(oops)", period=1.0)


def test_parse_nonlinearity():
    g = parse_nonlinearity("power(2)")
    assert g_eval(g, 3.0) == 9.0
    g2 = parse_nonlinearity("arctan_scaled(100)")
    assert g2.kind == "arctan_scaled"
    g3 = parse_nonlinearity("clamp0(s*s - 1)")
    assert g_eval(g3, 0.5) == 0.0
    g4 = parse_nonlinearity("100*s*atan(s)")
    assert g_eval(g4, 1.0) == pytest.approx(100 * math.atan(1.0))


def test_load_config_missing():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/file.ini")


def test_problem_from_config_round_trip(tmp_path):
    path = write_config(tmp_path, """
[problem]
weight = sine(6.283185307179586)
period = 1
g = arctan_scaled(100)
mu = 7
c = 0
boundary = periodic

[search]
u_count = 8
y_count = 4
residual_tol = 1e-7
""")
    p, sc, resolved = problem_from_config(load_config(path))
    assert p.mu == 7.0
    assert p.boundary == "periodic"
    assert p.period == pytest.approx(1.0)
    assert sc.u_count == 8 and sc.y_count == 4
    assert sc.residual_tol == 1e-7
    assert resolved["mu"] == "7"
    # mu override wins over the config value
    p2, _, _ = problem_from_config(load_config(path), mu_override=9.0)
    assert p2.mu == 9.0


def test_preset_config(tmp_path):
    path = write_config(tmp_path, "[problem]\npreset = fig1\n")
    p, sc, _ = problem_from_config(load_config(path))
    assert p.boundary == "neumann"
    assert sc.u_max == 0.5  # preset search carried through


def test_lyndon_command(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["lyndon", "--n", "2", "--k", "7", "--list",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["count"] == 18
    assert len(rep["words"]) == 18
    assert rep["version"]


def test_subharmonic_enumerate(capsys):
    assert main(["subharmonic", "--enumerate", "--m", "1", "--k", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["class_count"] == 2
    assert rep["classes"] == ["001", "011"]


def _refuse_listing(monkeypatch):
    """Make every way the CLI lists Lyndon words, or searches, fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("listed or searched past the cap")

    for name in ("lyndon_words", "enumerate_class_representatives",
                 "coded_records"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv, count", [
    (["lyndon", "--n", "2", "--k", "30", "--list"], 35790267),
    (["subharmonic", "--enumerate", "--m", "20", "--k", "3"],
     (2 ** 60 - 2 ** 20) // 3),
    (["subharmonic", "--k", "30"], 35790267),
], ids=["lyndon", "enumerate", "config"])
def test_word_lists_are_capped(argv, count, tmp_path, capsys, monkeypatch):
    # a command that lists Lyndon words counts them first and refuses a
    # count above the cap with exit 2, before it lists or searches
    _refuse_listing(monkeypatch)
    if "--enumerate" not in argv and argv[0] != "lyndon":
        argv = argv + ["--config", write_config(
            tmp_path, "[problem]\npreset = fig2\n")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "%d Lyndon words" % count in err["message"]


def test_word_cap_is_inclusive(monkeypatch, capsys):
    # the 18 binary Lyndon words of length 7 are listed under a cap of
    # 18 and refused under 17; a count alone is never capped
    monkeypatch.setattr(cli, "_MAX_WORDS", 18)
    assert main(["lyndon", "--n", "2", "--k", "7", "--list"]) == 0
    assert len(json.loads(capsys.readouterr().out)["words"]) == 18
    monkeypatch.setattr(cli, "_MAX_WORDS", 17)
    assert main(["lyndon", "--n", "2", "--k", "7", "--list"]) == 2
    assert "18 Lyndon words" in json.loads(capsys.readouterr().err)["message"]
    assert main(["lyndon", "--n", "2", "--k", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 18


def test_word_cap_lists_m3_k7():
    # the cap sits above the largest coded census, m = 3 and k = 7
    assert cli._MAX_WORDS >= cli.witt_count(2 ** 3, 7) == 299592


def test_config_error_exit(capsys):
    assert main(["bounds", "--config", "/nonexistent.ini"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["exit_code"] == 2


def test_hypothesis_error_exit(tmp_path, capsys):
    # g stays below the hump eigenvalue threshold: exit code 3
    path = write_config(tmp_path, """
[problem]
weight = sine(6.283185307179586)
period = 1
g = arctan_scaled(1)
mu = 7
""")
    assert main(["bounds", "--config", path]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "HypothesisError"


def test_numerical_error_exit(tmp_path, capsys):
    # strong friction keeps the Pruefer angle of the hump problem from
    # reaching pi, so the eigenvalue bracket is never found: exit code 4
    path = write_config(tmp_path, "[problem]\nweight = sine(6.283185307179586)"
                        "\nperiod = 1\nc = 80\n")
    assert main(["eigen", "--config", path]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BracketingError"
    assert err["exit_code"] == 4


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--k", "0"], "--k"),
    (["subharmonic", "--k", "1"], "--k"),
    (["subharmonic", "--enumerate", "--k", "3", "--m", "0"], "--m"),
    (["subharmonic", "--enumerate", "--k", "1", "--m", "1"], "--k"),
    (["lyndon", "--n", "0", "--k", "3"], "--n"),
    (["lyndon", "--n", "2", "--k", "0"], "--k"),
    (["subharmonic", "--k", "2", "--word", "101"], "--word"),
    (["subharmonic", "--k", "2", "--word", "00"], "--word"),
    (["subharmonic", "--k", "2", "--word", "1010"], "--word"),
], ids=["solve-k", "subharmonic-k", "enumerate-m", "enumerate-k",
        "lyndon-n", "lyndon-k", "word-length", "word-zero", "word-humps"])
def test_out_of_range_flag_exit(argv, flag, tmp_path, capsys):
    # a flag value outside its range is a configuration error (exit 2)
    # that names the flag, not a numerical failure
    if argv[0] != "lyndon" and "--enumerate" not in argv:
        argv = argv + ["--config", write_config(
            tmp_path, "[problem]\npreset = fig2\n")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"].startswith(flag + " ")


def test_eigen_command(tmp_path, capsys):
    path = write_config(tmp_path, "[problem]\npreset = fig1\n")
    assert main(["eigen", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["hump_eigenvalues"]) == 2
    assert rep["ginf_threshold"] > 0


def test_unknown_search_key_exit(tmp_path, capsys):
    # a misspelt [search] key must not silently run with the defaults
    path = write_config(tmp_path, """
[problem]
preset = fig2

[search]
u_cout = 8
""")
    assert main(["bounds", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "u_cout" in err["message"]
    # so must a value that is not a number of the field's type
    path = write_config(tmp_path, "[problem]\npreset = fig2\n"
                        "[search]\nu_count = 8.5\n", name="bad.ini")
    assert main(["bounds", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"


def test_report_fig1(capsys):
    assert main(["report", "--preset", "fig1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    sols = rep["solutions"]
    assert {s["code"] for s in sols} == {"01", "10", "11"}
    assert all(s["verified"] for s in sols)


def test_subharmonic_searches_once(tmp_path, capsys, monkeypatch):
    # every class representative is matched against one k = 2 search;
    # its screen flows each period once, and the k = 1 search that seeds
    # the coded orbits continues it without flowing
    windows = []
    original = shooting.screen_flow

    def counting(p, states, t0, t1, *args, **kwargs):
        windows.append((t0, t1))
        return original(p, states, t0, t1, *args, **kwargs)

    monkeypatch.setattr(shooting, "screen_flow", counting)
    path = write_config(tmp_path, "[problem]\npreset = fig2\n")
    assert main(["subharmonic", "--config", path, "--k", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [t["word"] for t in rep["targets"]] == ["01"]
    assert rep["targets"][0]["found"]
    assert rep["targets"][0]["record"]["code"] == "01"
    assert windows == [(0.0, 1.0), (1.0, 2.0)]


def test_bounds_reads_search_section(tmp_path, capsys, monkeypatch):
    # R* comes from the config's [search] settings when it has them and
    # from the coarse default sweep (search_config None) when it has none
    seen = []

    def spy(p, r=None, search_config=None):
        seen.append(search_config)
        return 50.0

    monkeypatch.setattr(bounds, "estimate_R_star", spy)
    path = write_config(tmp_path, "[problem]\npreset = fig2\n"
                        "[search]\nu_count = 7\n")
    assert main(["bounds", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bounds"]["R_star"] == 50.0
    assert seen[0].u_count == 7
    path = write_config(tmp_path, "[problem]\npreset = fig2\n",
                        name="plain.ini")
    assert main(["bounds", "--config", path]) == 0
    assert seen[1] is None


def _refuse_constant(name):
    raise ValueError("%s is not RFC 8259 JSON" % name)


def test_report_is_strict_json(tmp_path, capsys):
    # fig1 has no negativity interval on one side of each hump, so delta
    # and mu there are not finite: the report writes them as null, and a
    # strict parser reads the whole report
    path = write_config(tmp_path, "[problem]\npreset = fig1\n")
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", path, "--out", str(out)]) == 0
    for text in (capsys.readouterr().out, out.read_text()):
        rep = json.loads(text, parse_constant=_refuse_constant)
        b = rep["bounds"]
        for key in ("delta_minus", "delta_plus", "mu_minus", "mu_plus"):
            assert b[key].count(None) == 1, key
        assert b["mu_star"] == max(v for key in ("mu_minus", "mu_plus")
                                   for v in b[key] if v is not None)


# small grids that still find the fig2 k = 2 orbits, the three fig1
# Neumann solutions and one radial profile
PERIODIC_INI = """
[problem]
weight = sine(6.283185307179586)
period = 1
g = arctan_scaled(100)
mu = 7

[search]
u_min = 0.01
u_max = 0.5
u_count = 8
y_min = -0.6
y_max = 0.6
y_count = 6
max_candidates = 4
"""

NEUMANN_INI = """
[problem]
weight = max(sin(3*pi*t), 0) - 7*max(-sin(3*pi*t), 0)
period = 1
g = arctan_scaled(100)
boundary = neumann

[search]
u_max = 0.5
u_count = 60
"""

ANNULUS_INI = """
[annulus]
n = 2
r1 = 1
r2 = 2
mu = 7
q = sin(2*pi*(r-1))
g = arctan_scaled(100)
"""

# subcommand -> (arguments, config text, report keys beyond the common
# ones, header of the per-solution CSV files the case writes)
SMOKE_CASES = {
    "bounds": (["--config", "{cfg}"], PERIODIC_INI, {"bounds"}, None),
    "solve": (["--config", "{cfg}", "--k", "2", "--trajectories", "{csv}"],
              PERIODIC_INI, {"k", "levels", "solutions"}, "t,u,up"),
    "neumann": (["--config", "{cfg}", "--trajectories", "{csv}"],
                NEUMANN_INI, {"levels", "solutions"}, "t,u,up"),
    "subharmonic": (["--config", "{cfg}", "--k", "2", "--word", "10"],
                    PERIODIC_INI, {"k", "targets"}, None),
    "lyndon": (["--n", "2", "--k", "3", "--list"], None,
               {"n", "k", "count", "words"}, None),
    "eigen": (["--config", "{cfg}"], PERIODIC_INI,
              {"hump_eigenvalues", "ginf_threshold"}, None),
    "radial": (["--config", "{cfg}", "--profiles", "{csv}"], ANNULUS_INI,
               {"T", "q_integral", "levels", "solutions"}, "r,U"),
    "report": (["--preset", "fig1"], None, {"notes", "levels", "solutions"},
               None),
}


def test_every_subcommand_has_a_smoke_case():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SMOKE_CASES)


@pytest.mark.parametrize("command", sorted(SMOKE_CASES))
def test_subcommand_smoke(command, tmp_path, capsys):
    args, ini, keys, header = SMOKE_CASES[command]
    cfg = write_config(tmp_path, ini) if ini else None
    prefix = str(tmp_path / "out")
    argv = [command] + [a.format(cfg=cfg, csv=prefix) for a in args]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"version", "command", "config"} | keys
    assert rep["command"] == command
    if "levels" in keys:
        # classified: each record has a code or is flagged unclassifiable
        assert all(r["code"] is not None or r["unclassifiable"]
                   for r in rep["solutions"])
    if header is None:
        return
    n = len(rep["solutions"])
    assert n >= 1
    for i in range(n):
        lines = (tmp_path / ("out_%d.csv" % i)).read_text().splitlines()
        assert lines[0] == header and len(lines) > 2
    assert not (tmp_path / ("out_%d.csv" % n)).exists()


@pytest.mark.parametrize("text", ["[problem]\npreset = fig1\n",
                                  PERIODIC_INI], ids=["fig1", "periodic"])
def test_eigen_threshold_is_the_largest_hump_eigenvalue(text, tmp_path,
                                                        capsys):
    # the report lists the eigenvalues the threshold is taken over: on
    # fig1 the end humps of the Neumann window take the Neumann condition
    # at the window end, so they are not the Dirichlet ones
    path = write_config(tmp_path, text)
    assert main(["eigen", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ginf_threshold"] == max(rep["hump_eigenvalues"])


def test_annulus_weight_is_written_in_r(tmp_path, capsys):
    ap = annulus_from_config(load_config(write_config(tmp_path,
                                                      ANNULUS_INI)))
    assert ap.q_at(1.25) == pytest.approx(1.0)
    # t and s are not the radius
    for q in ("sin(2*pi*(t-1))", "s"):
        path = write_config(tmp_path,
                            ANNULUS_INI.replace("sin(2*pi*(r-1))", q),
                            name="bad.ini")
        assert main(["radial", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "variable r" in err["message"]


def test_radial_reads_search_section(tmp_path, capsys, monkeypatch):
    # radial searches with the config's [search] settings, and with the
    # default SearchConfig when the config has no [search] section
    seen = []
    original = cli.find_radial_solutions

    def spy(ap, sc=None):
        seen.append(sc)
        return original(ap, sc)

    monkeypatch.setattr(cli, "find_radial_solutions", spy)
    path = write_config(tmp_path, ANNULUS_INI + "\n[search]\nu_count = 7\n")
    assert main(["radial", "--config", path]) == 0
    assert seen[0] == shooting.SearchConfig(u_count=7)
    path = write_config(tmp_path, ANNULUS_INI, name="plain.ini")
    assert main(["radial", "--config", path]) == 0
    assert seen[1] == shooting.SearchConfig()


def test_radial_unknown_search_key_exit(tmp_path, capsys):
    path = write_config(tmp_path, ANNULUS_INI + "\n[search]\nu_count = 3\n"
                        "bogus_key = 1\n")
    assert main(["radial", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "bogus_key" in err["message"]


def test_radial_constant_sign_q_exit(tmp_path, capsys):
    # a Q of one sign has no positive Neumann solution, and no sign pattern
    path = write_config(tmp_path,
                        ANNULUS_INI.replace("sin(2*pi*(r-1))", "1 + 0*r"))
    assert main(["radial", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PatternError"
    assert "constant sign" in err["message"]


def test_removed_search_keys_exit(tmp_path, capsys):
    # the duplicate and trivial tolerances are module constants, not
    # [search] keys
    for key in ("dedup_tol", "trivial_tol"):
        path = write_config(tmp_path, "[problem]\npreset = fig2\n"
                            "[search]\n%s = 1e-6\n" % key)
        assert main(["bounds", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert key in err["message"]


RETIRED_INI = "[problem]\npreset = fig2\n[search]\nu_count = 7\n" \
    "screen_steps = %s\n"


@pytest.mark.parametrize("value", ["0", "800"])
def test_retired_screen_steps_key_warns(value, tmp_path, capsys):
    # configs written for the fixed-step screen still load: screen_steps,
    # in or out of its old range, is ignored with one warning that names
    # it, and the other keys are read as before
    path = write_config(tmp_path, RETIRED_INI % value)
    with pytest.warns(UserWarning, match="screen_steps") as record:
        _, sc, _ = problem_from_config(load_config(path))
    assert len(record) == 1
    assert sc == dataclasses.replace(get_preset("fig2").search, u_count=7)
    with pytest.warns(UserWarning, match="screen_steps"):
        assert main(["eigen", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "eigen"
    # any other unknown key beside it is still an error
    path = write_config(tmp_path, RETIRED_INI % value + "screen_step = 1\n",
                        name="typo.ini")
    with pytest.warns(UserWarning, match="screen_steps"):
        assert main(["eigen", "--config", path]) == 2
    assert "screen_step" in json.loads(capsys.readouterr().err)["message"]


def test_retired_key_warning_is_shown_by_default(tmp_path):
    # the warning reaches stderr under Python's default warning filters
    path = write_config(tmp_path, RETIRED_INI % "400")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONWARNINGS", None)
    code = ("import sys\nfrom indefinite_bvp import cli\n"
            "cli.problem_from_config(cli.load_config(sys.argv[1]))\n")
    out = subprocess.run([sys.executable, "-c", code, path], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=600)
    assert out.stderr.count("UserWarning") == 1
    assert "[search] screen_steps is retired and ignored" in out.stderr


def test_table_weight_is_not_a_shorthand(tmp_path, capsys):
    path = write_config(tmp_path, "[problem]\nweight = table(0, 1)\n"
                        "period = 1\n")
    assert main(["bounds", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "unknown function 'table'" in err["message"]


@pytest.mark.parametrize("command, text, named", [
    # a misspelt boundary must not silently solve the periodic problem
    ("eigen", "[problem]\nweight = sine(6.283185307179586)\nperiod = 1\n"
     "boundry = neumann\n", "[problem] key(s): boundry"),
    # beside a preset only mu is read
    ("eigen", "[problem]\npreset = fig2\nc = 0.5\n", "[problem] key(s): c"),
    ("radial", ANNULUS_INI + "radius = 3\n", "[annulus] key(s): radius"),
], ids=["problem", "preset", "annulus"])
def test_unknown_key_exit(command, text, named, tmp_path, capsys):
    path = write_config(tmp_path, text)
    assert main([command, "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert named in err["message"]


@pytest.mark.parametrize("command, text, key", [
    ("eigen", "[problem]\nweight = sine(6.283185307179586)\n"
     "period = one\n", "period"),
    ("eigen", "[problem]\npreset = fig2\nmu = seven\n", "mu"),
    # the dimension is an integer, not a number rounded to one
    ("radial", ANNULUS_INI.replace("n = 2", "n = 2.0"), "n"),
], ids=["problem", "preset", "annulus"])
def test_bad_value_exit(command, text, key, tmp_path, capsys):
    path = write_config(tmp_path, text)
    assert main([command, "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert repr(key) in err["message"]


@pytest.mark.parametrize("text, named", [
    # np.geomspace cannot start the log grid at 0
    ("u_min = 0\n", "u_min must be positive"),
    # solve_ivp rejects a negative tolerance
    ("atol = -1\n", "atol must be positive"),
    ("u_count = 0\n", "grid counts must be positive"),
    # nor end it at 0
    ("u_max = 0\n", "u_max must exceed u_min"),
    # no Newton start or no Newton step gave an empty solution list
    ("max_candidates = 0\n", "max_candidates"),
    ("newton_max_iter = 0\n", "newton_max_iter"),
    # an infinite u_max gave an empty list after a geomspace warning
    ("u_max = inf\n", "u_max must be finite"),
    ("y_min = nan\n", "y_min must be finite"),
], ids=["u_min", "atol", "u_count", "u_max", "max_candidates",
        "newton_max_iter", "u_max_inf", "y_min_nan"])
def test_out_of_range_search_value_exit(text, named, tmp_path, capsys):
    # a [search] value outside its range is a configuration error (exit
    # 2), not a traceback or a numerical failure
    path = write_config(tmp_path, "[problem]\npreset = fig2\n[search]\n"
                        + text)
    assert main(["solve", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "[search]" in err["message"] and named in err["message"]


def test_subharmonic_needs_config(capsys):
    assert main(["subharmonic", "--k", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "--config" in err["message"]


@pytest.mark.parametrize("word", ["1x", "12"])
def test_subharmonic_word_must_be_bits(word, tmp_path, capsys):
    # a word that is not a bit string is a configuration error (exit 2),
    # not a traceback or a numerical failure
    path = write_config(tmp_path, "[problem]\npreset = fig2\n")
    assert main(["subharmonic", "--config", path, "--k", "2",
                 "--word", word]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert repr(word) in err["message"]


@pytest.mark.parametrize("g", ["power(abc)", "arctan_scaled()", "power(inf)",
                               "arctan_scaled(inf)"])
def test_bad_nonlinearity_shorthand_exit(g, tmp_path, capsys):
    # an argument that is not a number is a configuration error (exit 2),
    # not a traceback; an infinite one too, not an empty solution list
    path = write_config(tmp_path, "[problem]\nweight = sine(6.283185307179586)"
                        "\nperiod = 1\ng = %s\n" % g)
    assert main(["solve", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert repr(g) in err["message"]


@pytest.mark.parametrize("weight", ["sine(0)", "sin_pm(0,1,1)",
                                    "sine(6.28, 5)", "sin_pm(6.28,1,7,9)",
                                    "sine(1e-320)", "sin_pm(1e-320, 1, 1)"])
def test_bad_weight_shorthand_exit(weight, tmp_path, capsys):
    # a zero frequency is a configuration error (exit 2), not a
    # ZeroDivisionError traceback, and an extra argument is refused, not
    # dropped; a frequency so small that 2 pi / freq overflows names the
    # period, not a weight identically zero or an OverflowError traceback
    path = write_config(tmp_path, "[problem]\nweight = %s\n"
                        "g = arctan_scaled(100)\n" % weight)
    assert main(["solve", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert repr(weight) in err["message"]
    if "1e-320" in weight:
        assert "period must be positive and finite" in err["message"]


@pytest.mark.parametrize("period", ["inf", "nan", "1e400"])
def test_non_finite_period_exit(period, tmp_path, capsys):
    # an expression weight over an infinite period is refused by name,
    # not as a weight identically zero on a period
    path = write_config(tmp_path, "[problem]\nweight = sin(t)\n"
                        "period = %s\ng = arctan_scaled(100)\n" % period)
    assert main(["solve", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "period must be positive and finite" in err["message"]


@pytest.mark.parametrize("text", ["mu = inf\n", "c = nan\n", "c = inf\n",
                                  "c = -inf\n"])
def test_non_finite_mu_or_c_exit(text, tmp_path, capsys):
    # a non-finite mu or c is refused before any flow: exit 2, not an
    # empty solution list or an overflow
    path = write_config(tmp_path, "[problem]\nweight = sine(6.283185307179586)"
                        "\nperiod = 1\ng = arctan_scaled(100)\n" + text)
    assert main(["solve", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "[problem]" in err["message"]


@pytest.mark.parametrize("text, named", [
    ("mu = inf\n", "mu must be finite"),
    ("mu = 1e400\n", "mu must be finite"),
    ("r1 = nan\n", "R1 must be finite"),
    ("r2 = inf\n", "R2 must be finite"),
    # R2^{2(N-1)} overflows a float in the transformed weight
    ("r2 = 1e308\n", "R2^{2(N-1)}"),
    # the window h(R2) of the reduced problem overflows: R2 / R1 for
    # N = 2, 1 / R1 for N = 3 and R1^{2-N} for N = 4
    ("r1 = 1e-320\n", "R1 = 1e-320"),
    ("n = 3\nr1 = 1e-320\n", "R1 = 1e-320"),
    ("n = 4\nr1 = 1e-200\n", "R1 = 1e-200"),
], ids=["mu_inf", "mu_overflow", "r1_nan", "r2_inf", "r2_power",
        "r1_window_n2", "r1_window_n3", "r1_window_n4"])
def test_non_finite_annulus_value_exit(text, named, tmp_path, capsys):
    # a non-finite [annulus] value is refused before any flow: exit 2
    # naming the key, not a numerical failure, a misleading pattern error
    # or an OverflowError traceback
    keys = {line.split()[0] for line in text.splitlines()}
    ini = "".join(line + "\n" for line in ANNULUS_INI.splitlines()
                  if line.split(" ")[0] not in keys) + text
    path = write_config(tmp_path, ini)
    assert main(["radial", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "[annulus]" in err["message"] and named in err["message"]


def test_non_finite_preset_mu_exit(tmp_path, capsys):
    path = write_config(tmp_path, "[problem]\npreset = fig2\nmu = inf\n")
    assert main(["solve", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
