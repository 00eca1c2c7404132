import contextlib
import gc
import hashlib
import hmac
import inspect
import io
import json
import math
import os
import platform
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qig import cli, verify
from qig.errors import DomainError, InputError, PoleError


def run(*args, **kw):
    return subprocess.run([sys.executable, "-m", "qig.cli", *args],
                          capture_output=True, text=True, **kw)


def test_metric_pinned_output():
    r = run("metric", "--spec", "bh", "--r", "0.5",
            "--theta", str(math.pi / 4), "--phi", "0")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert abs(data["matrix"][0][0] - 4.0 / 3.0) < 1e-12
    assert abs(data["matrix"][1][1] - 0.25) < 1e-12


def test_field_pinned_output():
    r = run("field", "--spec", "bh", "--field", "y:0,0,1",
            "--r", "0.5", "--theta", str(math.pi / 4), "--phi", "0")
    data = json.loads(r.stdout)
    assert abs(data["components"][0] - 0.75 / math.sqrt(2.0)) < 1e-10
    assert abs(data["components"][1] + math.sqrt(2.0)) < 1e-10


def test_ode_poles_pinned():
    r = run("ode", "poles", "--B", "1", "--c", "0", "-n", "2")
    data = json.loads(r.stdout)
    assert abs(data["t_values"][0] - 0.20787957635076193) < 1e-12
    assert abs(data["t_values"][1] - 0.008983291021129429) < 1e-12


def test_ode_solve_negative_excluded():
    r = run("ode", "solve", "--A", "-2")
    data = json.loads(r.stdout)
    assert data["excluded"] is True and data["B"] == 0.5


def test_act_alpha_one():
    s2 = math.sqrt(2.0)
    g = {"sl_matrix": [[s2, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0 / s2, 0.0]]}
    r = run("act", "--family", "bh", "--g-json", json.dumps(g),
            "--state-json", '{"bloch":[0,0,0]}')
    data = json.loads(r.stdout)
    assert abs(data["bloch"][2] - 0.6) < 1e-12


def test_input_error_exit_code():
    r = run("metric", "--r", "1.5")
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "ChartSingularity"


def test_numeric_error_exit_code():
    r = run("metric", "--spec", "fb", "--B", "1", "--r", "0.6557942026326724")
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "PoleError"


def test_orbit_determinant_breakdown_is_numeric_error(capsys):
    # At t = 40/3 the exponential cosh(mu) I + sinh(mu)/mu m loses its unit
    # determinant to cancellation: a numeric breakdown, not bad input.
    code = cli.main(["export", "--what", "orbit", "--t-end", "40", "--steps", "3",
                     "--a", "1,1,1"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert set(data) == {"error", "message"}
    assert data["error"] == "NumericError"
    assert data["message"] == (
        "matrix exponential of the generator at t = 13.333333333333334 "
        "has a determinant off 1 by more than 1e-10")


def test_verify_single_suite():
    r = run("verify", "poles")
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True


@pytest.mark.parametrize("error,code", [(PoleError, 3), (DomainError, 2)])
def test_suite_error_names_the_suite(error, code, monkeypatch, capsys):
    # The class and the exit code stay; the message says which suite failed.
    def failing(seed, tol=None):
        raise error("t = 0.5 is a pole")

    monkeypatch.setitem(verify.SUITES, "poles", failing)
    assert cli.main(["verify", "poles"]) == code
    assert json.loads(capsys.readouterr().out) == {
        "error": error.__name__, "message": "suite poles: t = 0.5 is a pole"}


def test_verify_rld_commutators_is_negative_control():
    r = run("verify", "commutators", "--spec", "rld")
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert data["suites"]["commutators"]["constant_coefficient"] is False


def test_spec_is_resolved_before_any_suite_runs(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "actions", lambda: pytest.fail("actions ran"))
    assert cli.main(["verify", "all", "--spec", "nonsense"]) == 2


def test_every_suite_parameter_is_a_verify_option():
    # cmd_verify passes a suite the options its signature names; a parameter
    # that is none of them could not be set from the command line.
    for suite in verify.SUITES.values():
        assert set(inspect.signature(suite).parameters) <= {"seed", *cli._SUITE_FLAGS}


def test_strict_tolerance_fails(tmp_path):
    # generators reads no samples; a config key no suite reads is kept.
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tolerance = 1e-15\nseed = 0\nsamples = 7\n")
    r = run("verify", "generators", "--config", str(cfg))
    assert r.returncode == 1


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tolerance = 1e-15\n")
    r = run("verify", "generators", "--config", str(cfg),
            "--tolerance", "1e-4")
    assert r.returncode == 0


def test_export_f_curves_header():
    r = run("export", "--what", "f-curves", "--steps", "10")
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "t,f_A0.25,f_A1,f_A4"
    assert len(lines) == 11
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0 and all(abs(v - 1.0) < 1e-12 for v in last[1:])


def test_export_overlay_small_gap():
    r = run("export", "--what", "overlay", "--A", "2",
            "--steps", "50", "--t-end", "0.5")
    lines = r.stdout.strip().split("\n")
    assert lines[0].endswith(",gap")
    assert max(float(l.split(",")[-1]) for l in lines[1:]) < 1e-7


def test_output_file(tmp_path):
    out = tmp_path / "m.json"
    r = run("metric", "--spec", "wy", "--r", "0.4", "--output", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text())["chart"] == "spherical"


# Records the thread variables at the moment numpy is first imported, then
# imports qig.cli.  BLAS reads them only when numpy loads, so a mapping made
# any later has no effect.
_THREADS_PROBE = """
import json, os, sys

class Probe:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen is None:
            Probe.seen = {k: os.environ.get(k)
                          for k in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        return None

sys.meta_path.insert(0, Probe())
import qig.cli
print(json.dumps(Probe.seen))
"""


def test_qig_threads_set_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["QIG_THREADS"] = "1"
    r = subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"OMP_NUM_THREADS": "1",
                                    "MKL_NUM_THREADS": "1"}


# What a start-up imports: creating a dataclass costs about a millisecond
# (and the dataclasses module several), a NamedTuple (a class with _fields)
# about a tenth of one, so the records are plain classes.
_IMPORTS_PROBE = """
import numpy, sys
import qig.cli
print("dataclasses" in sys.modules, sorted(
    name for name, mod in list(sys.modules.items()) if name.split(".")[0] == "qig"
    and any(hasattr(v, "__dataclass_fields__")
            or isinstance(v, type) and hasattr(v, "_fields")
            for v in vars(mod).values())))
"""


def test_cli_start_up_creates_no_dataclass():
    env = dict(os.environ, PYTHONPATH="src")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE], capture_output=True,
                       text=True, env=env, cwd=root)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "[]"]


def test_in_process_main_leaves_the_collector_alone(capsys):
    enabled = gc.isenabled()
    assert cli.main(["ode", "solve", "--A", "1"]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled() == enabled


@pytest.mark.parametrize("argv,code", [(["ode", "solve", "--A", "1"], 0),
                                       (["metric", "--r", "1.5"], 2)])
def test_entry_freezes_once_before_parsing(argv, code, monkeypatch, capsys):
    # The entry freezes, then keeps the freed heap, then parses; main() in
    # process does neither.
    events = []
    freeze, build_parser = gc.freeze, cli.build_parser

    def record_freeze():
        events.append("freeze")
        freeze()

    def record_parser():
        events.append("parser")
        return build_parser()

    monkeypatch.setattr(gc, "freeze", record_freeze)
    monkeypatch.setattr(cli, "_keep_heap", lambda: events.append("heap"))
    monkeypatch.setattr(cli, "build_parser", record_parser)
    monkeypatch.setattr(sys, "argv", ["qig", *argv])
    try:
        assert cli.entry() == code
    finally:
        gc.unfreeze()
    assert events == ["freeze", "heap", "parser"]
    out = capsys.readouterr().out
    assert cli.main(argv) == code and capsys.readouterr().out == out
    assert events == ["freeze", "heap", "parser", "parser"]


def test_in_process_entry_leaves_a_loaded_hashlib_alone(monkeypatch, capsys):
    loaded = pytest.importorskip("_hashlib")
    monkeypatch.setattr(cli, "_keep_heap", lambda: None)  # the test process's allocator
    monkeypatch.setattr(sys, "argv", ["qig", "ode", "solve", "--A", "1"])
    try:
        assert cli.entry() == 0
    finally:
        gc.unfreeze()
    assert sys.modules["_hashlib"] is loaded


# A `qig` process after a command that imports numpy.random, whose import
# of secrets loads hmac and hashlib: both work, on their builtin code, and
# OpenSSL's libcrypto is not mapped.
_OPENSSL_PROBE = """
import contextlib, io, os, sys
from qig import cli
sys.argv = ["qig", "verify", "monotone"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.entry()
import hashlib, hmac
maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
print(code, "numpy.random" in sys.modules, sys.modules["_hashlib"],
      "libcrypto" in maps, hashlib.sha256(b"qig").hexdigest(),
      hmac.new(b"key", b"qig", "sha256").hexdigest())
"""


def test_entry_loads_no_openssl():
    env = dict(os.environ, PYTHONPATH="src")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run([sys.executable, "-c", _OPENSSL_PROBE], capture_output=True,
                       text=True, env=env, cwd=root)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [
        "0", "True", "None", "False", hashlib.sha256(b"qig").hexdigest(),
        hmac.new(b"key", b"qig", "sha256").hexdigest()]


def _minor_faults(*args) -> int:
    """Minor page faults of one `python args` child, read through os.wait4."""
    env = dict(os.environ, PYTHONPATH="src")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=root,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


# The monotone scan frees its working set after each block of rows.  A `qig`
# process keeps that memory mapped for the next block, so the command faults
# in few pages beyond those of its imports: about 400 on glibc, against about
# 13 000 when each block's memory went back to the kernel and faulted in again.
@pytest.mark.skipif(not hasattr(os, "wait4") or platform.libc_ver()[0] != "glibc",
                    reason="needs os.wait4 and glibc's mallopt")
def test_verify_monotone_keeps_its_freed_heap():
    imports = _minor_faults("-c", "import qig.cli, numpy.random")
    command = _minor_faults("-m", "qig.cli", "verify", "monotone", "--seed", "0")
    assert command - imports < 3000, (command, imports)


def test_python_m_prints_what_main_prints(capsys):
    r = run("verify", "poles", "--seed", "0")
    code = cli.main(["verify", "poles", "--seed", "0"])
    assert (r.returncode, r.stdout) == (code, capsys.readouterr().out)
    assert code == 0


_ID = '{"sl_matrix":[[1,0],[0,0],[0,0],[1,0]]}'
_CENTER = '{"bloch":[0,0,0]}'


def _act(family, g_json=_ID, state_json=_CENTER, *extra):
    return ["act", "--family", family, *extra, "--g-json", g_json,
            "--state-json", state_json]


# The cheapest valid command line of each leaf command of cli.COMMANDS.
_LEAF_ARGS = {
    "metric": [],
    "field": ["--field", "x:1,0,0"],
    "bracket": ["--v", "x:1,0,0", "--w", "x:0,1,0"],
    "ode classify": [],
    "ode solve": ["--A", "2"],
    "ode poles": ["--B", "1"],
    "act": _act("bh")[1:],
    "verify": ["poles"],
    "export": ["--what", "f-curves", "--steps", "3"],
}


def _commands(table, prefix=()):
    """Every command path of a COMMANDS table, groups before their leaves,
    as (path, is_leaf)."""
    for name, (handler, _, _) in table.items():
        path = prefix + (name,)
        yield path, not isinstance(handler, dict)
        if isinstance(handler, dict):
            yield from _commands(handler, path)


def test_every_leaf_command_has_args():
    assert {" ".join(path) for path, leaf in _commands(cli.COMMANDS) if leaf} \
        == set(_LEAF_ARGS)


@pytest.mark.parametrize("leaf", sorted(_LEAF_ARGS))
def test_output_flag_on_every_leaf(leaf, tmp_path, capsys):
    out = tmp_path / "out"
    argv = leaf.split() + _LEAF_ARGS[leaf]
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    written = out.read_text()
    # stdout gets the same text, ended by a newline if it has none.
    assert capsys.readouterr().out in (written, written + "\n")


@pytest.mark.parametrize("leaf", sorted(set(_LEAF_ARGS) - {"verify"}))
def test_only_verify_takes_seed(leaf, capsys):
    # --seed, --samples, --tolerance and --config are read by verify alone.
    code = cli.main(leaf.split() + _LEAF_ARGS[leaf] + ["--seed", "0"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["error"] == "InputError"
    assert "--seed" in data["message"]


@pytest.mark.parametrize("path", [()] + [path for path, _ in _commands(cli.COMMANDS)],
                         ids=lambda path: " ".join(("qig",) + path))
def test_help_exits_0(path, capsys):
    # argparse formats a help string only when -h runs.
    with pytest.raises(SystemExit) as exit_:
        cli.main([*path, "-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(('qig',) + path)}")


# (argv, flag the message must name or None).  Malformed input must name the
# flag it came from; non-finite parameters must be rejected, not run to NaN.
_BAD_INPUT = [
    (_act("bh", g_json="notjson"), "--g-json"),
    (_act("bh", state_json="notjson"), "--state-json"),
    (_act("bh", g_json="{}"), "--g-json"),
    (_act("bkm", g_json='{"a":{"pauli":[0,0,0]}}'), "--g-json"),
    (_act("bkm", g_json='{"unitary":[[1,0],[0,0],[0,0],[1,0]]}'), "--g-json"),
    (_act("bh", g_json='{"sl_matrix":[[1,0],[0,0],[1,0]]}'), "--g-json"),
    (_act("bh", state_json='{"bloch":[0,0]}'), "--state-json"),
    (["export", "--what", "flow", "--steps", "0"], "--steps"),
    (["export", "--what", "orbit", "--steps", "0"], "--steps"),
    (["export", "--what", "overlay", "--steps", "0"], "--steps"),
    (["metric", "--spec", "fa", "--A", "nan", "--r", "0.5"], None),
    (_act("alphaA", _ID, _CENTER, "--A", "nan"), None),
    (_act("bh", state_json='{"bloch":[NaN,0,0]}'), None),
    (["metric", "--spec", "fb", "--B", "inf"], None),
    (["export", "--what", "orbit", "--t-end", "nan"], None),
    (_act("bkm", '{"unitary":[[1,0],[0,0],[0,0],[1,0]],"a":{"pauli":[NaN,0,0]}}'),
     "--g-json"),
    (["export", "--what", "flow", "--start", "a,b"], None),
    (["bracket", "--v", "x:1,0,0", "--w", "x:0,1,0", "--h", "nan"], None),
    (["bracket", "--v", "x:1,0,0", "--w", "x:0,1,0", "--h", "0"], None),
    (["metric", "--chart", "cartesian", "--x", "nan", "--y", "0", "--z", "0"], None),
    (["field", "--chart", "cartesian", "--x", "nan", "--y", "0", "--z", "0",
      "--field", "y:1,0,0"], None),
    (["field", "--chart", "cartesian", "--x", "nan", "--y", "0", "--z", "0",
      "--field", "x:1,0,0"], None),
    (["export", "--what", "f-curves", "--t-min", "nan", "--steps", "3"], None),
    (["ode", "poles", "--B", "nan"], None),
    (["ode", "poles", "--B", "inf"], None),
    (["ode", "poles", "--B", "1", "--c", "inf"], None),
    (["verify", "poles", "--config", "/nonexistent/qig.cfg"], "--config"),
    (["metric", "--chart", "cartesian", "--x", "-inf"], "--x"),
    (["verify", "actions", "--samples", "-5"], "--samples"),
    (["verify", "poles", "--seed", "-1"], "--seed"),
    (["verify", "poles", "--tolerance", "inf"], "--tolerance"),
    (["verify", "poles", "--output", "/nonexistent/dir/report.json"], "--output"),
    (["ode", "poles", "--B", "1", "-n", "0"], None),
    (["ode", "poles", "--B", "1", "-n", "-5"], None),
    (["ode", "classify", "--grid-steps", "-1"], "--grid-steps"),
    # One past each cap: the check rejects the value before any work starts.
    (["export", "--what", "overlay", "--steps", str(cli.MAX_STEPS + 1)], "--steps"),
    (["export", "--what", "f-curves", "--steps", str(cli.MAX_STEPS + 1)], "--steps"),
    (["ode", "poles", "--B", "1", "-n", str(cli.MAX_POLES + 1)], "-n/--count"),
    (["ode", "classify", "--grid-steps", str(cli.MAX_GRID_STEPS + 1)],
     "--grid-steps"),
    (["verify", "actions", "--samples", str(cli.MAX_SAMPLES + 1)], "--samples"),
    # A suite flag that no selected suite reads.
    (["verify", "poles", "--spec", "nonsense", "--samples", "7"], "--spec"),
    (["verify", "poles", "--samples", "7"], "--samples"),
    (["verify", "monotone", "--tolerance", "5"], "--tolerance"),
    (_act("bh", g_json='{"sl_matrix": [[1,0],[0,0],[0,0]]}'), "--g-json: data = "),
]


@pytest.mark.parametrize("argv,flag", _BAD_INPUT)
def test_bad_input_is_json_error_exit_2(argv, flag, capsys):
    code = cli.main(argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert set(data) == {"error", "message"}
    if flag is not None:
        assert flag in data["message"]


@pytest.mark.parametrize("pauli,named", [
    ("[0.1,0.2,0.3,0.4]", "[0.1, 0.2, 0.3, 0.4]"),
    ("[0.1]", "[0.1]"),
    ('"abc"', "'abc'"),
    ("[0.1,[0.2],0.3]", "[0.1, [0.2], 0.3]"),
    ("[Infinity,0,0]", "(inf, 0.0, 0.0)")])
def test_g_json_pauli_needs_three_finite_reals(pauli, named, capsys):
    # A fourth value was dropped and a short list raised IndexError.
    g_json = '{"unitary":[[1,0],[0,0],[0,0],[1,0]],"a":{"pauli":%s}}' % pauli
    code = cli.main(_act("bkm", g_json))
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["error"] == "DomainError"
    assert re.match(r"--g-json: ", data["message"]) and named in data["message"]


# Config values that are not a seed >= 0, a sample count >= 1 or a finite
# tolerance > 0; each names the key in the file.
@pytest.mark.parametrize("body", ["seed = inf", "samples = 1e999", "seed = 1.5",
                                  "seed = -1", "samples = 0", "samples = x",
                                  f"samples = {cli.MAX_SAMPLES + 1}",
                                  "tolerance = nan", "tolerance = 0",
                                  "output = 3"])
def test_bad_config_value_is_json_error_exit_2(body, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body + "\n")
    code = cli.main(["verify", "poles", "--config", str(cfg)])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert set(data) == {"error", "message"}
    assert str(cfg) in data["message"] and body.split()[0] in data["message"]


@pytest.mark.parametrize("flag,cap", [("--steps", cli.MAX_STEPS),
                                      ("-n/--count", cli.MAX_POLES),
                                      ("--grid-steps", cli.MAX_GRID_STEPS)])
def test_count_check_admits_the_cap(flag, cap):
    # Checked without a run: a run at the cap takes seconds.
    cli._check_count(flag, cap, cap)
    with pytest.raises(InputError, match=flag):
        cli._check_count(flag, cap + 1, cap)


# Numeric flag values a user can type that break naive comparisons.  They
# are passed as --flag=value: argparse takes a separate "-inf" for a flag.
_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "-1e308",
                            "1e-308", "0.3", "-0.2", "0.5", "0.999", "2"])
_JSON_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_G_JSON = ['{"sl_matrix":[[1,0],[0,0],[0,0],[1,0]]}',
           '{"sl_matrix":[[2,0],[0,0],[0,0],[0.5,0]]}',
           '{"unitary":[[1,0],[0,0],[0,0],[1,0]],"a":{"pauli":[0.3,0,0]}}']


@st.composite
def _cheap_argv(draw):
    def num():
        return draw(_NUMBERS)

    kind = draw(st.sampled_from(["metric", "field", "bracket", "poles", "act",
                                 "f-curves"]))
    if kind == "poles":
        return ["ode", "poles", f"--B={num()}", f"--c={num()}",
                "-n", str(draw(st.integers(0, 4)))]
    if kind == "act":
        bloch = ",".join(_JSON_NUMBERS.get(v, v) for v in (num(), num(), num()))
        return ["act", "--family", draw(st.sampled_from(["bh", "wy", "alphaA", "bkm"])),
                f"--A={num()}", "--g-json", draw(st.sampled_from(_G_JSON)),
                "--state-json", '{"bloch":[%s]}' % bloch]
    if kind == "f-curves":
        return ["export", "--what", "f-curves", f"--t-min={num()}",
                f"--t-max={num()}", "--steps", str(draw(st.integers(0, 4))),
                "--a-list", *(a for a in (num(), num()) if not a.startswith("-"))]
    chart = "cartesian" if kind == "bracket" else draw(
        st.sampled_from(["spherical", "cartesian"]))
    spec = draw(st.sampled_from(["bh", "bkm", "wy", "rld", "fa", "fb"]))
    argv = [kind, "--spec", spec, "--chart", chart] + [
        f"--{flag}={num()}" for flag in ("A", "B", "c", "r", "theta", "phi",
                                         "x", "y", "z")]
    if kind == "metric" and draw(st.booleans()):
        argv.append("--inverse")
    if kind == "field":
        argv += ["--field", draw(st.sampled_from(["x:1,0,0", "y:0.3,-0.2,0.5",
                                                  "ym:0,1,0", "ya:0.2,0.2,0.2"]))]
    if kind == "bracket":
        argv += ["--v", draw(st.sampled_from(["x:1,0,0", "y:0,1,0"])),
                 "--w", draw(st.sampled_from(["y:0,0,1", "ya:1,0,0"])), f"--h={num()}"]
    return argv


@settings(max_examples=150, deadline=None)
@given(_cheap_argv())
def test_cli_fuzz_exit_codes_and_json_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert set(json.loads(out.getvalue())) == {"error", "message"}


# Each printed an infinity or NaN (not valid JSON) and exited 0, after a raw
# RuntimeWarning; the error names the point or the t.
@pytest.mark.parametrize("argv,named", [
    (["field", "--field", "y:1e308,1e308,0", "--r", "0.5"],
     "point = [0.5, 1.5707963267948966, 0.0] has a velocity"),
    (["field", "--chart", "cartesian", "--field", "ya:1e308,0,0", "--A", "0.01"],
     "point = [0.5, 0.0, 0.0] has a velocity"),
    (["bracket", "--v", "y:1e308,0,0", "--w", "y:0,1e308,0"],
     "point = [0.5, 0.0, 0.0] has a Lie bracket"),
    (["ode", "classify", "--spec", "bkm", "--grid-min", "1e-300", "--grid-max", "0.5",
      "--grid-steps", "20"], "r = 1e-300 makes F of bkm not finite"),
], ids=["field-spherical", "field-cartesian", "bracket", "classify"])
def test_non_finite_result_is_numeric_error_exit_3(argv, named, capsys):
    code = cli.main(argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data["error"] == "NumericError" and data["message"].startswith(named)


@pytest.mark.parametrize("spec,branch", [(["bkm"], "bkm_a0"),
                                         (["fa", "--A", "2"], "family_a_pos")],
                         ids=["bkm", "family_a(2)"])
def test_classify_near_the_centre_finds_the_constant_branch(spec, branch, capsys):
    # g' from the log of a rounded (1+r)/(1-r) put F of bkm 5.6e-5 off at
    # r = 1e-4, so the grid read as not constant ("none").
    code = cli.main(["ode", "classify", "--spec", *spec, "--grid-min", "1e-4",
                     "--grid-max", "0.9", "--grid-steps", "50"])
    assert code == 0 and json.loads(capsys.readouterr().out)["branch"] == branch


def test_classify_labels_zero_within_the_spread_of_f(capsys):
    # F of bkm reads -6.0e-9 on this grid, within its rounding spread of
    # 3.6e-7 but beyond the absolute 1e-9: it was labelled family_b_neg.
    code = cli.main(["ode", "classify", "--spec", "bkm", "--grid-min", "3e-5",
                     "--grid-max", "1e-4", "--grid-steps", "50"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["branch"] == "bkm_a0"
    assert abs(data["constant"]) > 1e-9 and abs(data["constant"]) <= data["range_width"]


@pytest.mark.parametrize("a_const", ["1e-300", "1e-32", "1e6"])
def test_act_alpha_identity_returns_the_state(a_const, capsys):
    # The centre at A = 1e-300, 0.10 off at A = 1e-32, and exit 3 at A = 1e6.
    code = cli.main(["act", "--family", "alphaA", "--A", a_const, "--g-json",
                     '{"sl_matrix": [[1,0],[0,0],[0,0],[1,0]]}',
                     "--state-json", '{"bloch": [0.1, 0.2, 0.3]}'])
    bloch = json.loads(capsys.readouterr().out)["bloch"]
    assert code == 0
    assert max(abs(got - want) for got, want in zip(bloch, [0.1, 0.2, 0.3])) <= 1e-15


@pytest.mark.parametrize("a_const,code,out", [
    ("1e-12", 0, {"A": 1e-12, "excluded": False, "spec": "family_a(1e-12)"}),
    ("-1e-12", 3, {"error": "NumericError", "message": "B = 2.5e-13, c = 0.0: pole t_0 "
                   "= 0.0 is 0 or not below the pole before it (poles collide)"})])
def test_ode_solve_near_zero_takes_the_branch_of_its_sign(a_const, code, out, capsys):
    # A tiny A once snapped to bkm; family_a(A) now tends to it continuously,
    # and a tiny negative A has poles that underflow to t = 0.
    assert cli.main(["ode", "solve", f"--A={a_const}"]) == code
    assert json.loads(capsys.readouterr().out) == out


def test_f_curves_of_a_tiny_a_are_the_bkm_curve(capsys):
    # family_a(A) -> bkm as A -> 0; 1 - t^sqrt(A) rounded to 0 at A = 1e-300,
    # and the export exited 3 naming t = 0.005.
    code = cli.main(["export", "--what", "f-curves", "--a-list", "1e-300", "--steps", "3"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert code == 0 and header == "t,f_A1e-300"
    for t, f in (map(float, row.split(",")) for row in rows):
        assert f == pytest.approx(1.0 if t == 1.0 else (t - 1.0) / math.log(t),
                                  rel=1e-15, abs=0.0)
    assert len(rows) == 3


# A valid state and a finite element whose computed image rounds onto the
# sphere: a numeric failure (exit 3), where a state passed in on the sphere
# is an input error (exit 2).
@pytest.mark.parametrize("argv,named", [
    (["act", "--family", "bkm", "--g-json",
      '{"unitary": [[1,0],[0,0],[0,0],[1,0]], "a": {"pauli": [40,0,0]}}',
      "--state-json", '{"bloch": [0.1,0,0]}'], "Bloch point = [1.0, 0.0, 0.0] "),
    (["act", "--family", "bh", "--g-json",
      '{"sl_matrix": [[1e8,0],[0,0],[0,0],[1e-8,0]]}',
      "--state-json", '{"bloch": [0.1,0,0.2]}'], "Bloch point = [1.6666666666666667e-17, "),
], ids=["bkm", "bh"])
def test_saturated_action_image_is_numeric_error_exit_3(argv, named, capsys):
    code = cli.main(argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data["error"] == "NumericError" and data["message"].startswith(named)
    code = cli.main(argv[:-1] + ['{"bloch": [1.0, 0, 0]}'])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "BoundaryViolation"
