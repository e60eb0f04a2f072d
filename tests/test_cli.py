"""End-to-end runs of the experiment CLI in subprocesses."""

import math
import os
import subprocess
import sys
import warnings

import pytest

from kmslab import cli

RUN = [sys.executable, "-m", "kmslab.cli"]

# Liouville runs at dim 1 300 (n_tot_max = 2), with the evolution cut at a
# fixed 197 steps.
SMALL_LIOUVILLE = ("[liouville]\nn_tot_max = 2\nevolve_n_tot_max = 2\n"
                   "t_max = 98.5\n")


def _run(args, cwd, env, env_extra=None, timeout=240):
    env = dict(env, **(env_extra or {}))
    return subprocess.run(RUN + args, cwd=str(cwd), env=env,
                          capture_output=True, text=True, timeout=timeout)


def _line_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError("no %r line in:\n%s" % (key, text))


def _stdout_value(proc, key):
    return _line_value(proc.stdout, key)


def test_formfactor_run_and_outputs(tmp_path, cli_env):
    proc = _run(["--out", "run", "formfactor"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    err = float(_stdout_value(proc, "jf_identity_max_err"))
    assert err < 1e-12
    out = tmp_path / "run"
    csv = out / "formfactor.csv"
    assert csv.exists()
    assert csv.read_text().splitlines()[0] == "s,re,im"
    manifest = (out / "manifest.txt").read_text()
    assert "command=formfactor" in manifest
    assert "beta=1" in manifest
    assert "seed=0" in manifest


def test_formfactor_runs_are_byte_identical(tmp_path, cli_env):
    for name in ("a", "b"):
        proc = _run(["--out", name, "formfactor"], tmp_path, cli_env)
        assert proc.returncode == 0, proc.stderr
    fa = (tmp_path / "a" / "formfactor.csv").read_bytes()
    fb = (tmp_path / "b" / "formfactor.csv").read_bytes()
    assert fa == fb


def test_validation_failure_exit_code(tmp_path, cli_env):
    proc = _run(["--out", "run", "formfactor", "--beta", "-1"], tmp_path,
                cli_env)
    assert proc.returncode == 2
    assert "[global] beta" in proc.stderr


def test_unknown_subcommand_exit_code(tmp_path, cli_env):
    proc = _run(["no-such-command"], tmp_path, cli_env)
    assert proc.returncode == 1
    assert "No such command" in proc.stderr


def test_env_override_changes_beta(tmp_path, cli_env):
    proc = _run(["--out", "run", "formfactor"], tmp_path, cli_env,
                env_extra={"KMSLAB_GLOBAL_BETA": "2.0"})
    assert proc.returncode == 0, proc.stderr
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert "beta=2" in manifest


def test_config_file_layering(tmp_path, cli_env):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("[global]\nbeta = 4.0\nn_grid = 256\n")
    proc = _run(["--config", str(cfg), "--out", "run", "formfactor"],
                tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert "beta=4" in manifest
    # env wins over the file, flags win over both
    proc = _run(["--config", str(cfg), "--out", "run2", "formfactor",
                 "--beta", "3.0"], tmp_path, cli_env,
                env_extra={"KMSLAB_GLOBAL_BETA": "2.0"})
    assert proc.returncode == 0, proc.stderr
    manifest = (tmp_path / "run2" / "manifest.txt").read_text()
    assert "beta=3" in manifest


def test_config_rejects_unknown_key(tmp_path, cli_env):
    # gap is a [liouville] key, not a [detector] one
    for text, key in (("[global]\nbogus = 1\n", "bogus"),
                      ("[detector]\ngap = 1.0\n", "gap")):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(text)
        proc = _run(["--config", str(cfg), "--out", "run", "formfactor"],
                    tmp_path, cli_env)
        assert proc.returncode == 2
        assert key in proc.stderr


def test_env_rejects_unknown_key(tmp_path, monkeypatch, capsys):
    # KMSLAB_THREADS too: no variable sets a thread count
    for name in ("KMSLAB_GLOBAL_BTEA", "KMSLAB_DETECTOR_GAP",
                 "KMSLAB_THREADS"):
        with monkeypatch.context() as m:
            m.setenv(name, "7")
            assert cli.main(["--out", str(tmp_path / "run"),
                             "formfactor"]) == 2
        assert name in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args, env", [
    (["kms-check", "--t-span", "1e12"], {}),
    (["disjoint"], {"KMSLAB_DISJOINTNESS_N_MAX_MODES": "1000000000000"}),
], ids=["kms-check", "disjoint"])
def test_an_allocation_the_machine_cannot_make_exits_2(
        tmp_path, monkeypatch, capsys, args, env):
    # 36.4 TiB and 7.28 TiB arrays; the address-space cap refuses them at
    # once even on a host that overcommits memory without limit
    import resource
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30 if hard == resource.RLIM_INFINITY else min(hard, 64 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code = cli.main(["--out", str(tmp_path / "run")] + args)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("memory error: Unable to allocate ")
    assert err.count("\n") == 1


def test_group_options_are_config_out_seed_and_version(tmp_path, capsys):
    # the code sets every thread count itself; no option sets one
    assert [p.name for p in cli.cli.params] == [
        "config", "out", "seed", "version"]
    assert cli.main(["--help"]) == 0
    options = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  --")]
    assert options == ["--config", "--out", "--seed", "--version", "--help"]
    assert cli.main(["--threads", "2", "--out", str(tmp_path / "run"),
                     "formfactor"]) == 1
    assert "No such option '--threads'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_import_leaves_the_numeric_libraries_unloaded(tmp_path, cli_env):
    # a fresh process's numeric libraries load inside the subcommand, after
    # the group callback has pinned their thread pools in the environment
    code = ("import sys, kmslab.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                          env=cli_env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class _FakePool:
    """A BLAS pool's thread count behind fake get and set functions."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


def _counts_during_subcommands(monkeypatch, pools):
    """Substitute pools for the loaded OpenBLAS builds; the returned list
    receives their counts as each subcommand writes its manifest.  The
    environment's pins are put back after the test."""
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.setattr(cli, "_openblas_pools",
                        lambda: [(pool.get, pool.set) for pool in pools])
    seen = []
    write = cli._write_manifest

    def recording(ctx, extra=()):
        seen.append([pool.count for pool in pools])
        return write(ctx, extra)

    monkeypatch.setattr(cli, "_write_manifest", recording)
    return seen


def test_blas_runs_on_one_thread_during_a_subcommand(tmp_path, monkeypatch):
    pools = [_FakePool(2), _FakePool(5)]
    seen = _counts_during_subcommands(monkeypatch, pools)
    assert cli.main(["--out", str(tmp_path / "run"), "formfactor"]) == 0
    assert seen == [[1, 1]]
    # each count is back after the subcommand; libraries that load later
    # read the environment
    assert [pool.count for pool in pools] == [2, 5]
    assert [os.environ[var] for var in cli._THREAD_VARS] == ["1"] * 4


def test_blas_counts_are_restored_when_a_subcommand_fails(
        tmp_path, monkeypatch, capsys):
    pools = [_FakePool(2), _FakePool(5)]
    seen = _counts_during_subcommands(monkeypatch, pools)
    out = ["--out", str(tmp_path / "run")]
    # a refusal, reported with its exit code
    assert cli.main(out + ["formfactor", "--beta", "-1"]) == 2
    assert "validation error" in capsys.readouterr().err
    assert [pool.count for pool in pools] == [2, 5]

    def failing(ctx, extra=()):
        seen.append([pool.count for pool in pools])
        raise RuntimeError("disk gone")

    # and an error that comes out of main unchanged
    monkeypatch.setattr(cli, "_write_manifest", failing)
    with pytest.raises(RuntimeError, match="disk gone"):
        cli.main(out + ["formfactor"])
    assert seen == [[1, 1]]
    assert [pool.count for pool in pools] == [2, 5]


def test_a_missing_openblas_is_nothing_to_cap(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.setattr(cli, "_OPENBLAS", (
        # not loaded, loaded without a file, not a shared library, and a
        # shared library without the symbols
        ("kmslab_no_such_module", "get", "set"),
        ("sys", "get", "set"),
        ("kmslab.cli", "get", "set"),
        ("math", "no_such_get_num_threads", "no_such_set_num_threads"),
    ))
    assert cli._openblas_pools() == []
    assert cli.main(["--out", str(tmp_path / "run"), "formfactor"]) == 0
    assert [os.environ[var] for var in cli._THREAD_VARS] == ["1"] * 4


def test_formfactor_leaves_scipy_unloaded(tmp_path, cli_env):
    # the cap finds the loaded libraries without importing any
    code = ("import sys; from kmslab import cli; "
            "code = cli.main(['--out', 'run', 'formfactor']); "
            "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                          env=cli_env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True False"


def test_blas_cap_reaches_the_loaded_openblas(tmp_path, monkeypatch):
    import numpy  # noqa: F401  the libraries whose pools are capped
    import scipy.linalg  # noqa: F401
    pools = cli._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread-count setter found")
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "7")
    seen = []
    write = cli._write_manifest

    def recording(ctx, extra=()):
        seen.append([get() for get, _ in pools])
        return write(ctx, extra)

    monkeypatch.setattr(cli, "_write_manifest", recording)
    saved = [get() for get, _ in pools]
    try:
        for _, set_ in pools:
            set_(2)
        assert cli.main(["--out", str(tmp_path / "run"), "formfactor"]) == 0
        assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, set_), count in zip(pools, saved):
            set_(count)
    assert seen == [[1] * len(pools)]


# A child whose environment asks for one or for two BLAS and OpenMP
# threads writes the same bytes: each subcommand runs BLAS on one thread,
# rte-evolve propagates on the calling thread (its 650-row block) or on
# two threads (the 40 256-row block: the products on the caller, the folds
# and drift checks on one worker) whatever the environment says, and
# rte-spectrum's shift-invert eigensolve calls BLAS
@pytest.mark.parametrize("command, config", [
    ("rte-evolve", "evolve_n_tot_max = 2\nt_max = 20\n"),
    ("rte-evolve", "evolve_n_tot_max = 4\nt_max = 20\n"),
    ("rte-spectrum", ""),
], ids=["rte-evolve-2", "rte-evolve-4", "rte-spectrum"])
def test_thread_count_changes_no_byte(tmp_path, cli_env, command, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[liouville]\n" + config)
    env = {k: v for k, v in cli_env.items() if not k.endswith("_NUM_THREADS")}
    outputs = []
    for threads in ("1", "2"):
        proc = _run(["--config", str(cfg), "--out", threads, command],
                    tmp_path, env, env_extra={"OPENBLAS_NUM_THREADS": threads,
                                              "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / threads
        outputs.append((proc.stdout, {path.name: path.read_bytes()
                                      for path in sorted(out.iterdir())}))
    assert len(outputs[0][1]) == 2
    assert outputs[0] == outputs[1]


def test_kms_check_outputs(tmp_path, cli_env):
    proc = _run(["--out", "run", "kms-check"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    assert float(_stdout_value(proc, "max_err")) < 1e-3
    out = tmp_path / "run"
    head = (out / "kms_check_spectrum.csv").read_text().splitlines()[0]
    assert head == "nu,spectrum_pos,spectrum_neg"
    assert (out / "kms_check_report.txt").exists()


def test_response_rest_balance(tmp_path, cli_env):
    proc = _run(["--out", "run", "response"], tmp_path, cli_env,
                env_extra={"KMSLAB_DETECTOR_ENERGIES": "0.5,1.0"})
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "run" / "response.csv").read_text().splitlines()
    assert lines[0] == "E,rate_up,rate_down,balance"
    assert len(lines) == 3
    for line in lines[1:]:
        E, up, down, bal = map(float, line.split(","))
        assert abs(bal / math.exp(-E) - 1.0) < 0.02
    beff = (tmp_path / "run" / "response_beta_eff.csv").read_text().splitlines()
    assert beff[0] == "E,beta_eff"


def test_disjoint_small_run(tmp_path, cli_env):
    proc = _run(["--out", "run", "disjoint"], tmp_path, cli_env,
                env_extra={"KMSLAB_DISJOINTNESS_N_MAX_MODES": "10"})
    assert proc.returncode == 0, proc.stderr
    assert _stdout_value(proc, "n_star") == "none"
    lines = (tmp_path / "run" / "disjoint.csv").read_text().splitlines()
    assert lines[0] == "n,fidelity"
    assert len(lines) == 11
    meta = (tmp_path / "run" / "disjoint.csv.meta").read_text().splitlines()
    assert [line.split("=", 1)[0] for line in meta] == [
        "family", "threshold", "n_star", "log_slope", "state1", "state2"]
    assert meta[0] == "family=adapted:n=10,s_lo=0.10000000000000001,s_hi=5"
    assert meta[1:3] == ["threshold=0.01", "n_star=none"]
    assert meta[3] == "log_slope=" + _stdout_value(proc, "log_slope")
    assert meta[4].startswith("state1=QuasiFreeState(beta=1.0, ")


def test_readme_accelerated_example(tmp_path, cli_env):
    args = ["--out", "runs/rs", "response", "--trajectory", "accelerated"]
    proc = _run(args + ["--beta", "inf"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    for line in lines:
        fields = dict(kv.split("=") for kv in line.split())
        assert set(fields) == {"E", "balance", "beta_eff"}
        # vacuum on the hyperbolic orbit reads the Unruh value 2 pi / a
        assert abs(float(fields["beta_eff"]) / (2.0 * math.pi) - 1.0) < 0.01
    proc = _run(args, tmp_path, cli_env)
    assert proc.returncode == 2
    assert "only the vacuum supports the accelerated worldline" in proc.stderr


def test_readme_layered_config_example(tmp_path, monkeypatch, capsys):
    # in process: config file, env var and defaults layered in one run
    (tmp_path / "lab.cfg").write_text(
        "[global]\nbeta = 2.0\n[detector]\nenergies = 0.5,1.0,2.0\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("KMSLAB_TRAJECTORY_KIND", "inertial")
    assert cli.main(["--config", "lab.cfg", "--out", "runs/r2",
                     "response"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["E=0.5", "E=1", "E=2"]
    manifest = (tmp_path / "runs" / "r2" / "manifest.txt").read_text()
    for entry in ("beta=2.0", "energies=0.5,1.0,2.0", "kind=inertial"):
        assert entry in manifest.splitlines()


# printed (balance, beta_eff) of the default response at E = 0.5, 1, 1.5, 2
# (the accelerated worldline in the vacuum)
DEFAULT_RESPONSE = {
    "rest": [(0.60684972155791062, 0.99894818852338174),
             (0.36826635206430702, 0.99894881983420314),
             (0.22348192582223939, 0.99894982466857973),
             (0.13561947661807663, 0.99895114045669231)],
    "inertial": [(0.59227220961734683, 1.0475778724743363),
                 (0.35318239916649946, 1.0407706439784412),
                 (0.21323705685042854, 1.0302338594498932),
                 (0.1308284084988082, 1.0169343365917947)],
    "accelerated": [(0.043456029608107356, 6.272011331421651),
                    (0.0018832912033528429, 6.2747343926432526),
                    (8.1487689475877081e-05, 6.2767057323348689),
                    (3.5237066698531758e-06, 6.2779985455972112)],
}


@pytest.mark.parametrize("kind", sorted(DEFAULT_RESPONSE))
def test_default_response_outputs_are_pinned(tmp_path, cli_env, kind):
    args = ["--out", "run", "response", "--trajectory", kind]
    if kind == "accelerated":
        args += ["--beta", "inf"]
    proc = _run(args, tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(DEFAULT_RESPONSE[kind])
    for line, e, (balance, beta_eff) in zip(
            lines, (0.5, 1.0, 1.5, 2.0), DEFAULT_RESPONSE[kind]):
        fields = dict(kv.split("=") for kv in line.split())
        assert float(fields["E"]) == e
        assert float(fields["balance"]) == pytest.approx(balance, rel=1e-9)
        assert float(fields["beta_eff"]) == pytest.approx(beta_eff, rel=1e-9)


# printed stdout of the default kms-check and mixing runs; the floats are
# pinned to 1e-8 relative, the other fields exactly
DEFAULT_QUASIFREE = {
    "kms-check": {"max_err": 0.00029663394878879507,
                  "max_band_err": 0.013653801275591862,
                  "negative_leakage": 0.26041493414757194,
                  "t_span": "200", "sigma_t": "40", "n_t": "2001",
                  "beta": "1", "nu_min": "0.10000000000000001",
                  "nu_max": "3.5", "nu_points": "171"},
    "mixing": {"two_point_tail_fraction": 6.8629038422698435e-07,
               "weyl_tail_fraction": 3.1615142762074082e-05},
}


@pytest.mark.parametrize("command", sorted(DEFAULT_QUASIFREE))
def test_default_quasifree_outputs_are_pinned(tmp_path, cli_env, command):
    proc = _run(["--out", "run", command], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    fields = dict(line.split("=", 1) for line in proc.stdout.splitlines())
    expect = DEFAULT_QUASIFREE[command]
    assert list(fields) == list(expect)
    for key, val in expect.items():
        if isinstance(val, float):
            assert float(fields[key]) == pytest.approx(val, rel=1e-8), key
        else:
            assert fields[key] == val, key


# printed stdout of disjoint at its defaults and at [disjointness] v = 0.5;
# n_star is pinned exactly, the floats to 1e-12 relative
DEFAULT_DISJOINT = {
    "": ("118", -0.024612493922891991, 0.0053199646747098981),
    "[disjointness]\nv = 0.5\n": ("115", -0.023038358480692935,
                                   0.0058155050808569378),
}


@pytest.mark.parametrize("config", sorted(DEFAULT_DISJOINT),
                         ids=["defaults", "v_0.5"])
def test_default_disjoint_outputs_are_pinned(tmp_path, cli_env, config):
    cfg = tmp_path / "disjoint.cfg"
    cfg.write_text(config)
    proc = _run(["--config", str(cfg), "--out", "run", "disjoint"],
                tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    fields = dict(line.split("=", 1) for line in proc.stdout.splitlines())
    assert list(fields) == ["n_star", "log_slope", "final_fidelity"]
    n_star, slope, final = DEFAULT_DISJOINT[config]
    assert fields["n_star"] == n_star
    assert float(fields["log_slope"]) == pytest.approx(slope, rel=1e-12)
    assert float(fields["final_fidelity"]) == pytest.approx(final, rel=1e-12)


def _response_with_energies(tmp_path, cli_env, energies, extra=(),
                            timeout=240):
    cfg = tmp_path / "energies.cfg"
    cfg.write_text("[detector]\nenergies = %s\n" % energies)
    return _run(["--config", str(cfg), "--out", "run", "response"]
                + list(extra), tmp_path, cli_env, timeout=timeout)


def test_response_refuses_a_rate_under_the_floor(tmp_path, cli_env):
    # R(6) ~ 1e-13 on the orbit lies under the floor 3.4e-12 of this grid
    # and read 5.03 in place of 2 pi; R(4) lies 3.5 times above its floor
    accel = ["--trajectory", "accelerated", "--beta", "inf"]
    proc = _response_with_energies(tmp_path, cli_env, "0.5,6", accel)
    assert proc.returncode == 2
    assert "|E| = 6 " in proc.stderr
    assert "floor" in proc.stderr
    assert not (tmp_path / "run" / "response.csv").exists()
    proc = _response_with_energies(tmp_path, cli_env, "0.5,4", accel)
    assert proc.returncode == 0, proc.stderr
    fields = dict(kv.split("=") for kv in proc.stdout.splitlines()[-1].split())
    assert fields["E"] == "4"
    assert float(fields["beta_eff"]) == pytest.approx(6.2785, abs=1e-4)


def test_response_refuses_a_tau_mesh_without_bound(tmp_path, cli_env):
    # the mesh would take ~4e300 panels and grow until killed
    proc = _response_with_energies(tmp_path, cli_env, "1e-300,1", timeout=5)
    assert proc.returncode == 2
    assert "panels" in proc.stderr
    assert "1e-300 to 1" in proc.stderr
    # 44 444 panels stay under the bound
    proc = _response_with_energies(tmp_path, cli_env, "1e-4,1")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


def test_response_rejects_a_massive_field(tmp_path, cli_env):
    cfg = tmp_path / "massive.cfg"
    cfg.write_text("[global]\nmass = 0.7\n")
    proc = _run(["--config", str(cfg), "--out", "run", "response"],
                tmp_path, cli_env)
    assert proc.returncode == 2
    assert "mass=0.7" in proc.stderr


# besides response, the subcommands whose field is massless (kms-check and
# mixing take a massive one)
@pytest.mark.parametrize("command", ["formfactor", "disjoint", "rte-spectrum",
                                     "rte-evolve"])
def test_massless_commands_reject_a_mass(tmp_path, monkeypatch, capsys,
                                         command):
    monkeypatch.setenv("KMSLAB_GLOBAL_MASS", "1")
    assert cli.main(["--out", str(tmp_path / "run"), command]) == 2
    assert "massless" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.txt").exists()


def test_kms_check_and_mixing_take_a_massive_field(tmp_path, cli_env):
    # the only commands that reach the massive dispersion sqrt(q^2 + m^2)
    mass = {"KMSLAB_GLOBAL_MASS": "1"}
    proc = _run(["--out", "kms", "kms-check"], tmp_path, cli_env, mass)
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        assert math.isfinite(float(line.split("=", 1)[1])), line
    assert float(_stdout_value(proc, "max_err")) < 1e-3
    proc = _run(["--out", "mix", "mixing"], tmp_path, cli_env, mass)
    assert proc.returncode == 0, proc.stderr
    for key in ("two_point_tail_fraction", "weyl_tail_fraction"):
        assert 0.0 <= float(_stdout_value(proc, key)) < 0.05
    for run in ("kms", "mix"):
        manifest = (tmp_path / run / "manifest.txt").read_text()
        assert "mass=1" in manifest.splitlines()


def test_rte_spectrum_needs_two_positive_couplings(tmp_path, monkeypatch,
                                                  capsys):
    # the splitting exponent is fitted over at least two positive couplings
    monkeypatch.setenv("KMSLAB_LIOUVILLE_LAMBDAS", "0")
    assert cli.main(["--out", str(tmp_path / "run"), "rte-spectrum"]) == 2
    assert "need at least two, got 0" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.txt").exists()


def test_rte_spectrum_twice_in_one_process_is_byte_identical(
        tmp_path, monkeypatch, capsys):
    # the second sweep orders its own columns, as the first did
    runs = []
    for k in range(2):
        cwd = tmp_path / str(k)
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["--out", "run", "rte-spectrum"]) == 0
        runs.append((capsys.readouterr().out,
                     (cwd / "run" / "rte_spectrum.csv").read_bytes(),
                     (cwd / "run" / "manifest.txt").read_bytes()))
    assert "fit_exponent=" in runs[0][0]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("gap", ["0.45", "5.6"])
def test_rte_evolve_refuses_a_gap_the_shell_grid_cannot_bracket(
        tmp_path, monkeypatch, capsys, gap):
    # rte-evolve's default shell grid, whose half width follows the seed
    monkeypatch.setenv("KMSLAB_LIOUVILLE_GAP", gap)
    for seed in ("0", "1", "2"):
        assert cli.main(["--seed", seed, "--out", str(tmp_path / "run"),
                         "rte-evolve"]) == 2
        err = capsys.readouterr().err
        assert "gap must lie in [0.52, 5.5]" in err and "got %s" % gap in err
    # the vacuum is refused first, under its own key
    monkeypatch.setenv("KMSLAB_GLOBAL_BETA", "inf")
    assert cli.main(["--out", str(tmp_path / "run"), "rte-evolve"]) == 2
    err = capsys.readouterr().err
    assert "[global] beta: beta must be positive and finite" in err
    assert "gap" not in err
    assert not (tmp_path / "run" / "manifest.txt").exists()


@pytest.mark.parametrize("gap", ["19", "20", "0.5"])
@pytest.mark.parametrize("command", ["rte-spectrum", "rte-evolve"])
def test_rte_commands_refuse_a_gap_without_a_finite_window(
        tmp_path, monkeypatch, capsys, command, gap):
    # at 19 and 20 the spectral density at the gap underflows, so the
    # golden-rule window would be [inf, inf]; at 0.5, T_rec * E < 25, so it
    # would be inverted; both commands refuse before any solve
    from kmslab import liouville as lv
    solves = []
    for name in ("kernel_splitting_sweep", "assemble_liouvillean"):
        monkeypatch.setattr(lv, name, lambda *args: solves.append(args))
    for key, value in (("GAP", gap), ("N_TOT_MAX", "1"),
                       ("EVOLVE_N_TOT_MAX", "1"),
                       ("EVOLVE_FAMILY", "jittered")):
        monkeypatch.setenv("KMSLAB_LIOUVILLE_" + key, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["--out", str(tmp_path / "run"), command]) == 2
    captured = capsys.readouterr()
    assert "gap %s: " % float(gap) in captured.err
    assert ("is below 25" if gap == "0.5"
            else "too small for a finite coupling window") in captured.err
    assert captured.out == "" and solves == []
    assert not (tmp_path / "run" / "manifest.txt").exists()


@pytest.mark.parametrize("command", ["rte-spectrum", "rte-evolve"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    assert cli.main(["--seed", "-1", "--out", str(tmp_path / "run"),
                     command]) == 1
    assert "Invalid value for '--seed'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_mixing_outputs(tmp_path, cli_env):
    proc = _run(["--out", "run", "mixing"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= float(_stdout_value(proc, "two_point_tail_fraction")) < 1e-3
    assert 0.0 <= float(_stdout_value(proc, "weyl_tail_fraction")) < 1e-3
    out = tmp_path / "run"
    head = (out / "mixing.csv").read_text().splitlines()[0]
    assert head == "t,abs_two_point,weyl_residual"
    assert "command=mixing" in (out / "manifest.txt").read_text()


def test_rte_spectrum_small_run(tmp_path, cli_env):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_LIOUVILLE)
    proc = _run(["--config", str(cfg), "--out", "run", "rte-spectrum"],
                tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    dims = [int(line.split()[1].split("=")[1])
            for line in proc.stdout.splitlines()
            if line.startswith("lambda=")]
    assert dims == [2, 1, 1, 1]      # the coupling splits the free kernel
    assert 1.8 <= float(_stdout_value(proc, "fit_exponent")) <= 2.2
    lines = (tmp_path / "run" / "rte_spectrum.csv").read_text().splitlines()
    assert lines[0] == "lambda,gap,fit_exponent"
    assert len(lines) == 5
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    for key in ("lu_nnz_max", "solves_total"):
        assert int(_line_value(manifest, key)) > 0


# exact stdout of both Liouville subcommands at SMALL_LIOUVILLE; a change to
# how the generator is stored or built must leave every byte as it is.  The
# leapfrog windows of liouville.evolve sum the same series in another order:
# pre_recurrence_min moved from 0.00019266519264266035 (9.7e-12 relative),
# and with windows of 14 outputs from 0.00019266519264080073 (1.6e-11)
SMALL_LIOUVILLE_STDOUT = {
    "rte-spectrum": (
        'lambda=0 kernel_dim=2 gap=6.3527471044072525e-22\n'
        'lambda=0.02 kernel_dim=1 gap=3.8197782355540839e-05\n'
        'lambda=0.040000000000000001 kernel_dim=1 gap=0.0001512527864388405\n'
        'lambda=0.080000000000000002 kernel_dim=1 gap=0.00058251060868133424\n'
        'theta=1.2701662267482409e-07\n'
        'fit_exponent=1.9653617684731906\n'
        'recurrence_time=45.511885694202604\n'
        'fgr_window=[6.7358256912314145, 9.0883124775847097]\n'),
    "rte-evolve": (
        'lambda=0.13746748338643031 '
        'fgr_window=[0.13746748338643031, 0.27264937432754133]\n'
        'recurrence_time=98.344268707849693\n'
        'crossing_time=14\n'
        'pre_recurrence_min=0.00019266519264379833\n'
        'reached=yes\n'),
}


@pytest.mark.parametrize("command", sorted(SMALL_LIOUVILLE_STDOUT))
def test_small_liouville_stdout_is_pinned(tmp_path, cli_env, command):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_LIOUVILLE)
    proc = _run(["--config", str(cfg), "--out", "run", command], tmp_path,
                cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SMALL_LIOUVILLE_STDOUT[command]


# exact stdout and propagation record of the default rte-evolve (dim 80 512,
# the 40 256-row block of the excited start, 197 steps); a change to the bits
# of liouville.evolve must update this pin on purpose
DEFAULT_RTE_EVOLVE_STDOUT = (
    'lambda=0.13746748338643031 '
    'fgr_window=[0.13746748338643031, 0.27264937432754133]\n'
    'recurrence_time=98.344268707849693\n'
    'crossing_time=11\n'
    'pre_recurrence_min=8.0913764773676844e-05\n'
    'reached=yes\n')
DEFAULT_RTE_EVOLVE_MANIFEST = ("norm_drift=5.773159728050814e-15",
                               "energy_drift=2.0339632755828063e-16",
                               "dim=80512", "matvecs_total=2314")


def test_default_rte_evolve_is_pinned(tmp_path, cli_env):
    proc = _run(["--out", "run", "rte-evolve"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEFAULT_RTE_EVOLVE_STDOUT
    manifest = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
    for line in DEFAULT_RTE_EVOLVE_MANIFEST:
        assert line in manifest


@pytest.mark.parametrize("initial",
                         ["excited", "one-boson", "entangled", "stationary"])
def test_rte_evolve_small_run(tmp_path, cli_env, initial):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_LIOUVILLE)
    proc = _run(["--config", str(cfg), "--out", "run", "rte-evolve"],
                tmp_path, cli_env,
                env_extra={"KMSLAB_LIOUVILLE_INITIAL": initial})
    assert proc.returncode == 0, proc.stderr
    assert _stdout_value(proc, "reached") == "yes"
    out = tmp_path / "run"
    lines = (out / "rte_evolve.csv").read_text().splitlines()
    assert lines[0] == "t,trace_distance"
    assert len(lines) == 1 + 197
    manifest = (out / "manifest.txt").read_text()
    assert "initial=%s" % initial in manifest
    for key in ("norm_drift", "energy_drift"):
        assert 0 <= float(_line_value(manifest, key)) < 1e-10
    # the energy window, two top-band quanta, keeps every row at this budget
    assert _line_value(manifest, "dim") == "1300"
    assert _line_value(manifest, "energy_max") == "10.075060504584201"


def test_stationary_start_computes_its_kms_vector_once(tmp_path, monkeypatch):
    # the stationary start is the reduced KMS vector, and so is the
    # distance's reference: one computation serves both, with the bits of
    # the full generator's run, which computes it twice
    import numpy as np
    from kmslab import liouville as lv
    kms = lv.perturbed_kms_vector
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return kms(*args, **kwargs)

    monkeypatch.setattr(lv, "perturbed_kms_vector", counting)
    monkeypatch.setenv("KMSLAB_LIOUVILLE_INITIAL", "stationary")
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_LIOUVILLE)
    out = tmp_path / "run"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "rte-evolve"]) == 0
    assert len(calls) == 1
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    space = lv.TruncatedFock(disc, n_tot_max=2,
                             energy_max=2.0 * float(abs(disc.s).max()))
    lam = lv.fgr_window(disc, 1.0)[0]
    L = lv.assemble_liouvillean(space, 1.0, np.array([[0.0, 1.0],
                                                      [1.0, 0.0]]), lam)
    report = lv.rte_distance_series(L, lv.INITIAL_STATES["stationary"](L),
                                    np.arange(0.5, 98.75, 0.5))
    assert len(calls) == 3
    rows = (out / "rte_evolve.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == list(
        report.distances)


# every config key that holds a number, with a subcommand that consumes it
NUMERIC_KEYS = [
    ("global", key, "formfactor") for key in ("beta", "mass", "zeta",
                                              "n_grid")
] + [
    ("detector", "energies", "response"),
    ("trajectory", "v", "response"),
    ("trajectory", "accel", "response"),
] + [
    ("liouville", key, "rte-spectrum")
    for key in ("gap", "n_side", "n_tot_max", "amplitude", "lambdas",
                "coupling_offdiagonal", "evolve_n_tot_max",
                "evolve_amplitude", "evolve_lambda", "dt", "t_max")
] + [
    ("disjointness", key, "disjoint")
    for key in ("beta2", "v", "n_max_modes", "s_lo", "s_hi", "threshold")
]


# inf is accepted only where it means the vacuum
VACUUM_KEYS = [("global", "beta"), ("disjointness", "beta2")]

# every numeric key with a text, a nan and (but for the vacuum keys) an inf
BAD_VALUES = [
    pytest.param(*keys, raw,
                 id="-".join(keys) + ("" if raw == "abc" else "-" + raw))
    for raw in ("abc", "nan", "inf") for keys in NUMERIC_KEYS
    if not (raw == "inf" and keys[:2] in VACUUM_KEYS)]


@pytest.mark.parametrize("section,key,command,raw", BAD_VALUES)
def test_non_numeric_config_value_rejected(tmp_path, monkeypatch, capsys,
                                           section, key, command, raw):
    monkeypatch.setenv("KMSLAB_%s_%s" % (section.upper(), key.upper()), raw)
    assert cli.main(["--out", str(tmp_path / "run"), command]) == 2
    assert "[%s] %s" % (section, key) in capsys.readouterr().err


# the vacuum (beta = inf) passes the parser, but these commands need a
# thermal state: rte-evolve overflowed and rte-spectrum met a singular factor
@pytest.mark.parametrize("command", ["rte-evolve", "rte-spectrum"])
def test_liouville_commands_reject_the_vacuum(tmp_path, monkeypatch, capsys,
                                              command):
    monkeypatch.setenv("KMSLAB_GLOBAL_BETA", "inf")
    assert cli.main(["--out", str(tmp_path / "run"), command]) == 2
    err = capsys.readouterr().err
    assert "[global] beta" in err and "positive and finite" in err


@pytest.mark.parametrize("command", ["formfactor", "kms-check", "mixing"])
def test_default_grid_commands_reject_the_vacuum(tmp_path, monkeypatch,
                                                 capsys, command):
    monkeypatch.setenv("KMSLAB_GLOBAL_BETA", "inf")
    assert cli.main(["--out", str(tmp_path / "run"), command]) == 2
    err = capsys.readouterr().err
    assert "beta must be positive and finite for the default momentum" in err
    assert "collapses to 0 at beta = inf" in err


def test_initial_choices_are_the_table_names():
    from kmslab.liouville import INITIAL_STATES
    parse = cli._SCHEMA["liouville"]["initial"][1]
    assert [parse(name) for name in INITIAL_STATES] == list(INITIAL_STATES)
    with pytest.raises(ValueError):
        parse("thermal")
