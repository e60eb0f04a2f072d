"""One workload process, started by run.py.

It imports kmslab with numpy and scipy (the set-up every CLI user pays),
then calls ``kmslab.cli.main`` for each invocation of the workload, pass
after pass, until ``--seconds`` have elapsed (at least one pass).  With
``--trace`` the calls run under the span recorder of tracing.py.  Its
record, including the spans, is written to ``<out>/child.json`` at exit.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_pass(cli, workload, k, args, config_paths, recorder):
    from workloads import cli_seed
    calls = []
    for inv in workload:
        out = os.path.join(args.out, "p%d" % k, inv.label)
        seed = cli_seed(inv, args.seed)
        argv = ["--out", out, "--seed", str(seed)]
        if inv.config is not None:
            argv += ["--config", config_paths[inv.label]]
        argv += list(inv.args)
        if recorder is not None:
            recorder.invocation = "%d/%s" % (k, inv.label)
        buf = io.StringIO()
        code, error = None, None
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # recorded and counted as a failed invocation
            error = traceback.format_exc()
        end = time.monotonic()
        calls.append({"label": inv.label, "seed": seed, "out": out,
                      "exit_code": code, "error": error,
                      "stdout": buf.getvalue(), "start": start, "end": end})
    return calls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True,
                    help="absolute src directory kmslab must come from")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import scipy.linalg
    import scipy.sparse.linalg
    import kmslab
    import kmslab.cli
    import kmslab.detector
    import kmslab.disjointness
    import kmslab.liouville
    import kmslab.oneparticle
    import kmslab.quasifree
    import kmslab.textio
    t_ready = time.monotonic()
    cpu_ready = _cpu_s()

    src = os.path.realpath(args.src)
    found = os.path.realpath(kmslab.__file__)
    if os.path.commonpath([found, src]) != src:
        sys.exit("kmslab was imported from %s, outside %s" % (found, src))

    record = {"t_ready": t_ready, "cpu_ready": cpu_ready,
              "kmslab_file": found,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "kmslab": kmslab.__version__}}
    if not args.setup_only:
        import tracing
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        config_paths = {}
        for inv in workload:
            if inv.config is not None:
                path = os.path.join(args.out, inv.label + ".cfg")
                with open(path, "w") as fh:
                    fh.write(inv.config)
                config_paths[inv.label] = path
        recorder = tracing.install() if args.trace else None
        passes = []
        while not passes or (time.monotonic() - passes[0][0]["start"]
                             < args.seconds):
            passes.append(_run_pass(kmslab.cli, workload, len(passes), args,
                                    config_paths, recorder))
        record["passes"] = passes
        if recorder is not None:
            record["spans"] = recorder.spans
    with open(os.path.join(args.out, "child.json"), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
