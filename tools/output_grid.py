"""Run a fixed grid of ``cohwalk`` command lines and print what each one gives.

Usage: ``python tools/output_grid.py SRC > grid.json``, where ``SRC`` is the
directory that holds the ``cohwalk`` package (``src`` in a checkout).  Each
command runs in this process through ``cohwalk.cli.main``; the output is one
JSON list of ``{"argv", "code", "stdout", "stderr"}`` records, in grid order.

A refactor that must keep every output byte is checked by running this on
the parent and on the change and comparing the two files with ``cmp``.  Every
``mc`` command carries its own seed, so two runs of one tree are identical.
The grid takes about a second; it is not part of the test suite.
"""

import contextlib
import io
import json
import sys

STRATEGIES = ("classical-dj", "quantum-dj", "classical-eps", "quantum-eps")
TRUTHS = ("prior", "constant", "balanced", "epsilon")
MODES = {"iid": [], "hypergeom": ["--sampling", "hypergeom"],
         "exact-n": ["--likelihood", "exact-n"]}


def _mc():
    seed = 0
    for strategy in STRATEGIES:
        eps = ["--epsilon", "0.2"] if strategy.endswith("-eps") else []
        for truth in TRUTHS:  # a tag outside the strategy's pair exits 2
            for mode in MODES.values():
                seed += 1
                yield ["mc", "--strategy", strategy, "--m", "5", "--nu", "0.6", *eps,
                       "--experiments", "20000", "--seed", str(seed), "--truth", truth,
                       *mode]
    # sampling without replacement beyond N, for a classical and a quantum run
    for strategy in ("classical-dj", "quantum-dj"):
        yield ["mc", "--strategy", strategy, "--sampling", "hypergeom", "--m", "5",
               "--n", "4", "--seed", "1", "--experiments", "100"]
    yield ["mc", "--strategy", "classical-eps", "--m", "20000", "--epsilon", "0.1",
           "--experiments", "50000", "--seed", "7", "--format", "json"]


def _walk():
    for n in (4, 8, 12, 64, 512, 101):
        oracle = ["--exact-oracle"] if n <= 64 else []
        yield ["walk", "--n", str(n), "--promise", "constant", "--nu", "0.7", *oracle]
        yield ["walk", "--n", str(n), "--promise", "balanced", "--nu", "0.3", *oracle]
        yield ["walk", "--n", str(n), "--promise", "epsilon", "--epsilon", "0.5",
               "--nu", "0.9", *oracle]
    # the oracle at its cap for every promise, and at the smallest N
    yield ["walk", "--n", "512", "--promise", "balanced", "--nu", "0.2", "--exact-oracle"]
    yield ["walk", "--n", "512", "--promise", "constant", "--nu", "0.7", "--exact-oracle"]
    yield ["walk", "--n", "512", "--promise", "epsilon", "--epsilon", "0.5", "--nu", "0.9",
           "--exact-oracle"]
    yield ["walk", "--n", "2", "--promise", "balanced", "--nu", "0.5", "--exact-oracle"]
    yield ["walk", "--n", "1000", "--promise", "constant", "--exact-oracle"]
    yield ["walk", "--n", "8", "--promise", "constant", "--format", "json"]


def _decide():
    for ms in ("1:12", "1074:1076", "3:1:-1"):
        yield ["decide", "--m-range", ms, "--nu-range", "0:1:0.25"]
        yield ["decide", "--m-range", ms, "--nu-range", "0,0.3,1", "--mode", "exact-n",
               "--n", "2000"]
    yield ["decide", "--m-range", "1:4", "--nu-range", "0.5", "--mode", "exact-n",
           "--n", "6", "--format", "json"]
    # a float range stops at or before its stop: 0, 0.3; and 0, 0.1, 0.2, 0.3
    yield ["decide", "--m-range", "1", "--nu-range", "0:0.5:0.3"]
    yield ["decide", "--m-range", "1", "--nu-range", "0:0.3:0.1"]


def _epsilon():
    yield ["epsilon", "--epsilon", "0.2", "--m-range", "1,10,100,1000,10000", "--nu", "0.9",
           "--exact-tails"]
    yield ["epsilon", "--epsilon", "0.05", "--m-range", "50:250:50", "--format", "json"]


def _ensemble():
    yield ["ensemble", "--n-list", f"100,1000,{2**53},{2**53 + 2},{10**20},{10**31}",
           "--m", "10"]
    yield ["ensemble", "--n-list", "20,40,400", "--m", "2", "--p", "0", "--format", "json"]
    yield ["ensemble", "--n-list", "1000,1000", "--m", "10"]  # not increasing: exits 2


def _errors():
    yield ["bogus"]                                                    # unknown subcommand
    yield ["walk", "--promise", "constant"]                            # missing flag
    yield ["walk", "--n", "x", "--promise", "constant"]                # bad int
    yield ["walk", "--n", "4", "--promise", "sideways"]                # bad choice
    yield ["walk", "--n", "4", "--promise", "constant", "--bogus"]     # unrecognized
    yield ["epsilon", "--epsilon", "0.5", "--m-range", "2", "--n", "0"]  # no prefix match
    yield ["walk", "--n", "4", "--promise", "epsilon"]
    yield ["walk", "--n", "0", "--promise", "constant"]
    yield ["decide", "--m-range", "5:1", "--nu-range", "0.5"]
    yield ["decide", "--m-range", "2", "--nu-range", "0:1:0"]
    yield ["decide", "--m-range", "1:100000000", "--nu-range", "0.5"]
    yield ["decide", "--m-range", "1", "--nu-range", "1.5"]
    yield ["decide", "--m-range", "9", "--nu-range", "0.5", "--mode", "exact-n", "--n", "8"]
    yield ["ensemble", "--n-list", "100", "--m", "11"]
    yield ["ensemble", "--n-list", str(10**17), "--p", "0.3", "--m", "10"]
    yield ["mc", "--strategy", "classical-dj", "--m", "3", "--strict"]
    yield ["mc", "--strategy", "quantum-eps", "--m", "5", "--epsilon", "1.5", "--seed", "1"]
    yield ["mc", "--strategy", "classical-dj", "--m", "3", "--seed", "-5"]
    yield ["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", str(2**64),
           "--seed", "1"]


GRID = [*_mc(), *_walk(), *_decide(), *_epsilon(), *_ensemble(), *_errors()]


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    from cohwalk.cli import main

    json.dump([run(main, argv) for argv in GRID], sys.stdout, indent=1)
    sys.stdout.write("\n")
