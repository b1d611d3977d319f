"""Print the package's quadrature outputs in full, one call a line.

A refactor of the record integral or of a noise law should keep every
quadrature output bit for bit.  Run this script on the code before and
after the change and diff the two listings:

    PYTHONPATH=src python scripts/quad_digests.py > before.txt
    (change the code)
    PYTHONPATH=src python scripts/quad_digests.py > after.txt
    diff before.txt after.txt

Each line is a call and the ``repr`` of its result, which round-trips
every float, or the type and message of the error it raised.  It covers
``p_delta``, ``p_n_delta``, ``joint_prob_consecutive``,
``dependence_index_result`` and ``classify_finiteness`` for the six
laws, each law with parameters also at a second parameter set, over a
small (c, delta, n) grid, then ``p_delta`` and ``p_n_delta`` at the
edges of the Euler-Maclaurin tail and at extreme scales.  It takes a few
seconds.

A refactor keeps every line.  A change to the numerics may move a value
line, but only to within the abs_error_bound that the line had before
it, and moves no verdict, exact zero or error line.  Every record
integral runs on the law's standard member, so a line of a law that is
its own member (the six laws at their defaults) moves only with the
record integral, and one of a law with a location or a scale may also
move with how c and delta are put in its member's units.
"""
import sys

import driftrecords as dr

LAWS = [
    "gumbel", "pareto1",
    "dagum", "dagum:b=2,q=0.5",
    "normal", "normal:mu=0.3,sigma=2",
    "uniform", "uniform:lo=-1,hi=2",
    "exp", "exp:rate=1.5",
]
TRENDS = [-0.5, 0.0, 0.01, 1.0]
THRESHOLDS = [-0.5, 0.5, 2.0]
LENGTHS = [2, 10, 1000]
# (law, c, delta): trends so small that g^(5) overflows near the
# support's low end, a head past 2**52 factors (an error line), a tail
# from the first factor, a support far from 0, normal scales whose fifth
# power overflows or underflows a double, one at which c / sigma
# underflows to 0, and the band of tiny trends where the tail's
# (G(b) - G(a))/c cancels and p_n takes the midpoint sum, and Pareto and
# Dagum at trends that take g''' and g^(5) from next to the support's low
# end out to their far tail
EDGES = [
    ("uniform", 1e-80, 0.1), ("uniform", 1e-100, 0.1),
    ("exp", 1e-80, 0.1), ("exp", 1e-100, 0.1),
    ("gumbel", 1e-14, 800.0),
    ("normal", 1e-15, 10.0),
    ("uniform:lo=1e6,hi=1000001", 0.01, -0.5), ("uniform:lo=1e6,hi=1000001", 0.01, 0.5),
    ("uniform:lo=1e6,hi=1000001", 1e-12, -0.5), ("uniform:lo=1e6,hi=1000001", 1e-12, 0.5),
    ("normal:sigma=1e62", 1e61, 5e61), ("normal:sigma=1e-66", 1e-66, 5e-67),
    ("normal:sigma=1e300", 1e-30, 0.5),
    ("gumbel", 1e-13, 0.0), ("normal", 1e-16, 0.1), ("exp", 1e-15, 0.1),
    ("uniform", 1e-12, -0.5),
    ("dagum", 1e-12, 0.5), ("dagum", 100.0, 0.5),
    ("pareto1", 1e-12, 0.5), ("pareto1", 100.0, 0.5),
]


def line(out, label, fn):
    try:
        result = repr(fn())
    except Exception as exc:
        result = f"error: {type(exc).__name__}: {exc}"
    print(f"{label} {result}", file=out)


def main() -> None:
    out = sys.stdout
    for spec in LAWS:
        dist = dr.parse_spec(spec)
        for c in TRENDS:
            for delta in THRESHOLDS:
                cfg = dr.LdmConfig(dist, c, delta)
                where = f"{spec} c={c} delta={delta}"
                line(out, f"p_delta {where}", lambda: dr.p_delta(cfg))
                line(out, f"classify_finiteness {where}", lambda: dr.classify_finiteness(cfg))
                for n in LENGTHS:
                    line(out, f"p_n_delta {where} n={n}", lambda: dr.p_n_delta(cfg, n))
                    line(out, f"joint_prob_consecutive {where} n={n}",
                         lambda: dr.joint_prob_consecutive(cfg, n))
                    line(out, f"dependence_index_result {where} n={n}",
                         lambda: dr.dependence_index_result(cfg, n))
    for spec, c, delta in EDGES:
        cfg = dr.LdmConfig(dr.parse_spec(spec), c, delta)
        where = f"{spec} c={c} delta={delta}"
        line(out, f"p_delta {where}", lambda: dr.p_delta(cfg))
        line(out, f"p_n_delta {where} n=1000", lambda: dr.p_n_delta(cfg, 1000))


if __name__ == "__main__":
    main()
