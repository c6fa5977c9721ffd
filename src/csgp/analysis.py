"""The paper's complexity comparison: the circuit's closed-form gate count,
the sparsity bounds, and the cost table against the classical baselines.

All arithmetic is exact (Python integers); log10 columns are provided for
log-scale plotting.  The baselines are the textbook worst-case costs
O(n^n) and O(3^n); no classical solver is timed here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError, check_int

S_MODES = ("min", "max", "actual")  # in the order sparsity_bounds returns them

N_RANGE_LO = 2
N_RANGE_HI = 64


def _agent_count(n) -> int:
    """n as an int: anything but an integer in [N_RANGE_LO, N_RANGE_HI] is a ConfigError."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not N_RANGE_LO <= n <= N_RANGE_HI:
        raise ConfigError(f"agent counts must be integers in [{N_RANGE_LO}, {N_RANGE_HI}], got {n!r}")
    return int(n)


def gate_count(n: int, p: int, s: int) -> int:
    """Closed-form circuit size: (2^n - 1)(2p + 1) + 3ps.

    One H per qubit, p RX per qubit, p RZ per qubit for the fields, and
    per interaction per layer a CNOT/RZ/CNOT triple.
    """
    n = _agent_count(n)
    check_int(p, "layer count", 1)
    check_int(s, "interaction count", 0)
    return ((1 << n) - 1) * (2 * p + 1) + 3 * p * s


def sparsity_bounds(n: int) -> tuple[int, int, int]:
    """(s_min, s_max, s_actual) for the unconstrained n-agent QUBO.

    s_min = 2^n - 1 and s_max = 2^{n-1}(2^n - 3) + 1 are the published
    bounds; s_actual counts the intersecting coalition pairs, i.e. all
    C(2^n - 1, 2) pairs minus the (3^n - 2^{n+1} + 1) / 2 disjoint ones.
    For n = 2, s_actual = 2 falls below s_min = 3; both are reported
    as defined, without reconciliation.
    """
    n = _agent_count(n)
    m = (1 << n) - 1
    s_min = m
    s_max = (1 << (n - 1)) * ((1 << n) - 3) + 1
    disjoint = (3 ** n - (1 << (n + 1)) + 1) // 2
    s_actual = math.comb(m, 2) - disjoint
    return s_min, s_max, s_actual


@dataclass(frozen=True)
class ComplexityRow:
    """One point of the complexity comparison at a chosen sparsity regime."""

    n: int
    p: int
    s_mode: str
    s: int
    ip_cost: int
    idp_boss_cost: int
    bilpq_gates: int


def complexity_table(n_range, p_list, s_mode: str = "min") -> list[ComplexityRow]:
    """Exact cost table over the (n, p) grid for one sparsity regime;
    ``bilpq_gates`` is the circuit size at the s selected by s_mode."""
    if s_mode not in S_MODES:
        raise ConfigError(f"s_mode must be one of {S_MODES}, got {s_mode!r}")
    ns = [_agent_count(n) for n in n_range]  # checked as read, so a huge range fails at its first bad n
    ps = [check_int(p, "layer counts", 1) for p in p_list]
    rows = []
    for n in ns:
        s = sparsity_bounds(n)[S_MODES.index(s_mode)]
        for p in ps:
            rows.append(
                ComplexityRow(
                    n=n,
                    p=p,
                    s_mode=s_mode,
                    s=s,
                    ip_cost=n ** n,
                    idp_boss_cost=3 ** n,
                    bilpq_gates=gate_count(n, p, s),
                )
            )
    return rows


CSV_HEADER = "n,p,s_mode,s,ip_cost,idp_boss_cost,bilpq_gates,log10_ip,log10_idp,log10_bilpq"


def write_complexity_csv(rows, fh) -> None:
    """Emit rows in the documented CSV layout to an open text stream."""
    fh.write(CSV_HEADER + "\n")
    for row in rows:
        fh.write(
            f"{row.n},{row.p},{row.s_mode},{row.s},"
            f"{row.ip_cost},{row.idp_boss_cost},{row.bilpq_gates},"
            f"{math.log10(row.ip_cost):.6f},{math.log10(row.idp_boss_cost):.6f},"
            f"{math.log10(row.bilpq_gates):.6f}\n"
        )
