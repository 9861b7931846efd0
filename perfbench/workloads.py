"""The benchmark's three workloads: fixed CLI job lists and their exact checks.

Every job is one ``ringcache`` command line. A check receives the job's
exit code, standard output and standard error and returns ``None`` when the
output is exactly right, or the reason it is not. The reference values the
checks compare against are computed here from the paper's closed forms, or
pinned as the seed commit printed them (``golden/``); they never come from
the program under test.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

SIM_FILE_SIZE = 200000


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable[[int, str, str], "str | None"]


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def coded_gain(K: int, a: int, b: int) -> bool:
    return b * (K - 1) < 2 * a


def rstar_u(K: int, a: int, b: int, M: Fraction) -> Fraction:
    """Optimal worst-case load under uncoded placement (the paper's closed form)."""
    if coded_gain(K, a, b):
        if M <= a + b:
            return K - Fraction(K + 1, 2 * (a + b)) * M
        return Fraction((K - 1) * (2 * a + b), 2 * a) - Fraction(K - 1, 2 * a) * M
    return K - Fraction(K, 2 * a + b) * M


def rstar_multi(K: int, a: int, b: int, M: Fraction) -> Fraction:
    """Optimal load when every user reads two or more consecutive caches."""
    return max(Fraction(0), K - Fraction(K, a + b) * M)


def demand_sets(K: int, a: int, b: int) -> list:
    """The 2a+b files each region may request, numbered as the paper does.

    Region k owns files (k-1)(a+b)+1 .. k(a+b): the first a are shared with
    the left neighbour, the last b are unique; it also reaches the a files
    shared with its right neighbour, which open the next region's block.
    """
    N = K * (a + b)
    sets = []
    for k in range(1, K + 1):
        own = range((k - 1) * (a + b) + 1, k * (a + b) + 1)
        right = ((k * (a + b) + j - 1) % N + 1 for j in range(1, a + 1))
        sets.append(sorted(set(own) | set(right)))
    return sets


def _checked(check):
    """Turn a check that raises CheckFailed into one that returns the reason."""

    def run(rc: int, out: str, err: str):
        try:
            check(rc, out, err)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"unparseable output: {exc!r}"
        return None

    return run


def _ok(rc: int, err: str) -> None:
    _require(rc == EXIT_OK, f"exit code {rc}, stderr {err[-300:]!r}")


def _golden(name: str, out: str) -> None:
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    _require(out == want, f"output differs from golden/{name}.txt")


def _rows(csv_text: str) -> list:
    reader = csv.DictReader(io.StringIO(csv_text))
    return [{k: Fraction(v) for k, v in row.items()} for row in reader]


def _tradeoff_check(name: str, K: int, a: int, b: int, L: int, lp: bool):
    def check(rc, out, err):
        _ok(rc, err)
        _golden(name, out)
        rows = _rows(out)
        _require(len(rows) >= 2, "fewer than two grid points")
        for row in rows:
            M = row["M"]
            _require(row["R_star_u"] == rstar_u(K, a, b, M), f"R_star_u wrong at M={M}")
            if L >= 2:
                _require(row["R_multi"] == rstar_multi(K, a, b, M), f"R_multi wrong at M={M}")
                _require(row["R_ach"] == row["R_multi"], f"R_ach != R_multi at M={M}")
            else:
                _require(row["R_ach"] == row["R_star_u"], f"R_ach != R_star_u at M={M}")
            if lp:
                _require(row["R_lp"] == row["R_star_u"], f"R_lp != R_star_u at M={M}")

    return _checked(check)


def _certificates(report: dict, K: int, a: int, b: int) -> None:
    coded = coded_gain(K, a, b)
    want = {"high_m": coded, "low_m": coded, "large_b": not coded}
    got = {reg: cert["ok"] for reg, cert in report["certificates"].items()}
    _require(got == want, f"certificate verdicts {got}, expected {want}")


def _lp_check(name: str, K: int, a: int, b: int, M: int, full: bool, certs: bool,
              sum_all: bool = False):
    def check(rc, out, err):
        _ok(rc, err)
        _golden(name, out)
        report = json.loads(out)
        value, closed = Fraction(report["lp_optimum"]), Fraction(report["rstar_u"])
        _require(closed == rstar_u(K, a, b, Fraction(M)), "rstar_u differs from the closed form")
        if full:
            _require(value == closed and report["matches_rstar_u"] is True,
                     f"full-family LP {value} != rstar_u {closed}")
        else:
            _require(value <= closed, f"selected-family LP {value} exceeds rstar_u {closed}")
        if certs:
            _certificates(report, K, a, b)
        if sum_all:
            _require(report["sum_all_bound"] == "54/95" and report["matches_reference"] is True,
                     f"sum-all bound {report['sum_all_bound']} is not 54/95")

    return _checked(check)


def _gap_check(name: str):
    def check(rc, out, err):
        _ok(rc, err)
        _golden(name, out)
        report = json.loads(out)
        _require(report["pass"] is True and Fraction(report["ratio"]) <= report["bound"],
                 "gap check did not pass")

    return _checked(check)


def _refusal(code: int, prefix: str):
    def check(rc, out, err):
        _require(rc == code, f"exit code {rc}, expected {code}")
        _require(out == "", "a refused job printed to stdout")
        _require("Traceback" not in err, "stderr holds a traceback")
        _require(err.startswith(prefix), f"stderr {err[:200]!r} does not start with {prefix!r}")

    return _checked(check)


def _simulate_check(K: int, a: int, b: int, L: int, M: int, demand: tuple):
    expected = rstar_multi(K, a, b, Fraction(M)) if L >= 2 else rstar_u(K, a, b, Fraction(M))

    def check(rc, out, err):
        _ok(rc, err)
        report = json.loads(out)
        _require(tuple(report["demand"]) == demand, "report echoes another demand")
        _require(report["file_size_bytes"] == SIM_FILE_SIZE, "report echoes another file size")
        _require(report["loads_agree"] is True, "bit-exact and symbolic loads disagree")
        decoded = report["decode_ok"]
        _require(sorted(decoded) == sorted(str(k) for k in range(1, K + 1)),
                 "decode_ok does not list every user")
        _require(all(v is True for v in decoded.values()), f"decode failures: {decoded}")
        _require(Fraction(report["load"]) == expected,
                 f"load {report['load']} != closed form {expected}")

    return _checked(check)


def _instance(K, a, b, **extra) -> tuple:
    argv = ["--K", str(K), "--a", str(a), "--b", str(b)]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return tuple(argv)


def lp_jobs() -> list:
    return [
        Job("lp_321_full_m3",
            ("lp",) + _instance(3, 2, 1, M=3) + ("--certificates", "--sum-all"),
            _lp_check("lp_321_full_m3", 3, 2, 1, 3, full=True, certs=True, sum_all=True)),
        Job("tradeoff_412_lp",
            ("tradeoff",) + _instance(4, 1, 2) + ("--lp", "--m-grid", "0,2,4"),
            _tradeoff_check("tradeoff_412_lp", 4, 1, 2, L=1, lp=True)),
        Job("lp_531_low_m2",
            ("lp",) + _instance(5, 3, 1, M=2, family="low_m", memory_mode="per_node"),
            _lp_check("lp_531_low_m2", 5, 3, 1, 2, full=False, certs=False)),
        Job("lp_531_high_m4",
            ("lp",) + _instance(5, 3, 1, M=4, family="high_m") + ("--certificates",),
            _lp_check("lp_531_high_m4", 5, 3, 1, 4, full=False, certs=True)),
    ]


def sweep_jobs() -> list:
    return [
        Job("tradeoff_543",
            ("tradeoff",) + _instance(5, 4, 3, m_steps=5),
            _tradeoff_check("tradeoff_543", 5, 4, 3, L=1, lp=False)),
        Job("tradeoff_543_l2",
            ("tradeoff",) + _instance(5, 4, 3, m_steps=5, L=2),
            _tradeoff_check("tradeoff_543_l2", 5, 4, 3, L=2, lp=False)),
        Job("gap_543", ("gap",) + _instance(5, 4, 3), _gap_check("gap_543")),
        Job("tradeoff_599_budget",
            ("tradeoff",) + _instance(5, 9, 9, m_steps=3),
            _refusal(EXIT_BUDGET, "budget exceeded:")),
    ]


def simulate_jobs(seed: int) -> list:
    """Bit-exact runs at (5,4,1); the seed draws each demand vector and --seed."""
    K, a, b = 5, 4, 1
    rng = random.Random(seed)
    sets = demand_sets(K, a, b)
    jobs = []
    for name, L, M, size in (
        ("simulate_m3", 1, 3, SIM_FILE_SIZE),  # direct plus pair-XOR
        ("simulate_m5", 1, 5, SIM_FILE_SIZE),  # pure pair-XOR
        ("simulate_l2_m5", 2, 5, SIM_FILE_SIZE),  # cache-only, zero broadcast
        ("simulate_refused", 1, 3, SIM_FILE_SIZE + 1),  # not divisible: exit 2
    ):
        demand = tuple(rng.choice(s) for s in sets)
        argv = ("simulate",) + _instance(K, a, b, L=L, M=M, file_size=size) + (
            "--demand", ",".join(map(str, demand)), "--seed", str(rng.randrange(2**32)))
        check = (_simulate_check(K, a, b, L, M, demand) if size == SIM_FILE_SIZE
                 else _refusal(EXIT_USAGE, "error:"))
        jobs.append(Job(name, argv, check))
    return jobs


WORKLOADS = {
    "lp": lambda seed: lp_jobs(),
    "sweep": lambda seed: sweep_jobs(),
    "simulate": simulate_jobs,
}
