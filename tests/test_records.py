"""The product's records: constructors, validation, coercion and the import graph."""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ringcache
from ringcache.exactlp import LESS_EQ, Constraint
from ringcache.model import InvalidInstanceError, ProblemInstance
from ringcache.schemes import SchemeSpec, Segment, SegmentKind

HALF = Fraction(1, 2)
DIRECT = SegmentKind.UNCODED_DIRECT


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Every CLI call pays for what importing the CLI imports."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import ringcache.cli\n"
            "ringcache.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = str(Path(ringcache.__file__).resolve().parents[1])
    # -S: no site hooks, so only the package's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_cli_builds_its_parser_lazily_and_once():
    """Importing the CLI builds no parser, and main() builds one per process.

    The benchmark's setup_s times the import plus one build_parser(); a
    parser built at import time would move that cost out of the timed calls.
    """
    code = ("import argparse, contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import ringcache.cli\n"
            "at_import = len(built)\n"
            "sizes = []\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for _ in range(2):\n"
            "        ringcache.cli.main(['gap', '--K', '2', '--a', '1', '--b', '1'])\n"
            "        sizes.append(len(built))\n"
            "print(at_import, built.count('ringcache'), sizes[0] == sizes[1])\n")
    src = str(Path(ringcache.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "0 1 True\n"


@pytest.mark.parametrize("make, error, message", [
    (lambda: ProblemInstance(1, 1, 1), InvalidInstanceError, "K must be >= 2, got 1"),
    (lambda: ProblemInstance(3, -1, 2), InvalidInstanceError, "a and b must be non-negative"),
    (lambda: ProblemInstance(3, 0, 0), InvalidInstanceError, "need a + b >= 1"),
    (lambda: ProblemInstance(3, 1, 1, 0), InvalidInstanceError, "L must lie in [1, K]=3, got 0"),
    (lambda: ProblemInstance(3, 1, 1, L=4), InvalidInstanceError, "L must lie in [1, K]=3, got 4"),
    (lambda: ProblemInstance(3, 1, 1, M=Fraction(-1, 3)), InvalidInstanceError,
     "cache size M must be non-negative, got -1/3"),
    (lambda: ProblemInstance(2.5, 1, 1), InvalidInstanceError, "K must be an integer, got 2.5"),
    (lambda: ProblemInstance(3, 2, 1, M=0.1), InvalidInstanceError,
     "M must be an int or a Fraction, got 0.1"),
    (lambda: SchemeSpec((Segment(HALF, DIRECT),)), InvalidInstanceError,
     "segment fractions must sum to 1"),
    (lambda: SchemeSpec((Segment(3 * HALF, DIRECT), Segment(-HALF, SegmentKind.MAN_T1))),
     InvalidInstanceError, "segment fractions must be positive"),
])
def test_invalid_records_are_refused(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error


def test_records_keep_their_constructors():
    inst = ProblemInstance(3, 2, 1, 1, 4)
    assert inst == ProblemInstance(K=3, a=2, b=1, L=1, M=Fraction(4))
    assert hash(inst) == hash(ProblemInstance(3, 2, 1, M=Fraction(4)))
    assert (inst.K, inst.a, inst.b, inst.L, inst.M) == (3, 2, 1, 1, 4)
    assert type(inst.M) is Fraction and type(inst.with_m(2).M) is Fraction
    assert ProblemInstance(3, 2, 1) == ProblemInstance(3, 2, 1, 1, 0) != inst
    assert repr(inst) == "ProblemInstance(K=3, a=2, b=1, L=1, M=Fraction(4, 1))"
    # A >= row enters negated and an equality as its two <= rows, so a row names no sense.
    row = Constraint(coeffs={0: 1}, rhs=2)
    assert (row.coeffs, row.sense, row.rhs) == ({0: 1}, LESS_EQ, 2) and type(row.rhs) is int
    with pytest.raises(TypeError):
        Constraint({0: 1}, LESS_EQ, 2)
    segments = (Segment(HALF, DIRECT), Segment(fraction=HALF, kind=SegmentKind.MAN_T1))
    assert SchemeSpec(segments=segments).segments == segments


@pytest.mark.parametrize("m", [Fraction(6), Fraction(100)])
def test_cache_size_is_clamped_to_2a_plus_b(m):
    inst = ProblemInstance(3, 2, 1, M=m)
    assert inst.M == 5 and type(inst.M) is Fraction
    assert inst == ProblemInstance(3, 2, 1, 1, 5) == inst.with_m(m)

