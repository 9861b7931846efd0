"""The benchmark's tracer rebinds product names; they must keep resolving.

``perfbench/spans.py`` wraps public functions by (namespace, attribute) and
reads some of their arguments by parameter name. A rename in ``src/`` would
otherwise only surface when ``perfbench/run.py --trace 1`` runs.
"""

import importlib.util
import inspect
from pathlib import Path

import ringcache
import ringcache.cli
import ringcache.converse
import ringcache.exactlp

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def argument_names(counter):
    """The string constants a counter indexes its bound arguments with.

    Metric names all contain a dot; argument names never do.
    """
    names = set()
    codes = [counter.__code__]
    while codes:
        code = codes.pop()
        for const in code.co_consts:
            if isinstance(const, str) and "." not in const:
                names.add(const)
            elif inspect.iscode(const):
                codes.append(const)
    return names


def test_every_traced_name_resolves_with_the_arguments_its_counter_reads():
    wrapped = load_spans()._wrapped(ringcache)
    assert wrapped
    for namespace, attr, span, counter in wrapped:
        fn = getattr(namespace, attr, None)
        assert callable(fn), f"{namespace.__name__}.{attr} ({span}) does not resolve"
        if counter is not None:
            params = set(inspect.signature(fn).parameters)
            missing = argument_names(counter) - params
            assert not missing, f"{span}: {sorted(missing)} not among {sorted(params)}"


def test_counters_read_the_arguments_the_benchmark_documents():
    wrapped = load_spans()._wrapped(ringcache)
    read = {span: argument_names(counter) for _ns, _attr, span, counter in wrapped if counter}
    assert read["schemes.worst_case_load"] == {"ds"}
    assert read["converse.dedup_rows"] == {"rows"}
    assert read["exactlp.solve"] == {"constraints", "n_vars"}


TRACED_JOBS = [
    ["lp", "--K", "3", "--a", "2", "--b", "1", "--M", "3", "--certificates", "--sum-all"],
    ["lp", "--K", "3", "--a", "2", "--b", "1", "--M", "3", "--family", "high_m"],
    ["tradeoff", "--K", "3", "--a", "2", "--b", "1", "--m-steps", "3", "--lp"],
    ["gap", "--K", "3", "--a", "2", "--b", "1"],
    ["simulate", "--K", "3", "--a", "2", "--b", "1", "--M", "3", "--demand", "1,6,7"],
]


def test_every_traced_name_records_a_span(monkeypatch, capsys):
    """The jobs reach every wrapped name through the namespace the tracer rebinds."""
    spans = load_spans()
    tracer = spans.Tracer()
    for namespace, attr, name, counter in spans._wrapped(ringcache):
        monkeypatch.setattr(namespace, attr, tracer.wrap(name, getattr(namespace, attr), counter))
    for argv in TRACED_JOBS:
        assert ringcache.cli.main(argv) == 0, argv
    capsys.readouterr()
    assert {span[0] for span in tracer.spans} == {name for _ns, _a, name, _c in
                                                  spans._wrapped(ringcache)}
    assert tracer.counter_errors == []
