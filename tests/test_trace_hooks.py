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
