"""The benchmark's traced run wraps dlab functions at the module bindings
listed in ``bench/spans.py``.  Deleting or renaming one of them must fail
here, in the test suite, and not first in a benchmark run."""

import types
from pathlib import Path

from dlab import blocks, cli, oracle, recurrence, thm1, thm2

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = {
    m.__name__.rpartition(".")[2]: m
    for m in (blocks, cli, oracle, recurrence, thm1, thm2)
}


def _load_spans():
    # Executed from its source, so no bytecode cache is written under bench/.
    spans = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return spans


def test_bench_tracer_installs_over_every_binding():
    spans = _load_spans()
    bindings = [*spans.TRACED, ("recurrence", "_admissible_centers")]
    originals = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr in bindings}
    tracer = spans.Tracer("t")
    tracer.install(MODULES)
    try:
        for (mod, attr), original in originals.items():
            assert getattr(MODULES[mod], attr) is not original, (mod, attr)
        state = thm2.build_to_stage(2)
        recurrence.escape_witness(state, 1, 0, "XatN")
        # is_td memoizes its scan behind the traced binding, so every call
        # from lemma7_checks must still open a span.
        oracle.lemma7_checks(oracle.make_system((1, 2, 0)), 2)
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(MODULES[mod], attr) is original, (mod, attr)
    names = {span[0] for span in tracer.spans}
    assert {"thm2.build_to_stage", "recurrence.escape_witness"} <= names
    assert {"oracle.lemma7_checks", "oracle.is_td"} <= names
    assert tracer.counts["recurrence.centers"] > 0
