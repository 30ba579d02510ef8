"""Traced driver: run one tverskyci invocation in this process with a span
around every call into each layer's public functions.

    python perfbench/tracer.py SPANS_FILE <tverskyci arguments...>

It imports the package, replaces each wrapped function on every module
that holds a reference to it (so ``tverskyci.cli.ingest`` and
``tverskyci.simulation.confidence_interval`` are both caught), then calls
``tverskyci.cli.main`` with the arguments. The CLI's stdout, stderr and
exit code pass through unchanged, so a traced invocation is checked like
any other.

Spans stay in memory as (name, start, end, parent index) and are written
to SPANS_FILE once the invocation ends, with the counters kept at the same
boundaries. The file is in ``marshal`` format: a simulate run leaves
~60 000 spans, which JSON took ~0.3 s to write.

Peak memory of ingest and bootstrap is the growth of this process's peak
RSS across the call: tracemalloc was measured to make a 1M-row ingest
about ten times slower, which would swamp the span it measures.
"""

from __future__ import annotations

import marshal
import resource
import sys
import time

_clock = time.perf_counter
_T0 = _clock()

# module -> functions wrapped there; span names are "<module>.<function>".
LAYERS = {
    "cli": ("build_parser",),
    "ingest": ("ingest",),
    "estimation": ("confidence_interval", "normal_quantile"),
    "planning": ("required_total", "bound_table"),
    "simulation": ("run_simulation", "replication_estimates", "histogram_summary", "bootstrap_se"),
}
_RSS_SPANS = {"ingest.ingest", "simulation.bootstrap_se"}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.rows = 0
        self.replications_drawn = 0
        self.rss_growth_mb: dict[str, list[float]] = {}

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        rss = _max_rss_mb() if name in _RSS_SPANS else 0.0
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            self.stack.pop()
            self.spans[index] = (name, start - _T0, end - _T0, parent)
        if name in _RSS_SPANS:
            self.rss_growth_mb.setdefault(name, []).append(_max_rss_mb() - rss)
        if name == "ingest.ingest":
            self.rows += result.n
        elif name in ("simulation.run_simulation", "simulation.replication_estimates"):
            config = args[0] if args else kwargs["config"]
            self.replications_drawn += config.replications
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every function in LAYERS wherever the package refers to it.
    A function that no longer exists is skipped; its spans then show as
    missing."""
    modules = [m for k, m in sys.modules.items() if k.startswith("tverskyci") and m is not None]
    for layer, names in LAYERS.items():
        home = sys.modules.get(f"tverskyci.{layer}")
        for attr in names:
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = recorder.wrap(f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    import tverskyci.cli

    for layer in LAYERS:
        __import__(f"tverskyci.{layer}")
    install(recorder)
    code = 1
    try:
        code = recorder.call("cli.main", tverskyci.cli.main, (argv,), {})
    finally:
        sys.stdout.flush()
        with open(out_path, "wb") as fh:
            marshal.dump(
                {
                    "spans": recorder.spans,
                    "rows": recorder.rows,
                    "replications_drawn": recorder.replications_drawn,
                    "rss_growth_mb": recorder.rss_growth_mb,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
