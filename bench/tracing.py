"""Spans around calls into the package's layers, recorded from outside it.

The benchmark replaces the names that ``secrecysim.cli``,
``secrecysim.policy`` and the library driver imported with wrappers that
record a span per call: name, start, end, the index of the enclosing span
(-1 for none) and the id of the program run it belongs to. Nothing under
``src/`` changes, and the originals are restored on exit. Spans stay in
memory until the run ends and are then written out in one file.

Calls a module makes to its own functions, and everything inside the
worker processes of the Monte Carlo pool, are not traced.
"""

import csv
import gzip
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # (name, start, end, parent index or -1, run id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each ``(module, attribute, span name)`` target by a traced wrapper."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        for module, attr, name in targets:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def new_run(self) -> int:
        self.run_id += 1
        return self.run_id

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, children)]

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("name", "start", "end", "parent", "run"))
            writer.writerows(self.spans)


def layer_targets(cli, policy, driver) -> list[tuple]:
    """The names each layer's callers imported, with the span name of each."""
    targets = [
        (cli, "load_scenario", "scenario_io.load_scenario"),
        (cli, "write_heatmap", "scenario_io.write_heatmap"),
        (cli, "write_summary", "scenario_io.write_summary"),
        (cli, "sweep_eavesdropper", "sweep.sweep_eavesdropper"),
        (cli, "monte_carlo", "sweep.monte_carlo"),
        (policy, "optimize_fj_power", "fjopt.optimize_fj_power"),
        (driver, "select", "policy.select"),
    ]
    for name in ("distance", "effective_distance", "distance_corrected_power", "shannon_capacity"):
        targets.append((policy, name, f"channel.{name}"))
    return targets
