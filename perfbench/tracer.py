"""Traced bellkit CLI run, and the per-layer summary of its spans.

Run as `python tracer.py SPANS_FILE CLI_ARGS...` with bellkit importable.
It imports `bellkit.cli`, replaces every public function of every bellkit
module with a wrapper that records a span (name, start, end, parent), in
every module that holds the function, including names imported into other
modules such as `heralding.aggregate` and `lhv.pvalue_complete`. It then
runs the command and writes the spans to SPANS_FILE (numpy .npz) at exit.

`summarize` turns one or more span files into the per-layer metrics.
"""
from __future__ import annotations

import sys
import time
import types
from array import array
from collections import Counter

# numpy is imported inside dump() and summarize() only: before the clock
# around `import bellkit.cli` starts, a traced child has imported nothing
# but the standard library, so cli.import_s includes numpy's and scipy's
# imports as an untraced command pays them.


def _len_result(args, kwargs, result) -> int:
    return len(result)


# Work counters, added once per outermost call of the function.
COUNTERS = {
    "trials.read_trials": ("trials.read_trials_records", _len_result),
    "trials.write_trials": ("trials.write_trials_records", lambda args, kwargs, result: len(args[1])),
    "heralding.read_detections": ("heralding.detections_read", _len_result),
    "randomness.read_messages": ("randomness.messages", _len_result),
    "lhv.play_heralded": ("lhv.attempts_played", lambda args, kwargs, result: result.attempts),
    "exact.fisher_two_sided_tables": ("exact.fisher_tables", _len_result),
}


class Tracer:
    """Spans in flat arrays; `parent` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1]
            self.name_id.append(nid)
            self.parent.append(parent)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None and (parent < 0 or self.name_id[parent] != nid):
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every public bellkit function in every bellkit module."""
        wrappers = {}
        modules = [m for name, m in sys.modules.items() if name == "bellkit" or name.startswith("bellkit.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("bellkit.") or value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(f"{home.removeprefix('bellkit.')}.{value.__name__}", value)
                setattr(module, attr, wrappers[value])

    def dump(self, path: str, import_s: float) -> None:
        import numpy as np

        names = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counter_names=np.array(names, dtype=str),
            counter_values=np.array([self.counters[n] for n in names], dtype=np.float64),
            import_s=np.float64(import_s),
        )


def summarize(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one pass.

    `<layer>.<function>_s` is the inclusive time of the function's
    outermost calls (a function that re-enters itself, such as a reader
    taking a path and then a handle, counts once), `<layer>.<function>_calls`
    their number, `<layer>.self_s` the layer's self time: its spans'
    durations minus the part their child spans cover.
    """
    import numpy as np

    out: Counter[str] = Counter()
    for path in span_files:
        with np.load(path) as data:
            names = data["names"].tolist()
            name_id, parent = data["name_id"], data["parent"]
            duration = data["end"] - data["start"]
            out["cli.import_s"] += float(data["import_s"])
            for name, value in zip(data["counter_names"].tolist(), data["counter_values"].tolist()):
                out[name] += value
        if not len(name_id):
            continue
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - child_time
        outermost = ~has_parent | (name_id[np.where(has_parent, parent, 0)] != name_id)
        inclusive = np.bincount(name_id[outermost], weights=duration[outermost], minlength=len(names))
        calls = np.bincount(name_id[outermost], minlength=len(names))
        by_name_self = np.bincount(name_id, weights=self_time, minlength=len(names))
        for i, name in enumerate(names):
            layer = name.split(".", 1)[0]
            out[f"{name}_s"] += float(inclusive[i])
            out[f"{name}_calls"] += int(calls[i])
            out[f"{layer}.self_s"] += float(by_name_self[i])
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import bellkit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return bellkit.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
