"""In-memory spans around the package's public functions.

A traced run replaces module attributes of phuimine with wrappers that
record one span per call: name, start, end, parent span and request id.
Callers inside the package look these functions up as module globals at
call time (`miner.mine` calls `search`, `construct`, ... that way; `verify`
reaches the oracle as `oracle.brute_force_mine`), so patching the module
attribute is enough and no code under `src/` changes.

Spans live in typed arrays, so a run with a million `construct` calls
costs tens of megabytes, and are written out once when the run ends.
"""

import gzip
import time
from array import array

# (per-layer metric of its self time, span name, module, attribute): the
# module is the one whose attribute is looked up at call time, which is
# not always the module that defines the function.
WRAPPED = [
    ("miner.mine_self_s", "miner.mine", "miner", "mine"),
    ("model.validate_s", "model.validate_database", "miner", "validate_database"),
    ("miner.initial_scan_s", "miner.initial_scan", "miner", "initial_scan"),
    ("pulist.order_s", "pulist.compute_processing_order", "miner", "compute_processing_order"),
    ("pulist.reorder_s", "pulist.reorder_database", "miner", "reorder_database"),
    ("pulist.initial_lists_s", "pulist.build_initial_pulists", "miner", "build_initial_pulists"),
    ("miner.build_eucs_s", "miner.build_eucs", "miner", "build_eucs"),
    ("miner.search_self_s", "miner.search", "miner", "search"),
    ("pulist.construct_s", "pulist.construct", "miner", "construct"),
    ("dataio.parse_db_s", "dataio.parse_database", "dataio", "parse_database"),
    ("dataio.parse_ptable_s", "dataio.parse_ptable", "dataio", "parse_ptable"),
    ("dataio.serialize_results_s", "dataio.serialize_results", "dataio", "serialize_results"),
    ("oracle.brute_force_s", "oracle.brute_force_mine", "oracle", "brute_force_mine"),
    ("verify.check_s", "verify.check_instance", "verify", "check_instance"),
    ("verify.compare_s", "verify.compare_results", "verify", "compare_results"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = 0
        self.tids_in = 0
        self.tids_out = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, request = self.name_of, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _count_join(self, args, result):
        # the joined lists are the last two positional arguments
        self.tids_in += len(args[-2]) + len(args[-1])
        if result is not None:
            self.tids_out += len(result)

    def install(self, modules: dict) -> None:
        """Wrap every function in WRAPPED that exists; note the rest as absent."""
        for _metric, name, mod_name, attr in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            hook = self._count_join if name == "pulist.construct" else None
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the time its direct children cover)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Spans as tab-separated `id name start end parent request` rows,
        times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.name_of[i]]}\t{self.start[i] - t0:.9f}\t"
                        f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.request[i]}\n")
