"""Per-layer timing for the traced runs.

The benchmark times each layer from the outside: :class:`LayerClock`
replaces a layer's public entry point, in the namespace of the module that
calls it, with a wrapper that records the call's wall time and a few
counts from its result, and puts the original back on :meth:`uninstall`.
The program itself is not edited, and the timed (untraced) runs never
install the wrappers.

Records are grouped by *operation*: one ``legalize()`` call in-process,
or one request in the server (a single closed-loop client keeps requests
sequential, so each layer call belongs to the request being decoded
last).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The Figure-4 stages that partition one ``legalize()`` call; their sum
#: is reconciled against the untraced call.
FLOW_LAYERS = (
    "row_assign_s",
    "split_s",
    "build_qp_s",
    "splitting_s",
    "mmsim_s",
    "restore_s",
    "tetris_s",
    "audit_s",
    "metrics_s",
)
#: Counts read off the flow layers' results.
FLOW_COUNTS = (
    "mmsim_sweeps",
    "escalations",
    "shards",
    "qp_variables",
    "qp_constraints",
    "illegal_after_qp",
    "tetris_fix_sites",
)
#: Per-request metrics of the service layers.
REQUEST_METRICS = (
    "request_decode_s",
    "response_encode_s",
    "client_codec_s",
    "server_solve_s",
    "server_wait_s",
    "batch_jobs",
)


class LayerClock:
    """Wraps layer entry points and records per-operation timings."""

    def __init__(self) -> None:
        self.op = 0
        #: op -> layer metric -> summed seconds or count.
        self.values: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: op -> mark name -> perf_counter reading.
        self.marks: Dict[int, Dict[str, float]] = defaultdict(dict)
        self._patched: List[tuple] = []

    # ------------------------------------------------------------ wrapping
    def wrap(
        self,
        owner,
        attr: str,
        metric: str,
        counts: Optional[Callable] = None,
        on_start: Optional[Callable] = None,
        on_end: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module's function, or a class's method
        or classmethod) by a timing wrapper adding its seconds to *metric*;
        ``counts(values, result, args)`` may add counts, and
        ``on_start(clock)`` / ``on_end(clock, end)`` run around the call."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        clock = self

        def timed(*args, **kwargs):
            if on_start is not None:
                on_start(clock)
            start = time.perf_counter()
            result = func(*args, **kwargs)
            end = time.perf_counter()
            values = clock.values[clock.op]
            values[metric] += end - start
            if counts is not None:
                counts(values, result, args)
            if on_end is not None:
                on_end(clock, end)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ layer sets
    def install_flow(self) -> None:
        """The legalization flow's layers, as ``MMSIMLegalizer`` (solo
        runs) and ``repro.core.multi`` (the service's merged path) call
        them."""
        import repro.core.legalizer as legalizer
        import repro.core.multi as multi

        def solve_counts(values, result, _args):
            lcp, escalations = result if isinstance(result, tuple) else (result, [])
            values["mmsim_sweeps"] += lcp.iterations
            values["escalations"] += len(escalations)

        def shard_counts(values, result, _args):
            values["shards"] += result.num_shards

        def qp_counts(values, result, _args):
            values["qp_variables"] += result.num_variables
            values["qp_constraints"] += result.num_constraints

        def tetris_counts(values, result, args):
            values["illegal_after_qp"] += result.num_illegal
            values["tetris_fix_sites"] += (
                result.fix_displacement / args[0].core.site_width
            )

        for module in (legalizer, multi):
            for name in ("solve_sharded_resilient", "solve_sharded"):
                self.wrap(module, name, "mmsim_s", solve_counts)
        self.wrap(legalizer, "solve_monolithic_resilient", "mmsim_s", solve_counts)
        self.wrap(legalizer, "mmsim_solve", "mmsim_s", solve_counts)
        self.wrap(legalizer, "shard_legalization_qp", "splitting_s", shard_counts)
        self.wrap(multi, "build_shards", "splitting_s", shard_counts)
        self.wrap(legalizer, "assign_rows", "row_assign_s")
        self.wrap(legalizer, "split_cells", "split_s")
        self.wrap(legalizer, "build_legalization_qp", "build_qp_s", qp_counts)
        self.wrap(legalizer, "restore_cells", "restore_s")
        self.wrap(legalizer, "tetris_allocate", "tetris_s", tetris_counts)
        self.wrap(legalizer, "check_legality", "audit_s")
        self.wrap(legalizer, "displacement_stats", "metrics_s")
        self.wrap(legalizer, "wirelength_stats", "metrics_s")

    def install_server(self) -> None:
        """The service's layers inside the server process: request decode,
        the batch solve (``legalize_many``) and response encode.  Each
        decoded request opens a new operation."""
        import repro.service.server as server
        from repro.service.protocol import LegalizeRequest, LegalizeResponse

        def next_op(clock):
            clock.op += 1

        def mark(name):
            def record(clock, end):
                clock.marks[clock.op][name] = end

            return record

        def solve_start(clock):
            clock.marks[clock.op]["solve_start"] = time.perf_counter()

        def batch_counts(values, result, args):
            values["batch_jobs"] += len(args[0])

        self.wrap(
            LegalizeRequest, "from_dict", "request_decode_s",
            on_start=next_op, on_end=mark("decoded"),
        )
        self.wrap(
            server, "legalize_many", "server_solve_s", batch_counts,
            on_start=solve_start,
        )
        self.wrap(LegalizeResponse, "from_result", "response_encode_s")
        self.wrap(LegalizeResponse, "to_dict", "response_encode_s")

    def install_client(self) -> None:
        """The protocol codec on the client side."""
        from repro.service.protocol import LegalizeRequest, LegalizeResponse

        self.wrap(LegalizeRequest, "to_dict", "client_codec_s")
        self.wrap(LegalizeResponse, "from_dict", "client_codec_s")

    # ------------------------------------------------------------ results
    def per_op(self) -> Dict[int, Dict[str, float]]:
        """Plain per-operation values, with ``server_wait_s`` (decode end
        to solve start: queue, batch window and store lookup) derived
        from the marks."""
        out = {}
        for op, values in self.values.items():
            row = dict(values)
            marks = self.marks.get(op, {})
            if "decoded" in marks and "solve_start" in marks:
                row["server_wait_s"] = marks["solve_start"] - marks["decoded"]
            out[op] = row
        return out


def medians(rows: List[Dict[str, float]], names) -> Dict[str, float]:
    """The median of each named value over *rows* (0 for rows lacking it,
    since a layer not called did no work)."""
    return {
        name: statistics.median(row.get(name, 0.0) for row in rows)
        for name in names
    }


def flow_medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Medians of the flow layers' times and counts, with the mean time
    of one MMSIM sweep."""
    out = medians(rows, FLOW_LAYERS + FLOW_COUNTS)
    out["sweep_us"] = 1e6 * out["mmsim_s"] / max(out["mmsim_sweeps"], 1)
    return out


def flow_seconds(row: Dict[str, float]) -> float:
    """Seconds of one operation spent in the Figure-4 stages."""
    return sum(row.get(name, 0.0) for name in FLOW_LAYERS)
