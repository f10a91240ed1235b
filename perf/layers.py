"""The per-layer metrics and their interaction map: one table.

A row says what a layer metric is (name, unit, which way is better),
where its number comes from (**T** traced run, **R** the public result
object — exact counts that repeat from run to run, **D** a drill), which
end-to-end metric it should move, on which workloads, and on which the
prediction is "flat".  A metric whose layer is not on a workload's path
reads 0 there.

``BENCHMARK.json`` carries the first three columns as its ``per_layer``
list (the driver reads that file, and allows no further keys there);
``python3 perf/layers.py --write`` regenerates the list from this table
and ``run.py`` refuses to start when the two differ.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NamedTuple

MANIFEST_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str  # T, R or D
    moves: str  # the end-to-end metric it should move
    on: tuple  # ... on these workloads
    flat_on: tuple  # ... and not on these
    note: str = ""


OE, OP, STREAM, SCATTER = "csp_oe_mg", "csp_op_mg", "stream_oe_mg", "scatter_oe_ce"
ENS, POOL, VOL = "csp_ens16_mg", "csp_pool2_mg", "csp3d_oe_mg"
STEPPER = (OE, OP, STREAM, SCATTER, ENS)  # the serial runs through core/stepper
SERIAL = STEPPER + (VOL,)
EVERY = SERIAL + (POOL,)
WIDE = (OE, STREAM, SCATTER)  # ~10^3..10^4 items per kernel call

_B64 = "call-overhead-bound cost at 64 lanes"
_B16K = "bandwidth-bound cost at 16384 lanes"

LAYERS = tuple(Layer(*row) for row in (
    # -- core ---------------------------------------------------------------
    ("core.self_s", "s", "lower", "T", "wall_s", (OP, OE, ENS), (VOL, POOL),
     "root span minus every wrapped call: stepper + OP/OE driver glue "
     "(+ ensemble unfuse on ens16)"),
    ("core.self_frac", "ratio", "lower", "T", "wall_s", (OP, OE, ENS), (VOL,),
     "core.self_s over the root span"),
    ("core.census_steps", "count", "lower", "R", "wall_s", SERIAL, (),
     "config.ntimesteps; context for per-step costs"),
    ("core.import_s", "s", "lower", "D", "setup_s", EVERY, (),
     "import numpy + repro + the benchmark's modules in the trace child; "
     "not part of setup_s, reported beside it"),
    # -- kernels ------------------------------------------------------------
    ("kernels.calls", "count", "lower", "R", "wall_s", (OE, OP), (),
     "exact; fusion lowers it on csp_oe_mg"),
    ("kernels.items", "count", "lower", "R", "events_per_s", SERIAL, (),
     "exact lanes processed"),
    ("kernels.items_per_call", "count", "higher", "R", "events_per_s",
     (OP, OE), (), "batch width: <=64 on csp_op_mg, ~5 000 on csp_oe_mg"),
    ("kernels.busy_s", "s", "lower", "T", "wall_s", WIDE + (VOL,), (POOL,),
     "sum of kernel-body self time; small share on csp_op_mg"),
    ("kernels.busy_frac", "ratio", "lower", "T", "events_per_s",
     (OE, STREAM), (), "kernels.busy_s over the root span"),
    ("kernels.dispatch_self_s", "s", "lower", "T", "wall_s", (OP,), WIDE,
     "KernelDispatch.run minus the kernel body"),
    ("kernels.distances.s", "s", "lower", "T", "wall_s", STEPPER, (VOL,),
     "hottest 2-D kernel everywhere"),
    ("kernels.select_events.s", "s", "lower", "T", "wall_s", SERIAL, ()),
    ("kernels.collide.s", "s", "lower", "T", "wall_s", (SCATTER, OE),
     (STREAM, VOL)),
    ("kernels.cross_facet.s", "s", "lower", "T", "wall_s", (STREAM, OE),
     (SCATTER, VOL)),
    ("kernels.census.s", "s", "lower", "T", "wall_s", (OE, STREAM),
     (SCATTER, VOL)),
    ("kernels.xs_lookup.s", "s", "lower", "T", "wall_s", (OE, OP, VOL),
     (SCATTER, STREAM), "multigroup search+interpolate kernel"),
    ("kernels.xs_lookup_ce.s", "s", "lower", "T", "wall_s", (SCATTER,),
     (OE, STREAM, VOL), "continuous-energy union-grid kernel"),
    ("kernels.facet_distances_3d.s", "s", "lower", "T", "wall_s", (VOL,),
     STEPPER),
    ("kernels.collide_3d.s", "s", "lower", "T", "wall_s", (VOL,), STEPPER),
    ("kernels.cross_facet_3d.s", "s", "lower", "T", "wall_s", (VOL,), STEPPER),
    ("kernels.workspace_allocs", "count", "lower", "R", "peak_rss_mb", (OE,),
     (), "exact, from Counters"),
    ("kernels.workspace_reuse_frac", "ratio", "higher", "R", "wall_s",
     (OE, OP), (), "reuses / hand-outs, from Counters"),
    ("kernels.distances.ns_per_item_b64", "ns", "lower", "D", "wall_s",
     (OP,), (), _B64),
    ("kernels.distances.ns_per_item_b16384", "ns", "lower", "D", "wall_s",
     WIDE, (), _B16K),
    ("kernels.collide.ns_per_item_b64", "ns", "lower", "D", "wall_s",
     (OP,), (), _B64),
    ("kernels.collide.ns_per_item_b16384", "ns", "lower", "D", "wall_s",
     WIDE, (), _B16K),
    ("kernels.cross_facet.ns_per_item_b64", "ns", "lower", "D", "wall_s",
     (OP,), (), _B64),
    ("kernels.cross_facet.ns_per_item_b16384", "ns", "lower", "D", "wall_s",
     WIDE, (), _B16K),
    # -- xs -----------------------------------------------------------------
    ("xs.lookup_self_s", "s", "lower", "T", "wall_s", (SCATTER,), (STREAM,),
     "provider.lookup minus the kernel it dispatches"),
    ("xs.macroscopic_s", "s", "lower", "T", "wall_s", STEPPER, (VOL,),
     "macroscopic_into: one call per pass / per block step"),
    ("xs.lookups", "count", "lower", "R", "wall_s", (SCATTER,), (), "exact"),
    ("xs.bin_reuses", "count", "higher", "R", "wall_s", (STREAM, OE), (),
     "exact; lookups that skipped the bin search"),
    ("xs.reuse_frac", "ratio", "higher", "R", "wall_s", (STREAM, OE), (),
     "bin_reuses / lookups"),
    ("xs.mg_build_s", "s", "lower", "D", "setup_s",
     (OE, OP, STREAM, ENS, POOL), (), "cold multigroup resolved_provider()"),
    ("xs.ce_build_s", "s", "lower", "D", "setup_s", (SCATTER,), (),
     "cold CE library + union grid"),
    ("xs.provider_nbytes", "B", "lower", "R", "peak_rss_mb", (SCATTER,), (),
     "nbytes() of the workload's own provider"),
    ("xs.mg_lookup.ns_per_item", "ns", "lower", "D", "wall_s", (OE, OP),
     (SCATTER,), "backend cost at 16384 energies"),
    ("xs.ce_lookup.ns_per_item", "ns", "lower", "D", "wall_s", (SCATTER,),
     (OE, OP), "backend cost at 16384 energies"),
    # -- particles ----------------------------------------------------------
    ("particles.source_s", "s", "lower", "T", "wall_s", (SCATTER, VOL), (OP,),
     "sample_source at its use site; also the bulk of setup_s"),
    ("particles.arena_nbytes", "B", "lower", "R", "peak_rss_mb",
     (SCATTER, VOL), ()),
    ("particles.bytes_per_particle", "B", "lower", "R", "peak_rss_mb",
     (SCATTER, VOL), (),
     "138 B; 146 B with the ensemble's replica_id column"),
    ("particles.source.ns_per_history", "ns", "lower", "D", "setup_s",
     (SCATTER, VOL), (), "sample_source at 10^5 histories"),
    ("particles.to_shared_s", "s", "lower", "D", "wall_s", (POOL,), (),
     "10^5 histories"),
    ("particles.attach_s", "s", "lower", "D", "wall_s", (POOL,), (),
     "10^5 histories"),
    ("particles.compact_s", "s", "lower", "D", "wall_s", (), (),
     "10^5 histories, half dead; no workload compacts today "
     "(AUTO switch plans do)"),
    ("particles.sort_by_s", "s", "lower", "D", "wall_s", (), (),
     "10^5 histories by energy; no workload sorts today"),
    ("particles.fuse_s", "s", "lower", "D", "wall_s", (ENS,), (),
     "16 x 6250 histories"),
    # -- mesh ---------------------------------------------------------------
    ("mesh.flush_s", "s", "lower", "T", "wall_s", (STREAM, SCATTER, ENS), (),
     "flush_vec self time; 16x the calls on ens16 (one per replica per flush)"),
    ("mesh.flush_calls", "count", "lower", "T", "wall_s", (ENS, OP), ()),
    ("mesh.flush_items", "count", "lower", "R", "wall_s", (STREAM,), (),
     "exact, tally.flushes"),
    ("mesh.flush.ns_per_item_spread", "ns", "lower", "D", "wall_s",
     (STREAM,), (), "16384 flushes over the whole mesh"),
    ("mesh.flush.ns_per_item_conflict", "ns", "lower", "D", "wall_s",
     (SCATTER,), (), "16384 flushes into 16 cells"),
    # -- rng ----------------------------------------------------------------
    ("rng.draws", "count", "lower", "R", "wall_s", (SCATTER,), (), "exact"),
    ("rng.busy_s", "s", "lower", "T", "wall_s", (SCATTER, OE), (STREAM,),
     "VectorParticleRNG.next_uniform self time"),
    ("rng.threefry.ns_per_draw", "ns", "lower", "D", "wall_s", (SCATTER,),
     (), "threefry2x64_vec at 16384 counters"),
    # -- parallel -----------------------------------------------------------
    ("parallel.overhead_s", "s", "lower", "R", "wall_s", (POOL,), SERIAL,
     "wall - max(WorkerReport.busy_s): fork + attach + queue + reduce"),
    ("parallel.efficiency", "ratio", "higher", "R", "wall_s", (POOL,), (),
     "serial reference wall / (2 x pooled wall), both in the same invocation"),
    ("parallel.busy_imbalance", "ratio", "lower", "R", "wall_s", (POOL,), ()),
    ("parallel.retries", "count", "lower", "R", "wall_s", (POOL,), (),
     "must be 0, else the run fails"),
    ("parallel.workers_lost", "count", "lower", "R", "wall_s", (POOL,), (),
     "must be 0, else the run fails"),
    ("parallel.parent_self_s", "s", "lower", "T", "wall_s", (POOL,), SERIAL,
     "pooled root span minus source emission and to_shared: fork, waiting "
     "for the workers, reduce"),
    ("parallel.to_shared_s", "s", "lower", "T", "wall_s", (POOL,), SERIAL),
    # -- ensemble -----------------------------------------------------------
    ("ensemble.fused_over_serial", "ratio", "lower", "R", "wall_s", (ENS,),
     (), "fused wall / wall of one serial run of the same total histories, "
     "same invocation"),
    ("ensemble.source_s", "s", "lower", "T", "wall_s", (ENS,), (),
     "particles.source_s under the ensemble's name (16 emissions)"),
    ("ensemble.fuse_s", "s", "lower", "T", "wall_s", (ENS,), ()),
    # -- volume -------------------------------------------------------------
    ("volume.self_s", "s", "lower", "T", "wall_s", (VOL,), STEPPER,
     "3-D root span minus wrapped calls: the driver3 pass loop"),
    ("volume.kernels_busy_s", "s", "lower", "T", "wall_s", (VOL,), STEPPER),
    # -- obs ----------------------------------------------------------------
    ("obs.recorder_overhead_frac", "ratio", "lower", "R", "wall_s", (OE,), (),
     "one csp_oe_mg run with recorder=Recorder() vs its plain neighbours: "
     "the program's own telemetry cost"),
    ("obs.spans", "count", "lower", "R", "peak_rss_mb", (OE,), ()),
    # -- the benchmark's own instruments: they predict nothing ---------------
    ("trace.overhead_frac", "ratio", "lower", "T", "wall_s", (), (),
     "traced run vs the plain runs either side of it"),
    ("trace.unhit_points", "count", "lower", "T", "wall_s", (), (),
     "must be 0, else the run fails"),
    ("trace.identity_residual_s", "s", "lower", "T", "wall_s", (), (),
     "|sum of layer self times - root span|; 0 by construction"),
    ("trace.spans", "count", "lower", "T", "wall_s", (), ()),
    ("drills.phase_s", "s", "lower", "D", "wall_s", (), (),
     "duration of the drill phase itself"),
))

BY_NAME = {row.name: row for row in LAYERS}


def per_layer_manifest() -> list[dict]:
    """The table as ``BENCHMARK.json`` lists it."""
    return [{"name": r.name, "unit": r.unit, "better": r.better}
            for r in LAYERS]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write"]:
        with open(MANIFEST_PATH, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["per_layer"] = per_layer_manifest()
        with open(MANIFEST_PATH, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        return 0
    for r in LAYERS:
        print(f"{r.name:<40} {r.unit:<6} {r.source}  {r.moves:<13} "
              f"on {','.join(r.on) or '-'}; flat on "
              f"{','.join(r.flat_on) or '-'}" + (f"  # {r.note}" if r.note else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
