"""Calibration sweep: evaluate the model against every headline paper number.

Run: python calibration_check.py
Exits non-zero when any target is outside its band.
"""
import numpy as np
from repro.core import Simulation, csp_problem, stream_problem, scatter_problem, Scheme
from repro.core.config import Layout
from repro.perfmodel import Workload, predict_cpu, predict_gpu, CPUOptions, GPUOptions, TallyMode
from repro.machine import BROADWELL, KNL, POWER8, K20X, P100
from repro.parallel.affinity import Affinity

wl = {}
for name, factory, n_paper in [("stream", stream_problem, 1_000_000),
                               ("scatter", scatter_problem, 10_000_000),
                               ("csp", csp_problem, 1_000_000)]:
    r = Simulation(factory(nx=96, nparticles=60)).run(Scheme.OVER_EVENTS)
    wl[name] = Workload.from_result(r).scaled(n_paper, 4000)

OP = lambda nt, **kw: CPUOptions(nthreads=nt, **kw)
OE = lambda nt, **kw: CPUOptions(nthreads=nt, scheme=Scheme.OVER_EVENTS, layout=Layout.SOA, **kw)

def t_cpu(w, spec, opt): return predict_cpu(w, spec, opt).seconds

w = wl["csp"]
res = {}
for label, spec, nt, fast in [("bdw", BROADWELL, 88, False), ("knl", KNL, 256, True), ("p8", POWER8, 160, False)]:
    aff = Affinity.SCATTER if label == "knl" else Affinity.COMPACT
    res[label+"_op"] = t_cpu(w, spec, OP(nt, use_fast_memory=fast, affinity=aff))
    res[label+"_oe"] = t_cpu(w, spec, OE(nt, use_fast_memory=fast, affinity=aff))
for label, spec in [("k20x", K20X), ("p100", P100)]:
    res[label+"_op"] = predict_gpu(w, spec, GPUOptions()).seconds
    res[label+"_oe"] = predict_gpu(w, spec, GPUOptions(scheme=Scheme.OVER_EVENTS)).seconds

checks = []
def chk(name, val, target, lo, hi):
    ok = lo <= val <= hi
    checks.append((name, val, target, ok))

# Fig 9/11: OP vs OE csp ratios
chk("BDW OE/OP csp (4.56x)", res["bdw_oe"]/res["bdw_op"], 4.56, 2.5, 7.0)
chk("P8 OE/OP csp (3.75x)", res["p8_oe"]/res["p8_op"], 3.75, 2.0, 6.0)
chk("P8 gap < BDW gap", (res["p8_oe"]/res["p8_op"]) / (res["bdw_oe"]/res["bdw_op"]), 0.82, 0.0, 1.0)
# Fig 13: P100 OP vs OE 3.64x; P100 4.5x over K20X
chk("P100 OE/OP csp (3.64x)", res["p100_oe"]/res["p100_op"], 3.64, 2.0, 5.5)
chk("K20X/P100 OP csp (4.5x)", res["k20x_op"]/res["p100_op"], 4.5, 3.0, 6.0)
# Fig 14: P100 3.2x faster than BDW; BDW 1.34x over P8; KNL/P8 similar; K20X slowest csp
chk("BDW/P100 csp (3.2x)", res["bdw_op"]/res["p100_op"], 3.2, 2.0, 4.5)
chk("BDW faster than P8 (1.34x)", res["p8_op"]/res["bdw_op"], 1.34, 1.1, 1.7)
chk("KNL ~ P8 csp", res["knl_op"]/res["p8_op"], 1.0, 0.75, 1.35)
chk("K20X slowest csp (vs P8)", res["k20x_op"]/res["p8_op"], 1.1, 1.0, 3.0)
# Fig 12: K20X bandwidths
p = predict_gpu(w, K20X, GPUOptions())
chk("K20X OP bw ~35GB/s", p.achieved_bandwidth_gbs, 35, 25, 48)
p = predict_gpu(w, K20X, GPUOptions(scheme=Scheme.OVER_EVENTS))
chk("K20X OE bw ~90GB/s", p.achieved_bandwidth_gbs, 90, 60, 130)
p = predict_gpu(w, P100, GPUOptions())
chk("P100 OP bw ~125GB/s", p.achieved_bandwidth_gbs, 125, 95, 160)
chk("P100 occupancy 0.38", p.occupancy, 0.38, 0.35, 0.42)
# Fig 13: P100 reg cap 64: occ 0.49, 1.07x slower
q = predict_gpu(w, P100, GPUOptions(max_registers=64))
chk("P100 reg64 occ 0.49", q.occupancy, 0.49, 0.47, 0.52)
chk("P100 reg64 1.07x slower", q.seconds/p.seconds, 1.07, 1.0, 1.2)
# §VI-H: K20X reg cap 102->64 gives 1.6x
k = predict_gpu(w, K20X, GPUOptions())
k64 = predict_gpu(w, K20X, GPUOptions(max_registers=64))
chk("K20X reg64 speedup 1.6x", k.seconds/k64.seconds, 1.6, 1.3, 1.9)
# §VIII-A: P100 native atomics worth 1.20x
pe = predict_gpu(w, P100, GPUOptions(force_emulated_atomics=True))
chk("P100 atomicAdd 1.20x", pe.seconds/p.seconds, 1.20, 1.1, 1.35)
# Fig 6: HT speedups
for label, spec, base, full, target, lo, hi, fast in [
    ("BDW HT 1.37x", BROADWELL, 44, 88, 1.37, 1.2, 1.6, False),
    ("KNL SMT4 2.16x", KNL, 64, 256, 2.16, 1.8, 2.6, True),
    ("P8 SMT8 6.2x", POWER8, 20, 160, 6.2, 4.5, 7.5, False)]:
    s = (t_cpu(w, spec, OP(base, use_fast_memory=fast, affinity=Affinity.SCATTER))
         / t_cpu(w, spec, OP(full, use_fast_memory=fast, affinity=Affinity.SCATTER)))
    chk(label, s, target, lo, hi)
# Fig 10: KNL MCDRAM effects
oe_d = t_cpu(w, KNL, OE(256, use_fast_memory=False, affinity=Affinity.SCATTER))
oe_m = t_cpu(w, KNL, OE(256, use_fast_memory=True, affinity=Affinity.SCATTER))
chk("KNL OE MCDRAM 2.38x", oe_d/oe_m, 2.38, 1.7, 4.5)
op_d = t_cpu(w, KNL, OP(256, use_fast_memory=False, affinity=Affinity.SCATTER))
op_m = t_cpu(w, KNL, OP(256, use_fast_memory=True, affinity=Affinity.SCATTER))
chk("KNL OP MCDRAM small gain", op_d/op_m, 1.2, 0.95, 1.7)
chk("MCDRAM helps OE more than OP", (oe_d/oe_m)/(op_d/op_m), 2.0, 1.3, 4.0)
# Fig 10: KNL scatter: OE 1.73x faster; csp OE 2.15x slower
ws = wl["scatter"]
s_op = t_cpu(ws, KNL, OP(256, use_fast_memory=True, affinity=Affinity.SCATTER))
s_oe = t_cpu(ws, KNL, OE(256, use_fast_memory=True, affinity=Affinity.SCATTER))
chk("KNL scatter OE wins 1.73x", s_op/s_oe, 1.73, 1.2, 2.6)
chk("KNL csp OE loses 2.15x (DRAM)", t_cpu(w, KNL, OE(256, use_fast_memory=False, affinity=Affinity.SCATTER))/op_d, 2.15, 1.4, 3.6)
# Fig 10: KNL scatter OP slightly faster from DRAM
s_op_d = t_cpu(ws, KNL, OP(256, use_fast_memory=False, affinity=Affinity.SCATTER))
chk("KNL scatter OP DRAM faster", s_op_d/s_op, 0.97, 0.80, 1.005)
# BDW scatter: OP must beat OE (Fig 9)
chk("BDW scatter OP wins", t_cpu(ws, BROADWELL, OE(88))/t_cpu(ws, BROADWELL, OP(88)), 3.0, 1.5, 20.0)
# §VI-A: tally ~50% OP, ~22% OE; grind ratio collision ~6x facet
pp = predict_cpu(w, BROADWELL, OP(88))
chk("tally share OP ~50%", pp.tally_fraction, 0.50, 0.40, 0.60)
pe_ = predict_cpu(w, BROADWELL, OE(88))
chk("tally share OE ~22%", pe_.tally_fraction, 0.22, 0.10, 0.35)
gs = predict_cpu(wl["scatter"], BROADWELL, OP(88)).grind_times_ns
gf = predict_cpu(wl["stream"], BROADWELL, OP(88)).grind_times_ns
chk("grind ratio coll/facet (reported)", gs["collision"]/max(gf["facet"],1e-9), 6.0, 0.3, 20.0)
chk("stream facet grind ~3ns", gf["facet"], 3.0, 1.5, 6.0)
# §VI-F: tally privatisation 1.16x BDW csp, merge-every-step slower
priv = t_cpu(w, BROADWELL, OP(88, tally=TallyMode.PRIVATIZED))
chk("BDW priv tally 1.16x", res["bdw_op"]/priv, 1.16, 1.0, 1.4)
privk = t_cpu(w, KNL, OP(256, tally=TallyMode.PRIVATIZED, use_fast_memory=True, affinity=Affinity.SCATTER))
chk("KNL priv tally 1.18x", res["knl_op"]/privk, 1.18, 1.0, 1.5)
merge = t_cpu(w, BROADWELL, OP(88, tally=TallyMode.PRIVATIZED_MERGE_EVERY_STEP))
chk("merge-every-step slower than atomic", merge/res["bdw_op"], 1.2, 1.0001, 3.0)

print(f"{'check':44s} {'value':>8s} {'paper':>7s}  ok")
nbad = 0
for name, val, target, ok in checks:
    if not ok: nbad += 1
    print(f"{name:44s} {val:8.2f} {target:7.2f}  {'OK' if ok else '** FAIL **'}")
print(f"\n{len(checks)-nbad}/{len(checks)} targets within band")
print("\nabsolute csp times:", {k: round(v,1) for k,v in res.items()})
# A target outside its band fails the run (the CI paper-figures job).
raise SystemExit(1 if nbad else 0)
