"""What the traced round wraps, which calls each workload must show, and
how the per-layer metrics are derived from the trace.

The layer -> metric -> workload mapping is documented in README.md.
"""

from __future__ import annotations

from tracer import traced_name

# --- hooks: counts taken from a wrapped call's arguments or result -----------

LONG_OPERAND = 16  # a pmul call is long when its longer operand has this many coefficients


def _pmul(extra, args, result):
    f, g = args[0], args[1]
    extra["intpoly.pmul.coef_mults"] += len(f) * len(g)
    if max(len(f), len(g)) >= LONG_OPERAND:
        extra["intpoly.pmul.long_calls"] += 1


def _arms(extra, args, result):
    extra["graphs.arms"] += len(result)


def _lines(extra, args, result):
    extra["graphs.pointed_lines"] += len(result)


def _basis(extra, args, result):
    if result.k > 1:
        extra["curves.torsion_basis.ext_calls"] += 1


def _brute(extra, args, result):
    module = args[0]
    extra["verify.brute_vectors"] += module.ell ** module.dim


# (module, qualname, hook, keep full spans) per layer.  Spans are kept only
# at the coarse verification boundaries; everything else is aggregated.
LAYERS = {
    "intpoly": [
        ("isogeny_lab.intpoly", "pmul", _pmul, False),
        ("isogeny_lab.intpoly", "pdivmod", None, False),
        ("isogeny_lab.intpoly", "ppowmod", None, False),
        ("isogeny_lab.intpoly", "roots_in_fq", None, False),
        ("isogeny_lab.intpoly", "factors_of_degree", None, False),
        ("isogeny_lab.intpoly", "equal_degree_split", None, False),
    ],
    "order table": [
        ("isogeny_lab.graphs", "FqTables._build_orders", None, False),
    ],
    "arm discovery": [
        ("isogeny_lab.graphs", "rational_order_ell_subgroups", _arms, False),
        ("isogeny_lab.graphs", "_rational_ell_points", None, False),
    ],
    "pointed lines": [
        ("isogeny_lab.graphs", "enumerate_pointed_lines", _lines, False),
    ],
    "velu quotients and class keys": [
        ("isogeny_lab.graphs", "velu_codomain_int", None, False),
        ("isogeny_lab.graphs", "short_class_key", None, False),
        ("isogeny_lab.graphs", "solve_twist_scale", None, False),
        ("isogeny_lab.graphs", "_match_dual_line", None, False),
        ("isogeny_lab.graphs", "build_pointed_graphs", None, True),
    ],
    "soundness checks": [
        ("isogeny_lab.graphs", "_soundness_checks", None, False),
    ],
    "torsion bases, pairings, frobenius": [
        ("isogeny_lab.curves", "torsion_field_degree", None, False),
        ("isogeny_lab.curves", "torsion_basis", _basis, False),
        ("isogeny_lab.curves", "weil_pairing", None, False),
        ("isogeny_lab.curves", "_miller_shifted", None, False),
        ("isogeny_lab.curves", "frobenius_matrix", None, False),
    ],
    "fields": [
        ("isogeny_lab.fields", "_roots_large_field", None, False),
        ("isogeny_lab.fields", "Polynomial.pow_mod", None, False),
        # the package builds extension moduli through find_irreducible_ints;
        # the public find_irreducible wrapper is never on a verification path
        ("isogeny_lab.fields", "find_irreducible_ints", None, False),
    ],
    "isogenies": [
        ("isogeny_lab.isogenies", "velu_quotient", None, False),
        ("isogeny_lab.isogenies", "family_e3", None, False),
    ],
    "galois_modules": [
        ("isogeny_lab.galois_modules", "is_semisimple", None, False),
        ("isogeny_lab.galois_modules", "theorem2_construct", None, True),
        ("isogeny_lab.galois_modules", "fixed_subspace", None, False),
        ("isogeny_lab.galois_modules", "subspace_lattice", None, False),
        ("isogeny_lab.galois_modules", "group_closure", None, False),
        ("isogeny_lab.galois_modules", "relative_invariant_complement", None, False),
        ("isogeny_lab.galois_modules", "rref", None, False),
    ],
    "verify": [
        ("isogeny_lab.verify", "verify_theorem1", None, True),
        ("isogeny_lab.verify", "lemma_sweep", None, True),
        ("isogeny_lab.verify", "_line_subspace", None, False),
        ("isogeny_lab.verify", "_brute_fixed_vectors", _brute, False),
        ("isogeny_lab.verify", "verify_theorem2_products", None, True),
    ],
    "reports": [
        ("isogeny_lab.reports", "merge_reports", None, True),
    ],
}

TARGETS = [t for group in LAYERS.values() for t in group]
TRACED = [traced_name(t[0], t[1]) for t in TARGETS]

_SWEEP_CORE = [
    "intpoly.pmul", "intpoly.pdivmod", "intpoly.ppowmod", "intpoly.roots_in_fq",
    "intpoly.factors_of_degree", "graphs.FqTables._build_orders",
    "graphs.rational_order_ell_subgroups", "graphs.enumerate_pointed_lines",
    "graphs.velu_codomain_int", "graphs.short_class_key", "graphs.solve_twist_scale",
    "graphs.build_pointed_graphs", "graphs._soundness_checks",
    "verify.verify_theorem1", "verify.lemma_sweep", "reports.merge_reports",
]
_TORSION = [
    "curves.torsion_field_degree", "curves.torsion_basis", "curves.weil_pairing",
    "curves._miller_shifted", "curves.frobenius_matrix", "fields._roots_large_field",
    "fields.Polynomial.pow_mod", "verify._line_subspace",
]

# Functions that must record calls on a workload, whatever the seed.  A
# traced round in which one of them records none, or which finds one no
# longer defined by the program, fails: the tracer has lost sight of that
# layer.  A renamed function is renamed here too.
EXPECTED = {
    "sweep-ell3": _SWEEP_CORE + _TORSION + ["graphs._rational_ell_points"],
    "sweep-ell7": _SWEEP_CORE + ["graphs._rational_ell_points"],
    "theorem2-ext": [
        "intpoly.pmul", "graphs.build_pointed_graphs", "verify.verify_theorem2_products",
        "curves.torsion_field_degree", "curves.torsion_basis", "curves.frobenius_matrix",
        "curves.weil_pairing", "fields._roots_large_field", "fields.Polynomial.pow_mod",
        "fields.find_irreducible_ints", "isogenies.velu_quotient", "isogenies.family_e3",
        "galois_modules.is_semisimple", "galois_modules.theorem2_construct",
        "galois_modules.fixed_subspace", "galois_modules.subspace_lattice",
        "galois_modules.group_closure", "galois_modules.relative_invariant_complement",
        "galois_modules.rref", "verify._line_subspace", "verify._brute_fixed_vectors",
    ],
    "sweep-mixed-2w": _SWEEP_CORE + _TORSION + ["graphs._rational_ell_points"],
    "smoke-ell3": ["intpoly.pmul", "graphs.build_pointed_graphs", "verify.verify_theorem1"],
}

# --- metric names --------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "peak_rss_mb": "MB",
}

_EXTRA = {
    "intpoly.pmul.coef_mults": "count",
    "intpoly.pmul.long_share": "ratio",
    "graphs.arms": "count",
    "graphs.pointed_lines": "count",
    "graphs.match_fallback_share": "ratio",
    "graphs.soundness.isogenies": "count",
    "curves.torsion_basis.per_target": "ratio",
    "curves.torsion_basis.ext_share": "ratio",
    "curves.miller.degenerate_share": "ratio",
    "curves.aux_points.hit_share": "ratio",
    "verify.brute_vectors": "count",
    "verify.run_sweep.child_cpu_s": "s",
    "verify.run_sweep.worker_util": "ratio",
    "reports.json_bytes": "B",
    "workload.tasks": "count",
    "workload.q1_share": "ratio",
    "workload.order_two_targets": "count",
    "trace.overhead_s": "s",
    "trace.self_sum_share": "ratio",
}

PER_LAYER = {}
for _name in TRACED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update(_EXTRA)


def _share(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: dict, ctx: dict) -> dict:
    """Per-layer values from a merged trace plus the round context.

    `ctx` carries what the trace cannot see: report counts, figures of the
    untraced rounds and the traced wall time.
    """
    stats, extra = trace["stats"], trace["extra"]

    def calls(name):
        return stats.get(name, [0, 0.0])[0]

    out = {}
    for name in TRACED:
        n, self_s = stats.get(name, [0, 0.0])
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = self_s
    arms = extra.get("graphs.arms", 0)
    hits, misses = extra.get("aux.hits", 0), extra.get("aux.misses", 0)
    out.update({
        "intpoly.pmul.coef_mults": extra.get("intpoly.pmul.coef_mults", 0),
        "intpoly.pmul.long_share": _share(extra.get("intpoly.pmul.long_calls", 0),
                                          calls("intpoly.pmul")),
        "graphs.arms": arms,
        "graphs.pointed_lines": extra.get("graphs.pointed_lines", 0),
        "graphs.match_fallback_share": _share(calls("graphs._match_dual_line"), arms),
        "graphs.soundness.isogenies": ctx["isogenies"],
        "curves.torsion_basis.per_target": _share(calls("curves.torsion_basis"),
                                                  ctx["order_two_targets"]),
        "curves.torsion_basis.ext_share": _share(
            extra.get("curves.torsion_basis.ext_calls", 0), calls("curves.torsion_basis")),
        "curves.miller.degenerate_share": _share(
            extra.get("curves._miller_shifted.raise.ZeroDivisionError", 0),
            calls("curves._miller_shifted")),
        "curves.aux_points.hit_share": _share(hits, hits + misses),
        "verify.brute_vectors": extra.get("verify.brute_vectors", 0),
        "verify.run_sweep.child_cpu_s": ctx["child_cpu_s"],
        "verify.run_sweep.worker_util": ctx["worker_util"],
        "reports.json_bytes": ctx["json_bytes"],
        "workload.tasks": ctx["tasks"],
        "workload.q1_share": ctx["q1_share"],
        "workload.order_two_targets": ctx["order_two_targets"],
        "trace.overhead_s": ctx["overhead_s"],
        "trace.self_sum_share": _share(
            sum(v[1] for v in stats.values()), ctx["traced_wall_s"] * ctx["processes"]),
    })
    return out
