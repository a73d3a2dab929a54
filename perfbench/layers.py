"""Which functions the traced run wraps, and the per-layer metrics.

Each wrapper sits in the namespace of the module that makes the call
(methods are wrapped on their class), and spans are named after the
layer that owns the function.  Functions that plane_embed imports at
call time, and recursive calls, are wrapped on core_graph itself; a
span nested in one of the same name counts towards self time only,
not towards calls or inclusive time.
"""

import dpchroma.cli as cli
import dpchroma.constructions as constructions
import dpchroma.core_graph as core_graph
import dpchroma.dp_cover as dp_cover
import dpchroma.minor_truncated as minor_truncated
import dpchroma.planar_truncated as planar_truncated
import workloads

CONN = "core_graph.connectivity_at_least"
SUBGRAPH = "core_graph.Graph.subgraph"
GDP = "core_graph.is_gdp_tree"
BLOCKS = "core_graph.blocks_and_cut_vertices"
VNS = "plane_embed.very_nice_subgraph"
PLANAR = "planar_truncated.color_planar_truncated"
PLANAR_INIT = "planar_truncated.PipelineState.__init__"
PLANAR_FINISH = "planar_truncated.finish"
MINOR = "minor_truncated.color_minor_truncated"
MINOR_INIT = "minor_truncated.MinorState.__init__"
MINOR_FINISH = "minor_truncated.finish"
DDC = "dp_cover.degree_dp_color"


def _chords(args, result):
    return "plane_embed.chords_added", result.g.m - args[0].g.m


def _v2(args, result):
    return "planar_truncated.v2_size", len(args[4])


def trace_targets():
    """(owner, attribute, span name[, counter]) for SpanRecorder.install."""
    pt, mt, cs, w = planar_truncated, minor_truncated, constructions, workloads
    return [
        (core_graph, "connectivity_at_least", CONN),
        (pt, "connectivity_at_least", CONN), (mt, "connectivity_at_least", CONN),
        (cs, "connectivity_at_least", CONN), (cli, "connectivity_at_least", CONN),
        (core_graph.Graph, "subgraph", SUBGRAPH),
        (pt, "is_gdp_tree", GDP), (mt, "is_gdp_tree", GDP), (dp_cover, "is_gdp_tree", GDP),
        (core_graph, "blocks_and_cut_vertices", BLOCKS),
        (pt, "blocks_and_cut_vertices", BLOCKS), (dp_cover, "blocks_and_cut_vertices", BLOCKS),
        (pt, "very_nice_subgraph", VNS), (w, "very_nice_subgraph", VNS),
        (pt, "augment_visibility", "plane_embed.augment_visibility", _chords),
        (pt, "component_planes", "plane_embed.component_planes"),
        (w, "parse_plane", "plane_embed.parse_plane"),
        (w, "color_planar_truncated", PLANAR),
        (pt.PipelineState, "__init__", PLANAR_INIT, _v2),
        (pt.PipelineState, "refresh_safety", "planar_truncated.PipelineState.refresh_safety"),
        (pt.PipelineState, "check_invariants", "planar_truncated.PipelineState.check_invariants"),
        (pt, "step_r1", "planar_truncated.step_r1"), (pt, "step_r2", "planar_truncated.step_r2"),
        (pt, "finish", PLANAR_FINISH),
        (w, "color_minor_truncated", MINOR),
        (mt, "select_sublists", "minor_truncated.select_sublists"),
        (mt, "contract_components", "minor_truncated.contract_components"),
        (mt, "peel_sequence", "minor_truncated.peel_sequence"),
        (mt.MinorState, "__init__", MINOR_INIT),
        (mt, "step_r1", "minor_truncated.step_r1"), (mt, "step_r2", "minor_truncated.step_r2"),
        (mt, "finish", MINOR_FINISH),
        (w, "parse_cover", "dp_cover.parse_cover"),
        (pt, "residual_cover", "dp_cover.residual_cover"),
        (pt, "degree_dp_color", DDC), (mt, "degree_dp_color", DDC),
        (w, "is_degree_choosable", "exact_oracle.is_degree_choosable"),
        (w, "is_degree_dp_colorable", "exact_oracle.is_degree_dp_colorable"),
        (w, "solve_list", "exact_oracle.solve_list"),
        (cs, "find_list_coloring", "exact_oracle.find_list_coloring"),
        (w, "find_list_coloring", "exact_oracle.find_list_coloring"),
        (w, "verify_counterexample", "constructions.verify_counterexample"),
        (cs, "verify_chain", "constructions.verify_chain"),
        (cs, "verify_gadget", "constructions.verify_gadget"),
        (cs, "chain_graph", "constructions.chain_graph"),
        (cs, "_case_refuted", "constructions.chain_case_refuted"),
        (w, "generate_hub_instance", "cli.generate_hub_instance"),
    ]


# metric name -> (span name, field); field is 0 inclusive s, 1 calls, 2 self s
SPAN_METRICS = {
    "core_graph.connectivity_s": (CONN, 0),
    "core_graph.connectivity_calls": (CONN, 1),
    "core_graph.subgraph_s": (SUBGRAPH, 0),
    "core_graph.subgraph_calls": (SUBGRAPH, 1),
    "core_graph.is_gdp_tree_s": (GDP, 0),
    "core_graph.is_gdp_tree_calls": (GDP, 1),
    "core_graph.blocks_s": (BLOCKS, 0),
    "core_graph.blocks_calls": (BLOCKS, 1),
    "plane_embed.very_nice_subgraph_s": (VNS, 0),
    "plane_embed.augment_visibility_s": ("plane_embed.augment_visibility", 0),
    "plane_embed.component_planes_s": ("plane_embed.component_planes", 0),
    "plane_embed.parse_plane_s": ("plane_embed.parse_plane", 0),
    "planar_truncated.state_setup_s": (PLANAR_INIT, 0),
    "planar_truncated.refresh_safety_s": ("planar_truncated.PipelineState.refresh_safety", 0),
    "planar_truncated.refresh_safety_calls": ("planar_truncated.PipelineState.refresh_safety", 1),
    "planar_truncated.check_invariants_s": ("planar_truncated.PipelineState.check_invariants", 0),
    "planar_truncated.finish_s": (PLANAR_FINISH, 0),
    "minor_truncated.select_sublists_s": ("minor_truncated.select_sublists", 0),
    "minor_truncated.contract_s": ("minor_truncated.contract_components", 0),
    "minor_truncated.peel_s": ("minor_truncated.peel_sequence", 0),
    "minor_truncated.state_setup_s": (MINOR_INIT, 0),
    "minor_truncated.finish_s": (MINOR_FINISH, 0),
    "dp_cover.parse_cover_s": ("dp_cover.parse_cover", 0),
    "dp_cover.residual_cover_s": ("dp_cover.residual_cover", 0),
    "dp_cover.degree_dp_color_s": (DDC, 0),
    "dp_cover.degree_dp_color_calls": (DDC, 1),
    "exact_oracle.find_list_coloring_s": ("exact_oracle.find_list_coloring", 0),
    "exact_oracle.find_list_coloring_calls": ("exact_oracle.find_list_coloring", 1),
    "constructions.chain_graph_s": ("constructions.chain_graph", 0),
    "constructions.chain_cases_s": ("constructions.chain_case_refuted", 0),
    "constructions.verify_chain_self_s": ("constructions.verify_chain", 2),
    "constructions.verify_gadget_s": ("constructions.verify_gadget", 0),
    "cli.gen_s": ("cli.generate_hub_instance", 0),
    "cli.gen_self_s": ("cli.generate_hub_instance", 2),
}

# phase gaps inside a pipeline call: metric -> (pipeline span, from, to),
# where from/to name a child span and "start"/"end" pick its edge;
# None stands for the pipeline span itself
PHASE_METRICS = {
    "planar_truncated.preconditions_s": (PLANAR, (None, "start"), (PLANAR_INIT, "start")),
    "planar_truncated.loop_s": (PLANAR, (PLANAR_INIT, "end"), (PLANAR_FINISH, "start")),
    "minor_truncated.loop_s": (MINOR, (MINOR_INIT, "end"), (MINOR_FINISH, "start")),
}

COUNTER_METRICS = ("plane_embed.chords_added", "planar_truncated.v2_size")

TALLY_METRICS = ("planar_truncated.r1_steps", "planar_truncated.r2_steps",
                 "planar_truncated.protections", "minor_truncated.r1_steps",
                 "minor_truncated.r2_steps", "plane_embed.h_size",
                 "exact_oracle.positive_verdicts")

HUB_POINTS = ("x1", "x2", "x4", "x8")
DRUM_POINTS = ("q15", "q30", "q60", "q120")
# growth series, each size double the one before:
# metric prefix -> (operation kind, sizes)
SERIES = {"planar_truncated.total_s": ("planar", HUB_POINTS),
          "minor_truncated.total_s": ("minor", HUB_POINTS),
          "plane_embed.very_nice_subgraph_s": ("nice", HUB_POINTS),
          "planar_truncated.drum_s": ("planar", DRUM_POINTS),
          "minor_truncated.drum_s": ("minor", DRUM_POINTS)}

# operation-level sums of per-operation medians:
# metric -> (kind, size or None for every size)
OP_SUMS = {
    "exact_oracle.choosable_s": ("choosable", None),
    "exact_oracle.dp_s": ("dp", None),
    "exact_oracle.choosable_s.n6m8": ("choosable", "n6m8"),
    "exact_oracle.choosable_s.n6m9": ("choosable", "n6m9"),
    "exact_oracle.choosable_s.n6m10": ("choosable", "n6m10"),
    "exact_oracle.dp_s.n5m8": ("dp", "n5m8"),
    "exact_oracle.dp_s.n6m7": ("dp", "n6m7"),
    "exact_oracle.chain_refutations_s": ("chain", None),
    "exact_oracle.solve_s.n250": ("solve", "n250"),
    "exact_oracle.solve_s.n500": ("solve", "n500"),
    "constructions.verify_h_s": ("verify", "H"),
}
for _prefix, (_kind, _sizes) in SERIES.items():
    OP_SUMS.update(("%s.%s" % (_prefix, x), (_kind, x)) for x in _sizes)
OP_MAXES = {"exact_oracle.choosable_max_s": "choosable", "exact_oracle.dp_max_s": "dp"}
PROBE_METRICS = {"exact_oracle.solve_s.n1000": "solve.n1000",
                 "exact_oracle.solve_s.n2000": "solve.n2000"}


def op_figures(op_sum):
    """OP_SUMS, each from op_sum(kind, size), plus each series' growth:
    its largest size over the one below, or 0 without both."""
    out = {metric: op_sum(kind, size) for metric, (kind, size) in OP_SUMS.items()}
    for prefix, (_, sizes) in SERIES.items():
        top, below = (out["%s.%s" % (prefix, x)] for x in sizes[:-3:-1])
        out[prefix + ".growth"] = top / below if top and below else 0.0
    return out


RUN_METRICS = ("trace.overhead_ratio", "trace.unattributed_share",
               "process.peak_rss_mb", "process.ops_failed_ratio")


def _unit(name):
    if name.endswith(("_ratio", "_share", ".growth")):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def per_layer_names():
    names = list(SPAN_METRICS) + list(PHASE_METRICS) + list(COUNTER_METRICS)
    names += list(TALLY_METRICS) + list(OP_SUMS) + list(OP_MAXES) + list(PROBE_METRICS)
    names += [prefix + ".growth" for prefix in SERIES]
    return names + list(RUN_METRICS)


def per_layer_spec():
    """[(name, unit, better)] in the order BENCHMARK.json lists them."""
    return [(n, _unit(n), "lower") for n in per_layer_names()]


def _phase_seconds(rec, idxs, kids, span, start, end):
    """Summed gaps between two edges inside every `span` among idxs."""
    total = 0.0
    for i in idxs:
        if rec.names[i] != span:
            continue
        edges = []
        for child, edge in (start, end):
            j = i if child is None else kids.get((i, child))
            if j is None:
                break
            edges.append(rec.starts[j] if edge == "start" else rec.ends[j])
        else:
            total += edges[1] - edges[0]
    return total


def span_metrics(rec, once_ops, round_ops):
    """Span-derived metrics for one set-up, one pass and the long operations.

    once_ops holds the ids of the operations traced once (the set-up and
    the long operations); round_ops one list of operation ids per traced
    pass, averaged over passes.
    """
    kids = rec.first_children({n for _, a, b in PHASE_METRICS.values()
                               for n in (a[0], b[0]) if n})
    out = dict.fromkeys(list(SPAN_METRICS) + list(PHASE_METRICS) + list(COUNTER_METRICS), 0.0)
    pass_ops = [o for ops in round_ops for o in ops]
    for ops, weight in ((once_ops, 1.0), (pass_ops, 1.0 / max(len(round_ops), 1))):
        idxs = rec.select(ops)
        totals = rec.totals(idxs)
        for metric, (span, field) in SPAN_METRICS.items():
            out[metric] += totals.get(span, (0.0, 0, 0.0))[field] * weight
        for metric, phase in PHASE_METRICS.items():
            out[metric] += _phase_seconds(rec, idxs, kids, *phase) * weight
        counts = rec.counter_totals(ops)
        for name in COUNTER_METRICS:
            out[name] += counts.get(name, 0) * weight
    return out
