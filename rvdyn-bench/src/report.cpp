#include "report.hpp"

namespace rvdyn_bench {

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> m = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"op_ms_p50", "ms", "lower"},
      {"op_ms_tail", "ms", "lower"},
      {"work_per_s", "1/s", "higher"},
      {"overhead_pct", "%", "lower"},
  };
  return m;
}

namespace {

// Layers that own spans; "bench" is the harness around the calls.
const MetricInfo kLayerSelf[] = {
    {"layer.symtab.self_ms", "ms", "lower"},
    {"layer.parse.self_ms", "ms", "lower"},
    {"layer.dataflow.self_ms", "ms", "lower"},
    {"layer.patch.self_ms", "ms", "lower"},
    {"layer.proccontrol.self_ms", "ms", "lower"},
    {"layer.emu.self_ms", "ms", "lower"},
    {"layer.stackwalk.self_ms", "ms", "lower"},
    {"layer.obs.self_ms", "ms", "lower"},
    {"layer.fuzz.self_ms", "ms", "lower"},
    {"layer.bench.self_ms", "ms", "lower"},
};

}  // namespace

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> m = [] {
    std::vector<MetricInfo> v(std::begin(kLayerSelf), std::end(kLayerSelf));
    const MetricInfo rest[] = {
        {"symtab.read_ms", "ms", "lower"},
        {"symtab.write_ms", "ms", "lower"},
        {"parse.parse_ms", "ms", "lower"},
        {"parse.traversal_ns", "ns", "lower"},
        {"parse.finalize_ns", "ns", "lower"},
        {"parse.gaps_ns", "ns", "lower"},
        {"parse.sched.idle_ns", "ns", "lower"},
        {"parse.steals", "count", "lower"},
        {"parse.sched.contended", "count", "lower"},
        {"parse.blocks", "count", "lower"},
        {"parse.symbolize_us_p50", "us", "lower"},
        {"dataflow.summaries_ms", "ms", "lower"},
        {"dataflow.liveness_ms", "ms", "lower"},
        {"dataflow.slicing_ms", "ms", "lower"},
        {"dataflow.stack_height_ms", "ms", "lower"},
        {"codegen.snippet_insns_per_point", "count", "lower"},
        {"codegen.spill_share", "ratio", "lower"},
        {"patch.insert_ms", "ms", "lower"},
        {"patch.commit_ms", "ms", "lower"},
        {"patch.pass.lower.ns", "ns", "lower"},
        {"patch.pass.weave.ns", "ns", "lower"},
        {"patch.pass.rvc.ns", "ns", "lower"},
        {"patch.pass.relax.ns", "ns", "lower"},
        {"patch.pass.emit.ns", "ns", "lower"},
        {"patch.relax_iterations", "count", "lower"},
        {"patch.entry_trap", "count", "lower"},
        {"patch.rvc_saved_bytes", "bytes", "higher"},
        {"proccontrol.launch_ms", "ms", "lower"},
        {"proccontrol.commit_to_ms", "ms", "lower"},
        {"emu.run_ms", "ms", "lower"},
        {"emu.guest_insns_per_op", "count", "lower"},
        {"emu.jit.retired_share", "ratio", "higher"},
        {"emu.jit.compile_ms", "ms", "lower"},
        {"emu.bcache.hit_share", "ratio", "higher"},
        {"emu.reset_ns_p50", "ns", "lower"},
        {"emu.exec_ns_p50", "ns", "lower"},
        {"emu.reset_pages_per_exec", "count", "lower"},
        {"emu.jit.sessions_per_exec", "count", "lower"},
        {"stackwalk.walk_us_p50", "us", "lower"},
        {"stackwalk.frames_per_walk", "count", "lower"},
        {"obs.samples", "count", "lower"},
        {"obs.fold_us_p50", "us", "lower"},
        {"fuzz.weave_ms", "ms", "lower"},
        {"fuzz.campaign_ns_per_exec", "ns", "lower"},
        {"fuzz.harness_ns_per_exec", "ns", "lower"},
        {"fuzz.loop_efficiency", "ratio", "higher"},
        {"fuzz.corpus_admits", "count", "lower"},
        {"fuzz.execs_to_bug", "count", "lower"},
        {"assembler.assemble_ms", "ms", "lower"},
        {"isa.decoder_init_ms", "ms", "lower"},
        {"trace.overhead_pct", "%", "lower"},
        {"trace.spans_per_op", "count", "lower"},
    };
    v.insert(v.end(), std::begin(rest), std::end(rest));
    return v;
  }();
  return m;
}

Metrics per_layer_report(const Tracer& tr, std::size_t ops,
                         const Metrics& raw, const Tracer& setup,
                         double trace_overhead_pct) {
  Metrics out;
  for (const MetricInfo& mi : per_layer_metrics()) out[mi.name] = 0;
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  const auto get = [&](const char* k) {
    const auto it = raw.find(k);
    return it == raw.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  for (const auto& [layer, ms] : layer_self_ms(tr)) {
    const std::string k = "layer." + layer + ".self_ms";
    if (out.count(k)) out[k] = ms / n;
  }

  const auto stats = tr.stats();
  const auto span_ms_per_op = [&](const char* span) {
    const auto it = stats.find(span);
    return it == stats.end() ? 0.0 : it->second.total_ns / 1e6 / n;
  };
  const auto span_p50_ns = [&](const char* span) {
    const auto it = stats.find(span);
    return it == stats.end() ? 0.0 : median(it->second.durations_ns);
  };
  out["symtab.read_ms"] = span_ms_per_op("symtab.read");
  out["symtab.write_ms"] = span_ms_per_op("symtab.write");
  out["parse.parse_ms"] = span_ms_per_op("parse.parse");
  out["dataflow.summaries_ms"] = span_ms_per_op("dataflow.summaries");
  out["dataflow.liveness_ms"] = span_ms_per_op("dataflow.liveness");
  out["dataflow.slicing_ms"] = span_ms_per_op("dataflow.slicing");
  out["dataflow.stack_height_ms"] = span_ms_per_op("dataflow.stack_height");
  out["patch.insert_ms"] = span_ms_per_op("patch.insert");
  out["patch.commit_ms"] = span_ms_per_op("patch.commit");
  out["proccontrol.launch_ms"] = span_ms_per_op("proccontrol.launch");
  out["proccontrol.commit_to_ms"] = span_ms_per_op("proccontrol.commit_to");
  out["emu.run_ms"] = span_ms_per_op("emu.run");
  out["fuzz.weave_ms"] = span_ms_per_op("fuzz.weave");
  out["parse.symbolize_us_p50"] = span_p50_ns("parse.symbolize") / 1e3;
  out["stackwalk.walk_us_p50"] = span_p50_ns("stackwalk.walk") / 1e3;
  out["obs.fold_us_p50"] = span_p50_ns("obs.fold") / 1e3;
  out["emu.reset_ns_p50"] = span_p50_ns("emu.reset");
  out["emu.exec_ns_p50"] = span_p50_ns("emu.exec");

  out["parse.traversal_ns"] = get("rvdyn.parse.traversal_ns") / n;
  out["parse.finalize_ns"] = get("rvdyn.parse.finalize_ns") / n;
  out["parse.gaps_ns"] = get("rvdyn.parse.gaps_ns") / n;
  out["parse.sched.idle_ns"] = get("rvdyn.parse.sched.idle_ns") / n;
  out["parse.steals"] = get("rvdyn.parse.steals") / n;
  out["parse.sched.contended"] = get("rvdyn.parse.sched.contended") / n;
  out["parse.blocks"] = get("rvdyn.parse.blocks") / n;

  out["codegen.snippet_insns_per_point"] =
      ratio(get("rvdyn.patch.snippet_insns"), get("rvdyn.patch.snippets_inserted"));
  out["codegen.spill_share"] =
      ratio(get("rvdyn.patch.scratch_spilled"),
            get("rvdyn.patch.scratch_spilled") + get("rvdyn.patch.scratch_from_dead"));
  for (const char* pass : {"lower", "weave", "rvc", "relax", "emit"}) {
    const std::string k = std::string("patch.pass.") + pass + ".ns";
    out[k] = get(("rvdyn." + k).c_str()) / n;
  }
  out["patch.relax_iterations"] = get("rvdyn.patch.relax_iterations") / n;
  out["patch.entry_trap"] = get("rvdyn.patch.entry_trap") / n;
  out["patch.rvc_saved_bytes"] =
      (get("rvdyn.patch.text_bytes_before_rvc") - get("rvdyn.patch.text_bytes")) / n;

  out["emu.guest_insns_per_op"] = get("emu.guest_insns") / n;
  out["emu.jit.retired_share"] = ratio(get("rvdyn.emu.jit.insns_retired"), get("emu.guest_insns"));
  out["emu.jit.compile_ms"] = get("rvdyn.emu.jit.compile_ns") / 1e6 / n;
  out["emu.bcache.hit_share"] =
      ratio(get("rvdyn.emu.bcache.hit"), get("rvdyn.emu.bcache.hit") + get("rvdyn.emu.bcache.miss"));
  out["emu.reset_pages_per_exec"] = ratio(get("fuzz.reset_pages"), get("fuzz.execs"));
  out["emu.jit.sessions_per_exec"] = ratio(get("rvdyn.emu.jit.sessions"), get("fuzz.execs"));

  out["stackwalk.frames_per_walk"] = ratio(get("stackwalk.frames"), get("stackwalk.walks"));
  out["obs.samples"] = get("obs.samples") / n;

  const auto campaign = stats.find("fuzz.campaign");
  if (campaign != stats.end() && get("fuzz.execs") > 0) {
    const double campaign_ns = campaign->second.total_ns / get("fuzz.execs");
    const auto reset = stats.find("emu.reset");
    const auto exec = stats.find("emu.exec");
    double raw_ns = 0;
    if (reset != stats.end() && exec != stats.end())
      raw_ns = (reset->second.total_ns + exec->second.total_ns) /
               static_cast<double>(reset->second.count);
    out["fuzz.campaign_ns_per_exec"] = campaign_ns;
    out["fuzz.harness_ns_per_exec"] = campaign_ns - raw_ns;
    out["fuzz.loop_efficiency"] = ratio(raw_ns, campaign_ns);
  }
  out["fuzz.corpus_admits"] = ratio(get("fuzz.corpus_admits"), get("fuzz.campaigns"));
  out["fuzz.execs_to_bug"] = get("fuzz.execs_to_bug");

  const auto setup_stats = setup.stats();
  const auto setup_ms = [&](const char* span) {
    const auto it = setup_stats.find(span);
    return it == setup_stats.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  out["assembler.assemble_ms"] = setup_ms("assembler.assemble");
  out["isa.decoder_init_ms"] = setup_ms("isa.decoder_init");
  out["trace.overhead_pct"] = trace_overhead_pct;
  out["trace.spans_per_op"] = static_cast<double>(tr.spans().size()) / n;
  return out;
}

}  // namespace rvdyn_bench
