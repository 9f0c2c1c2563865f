#include "patch/reloc/mover.hpp"

#include <chrono>
#include <mutex>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvdyn::patch::reloc {

namespace {
// Trace events keep the name pointer past this frame; intern pass span
// names so they have static storage like literal hook sites.
const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::set<std::string> pool;
  const std::lock_guard<std::mutex> lock(mu);
  return pool.insert(s).first->c_str();
}
}  // namespace

CodeMover::CodeMover(std::uint64_t base, bool rvc,
                     codegen::CodeGenerator* gen,
                     const dataflow::Summaries* summaries) {
  module_.base = base;
  module_.rvc = rvc;
  module_.gen = gen;
  module_.summaries = summaries;
}

void CodeMover::add_function(const parse::Function* f, WeaveSpec spec) {
  FunctionImage fi;
  fi.func = f;
  fi.spec = std::move(spec);
  module_.funcs.push_back(std::move(fi));
}

void CodeMover::add_pass(std::unique_ptr<Pass> p) {
  extra_passes_.push_back(std::move(p));
}

const std::vector<std::uint8_t>& CodeMover::run() {
  std::vector<std::unique_ptr<Pass>> pipeline;
  pipeline.push_back(make_lower_pass());
  pipeline.push_back(make_weave_pass());
  for (auto& p : extra_passes_) pipeline.push_back(std::move(p));
  extra_passes_.clear();
  pipeline.push_back(make_rvc_pass());
  pipeline.push_back(make_relax_pass());
  pipeline.push_back(make_emit_pass());

  for (const auto& pass : pipeline) {
    const std::string span_name =
        std::string("rvdyn.patch.pass.") + pass->name();
    const obs::Span span(intern(span_name));
    const auto t0 = std::chrono::steady_clock::now();
    pass->run(module_);
    const auto dt = std::chrono::steady_clock::now() - t0;
    obs::Gauge(span_name + ".ns")
        .set(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));
  }
  return module_.text;
}

}  // namespace rvdyn::patch::reloc
