// End-to-end observability: run the full assemble → parse → instrument →
// execute pipeline with tracing on and check that (a) the Chrome trace
// contains the expected spans and (b) the metrics registry saw real traffic
// from every layer's hot path.
#include <gtest/gtest.h>

#include <string>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn {
namespace {

TEST(ObsPipeline, TraceAndMetricsCoverTheWholeStack) {
  obs::TraceSink& sink = obs::TraceSink::instance();
  sink.clear();
  sink.set_enabled(true);

  const symtab::Symtab bin =
      assembler::assemble(workloads::matmul_program(8, 2), {});

  patch::BinaryEditor editor(bin);
  const auto counter = editor.alloc_var("entries");
  const auto* f = editor.code().function_named("matmul");
  ASSERT_NE(f, nullptr);
  editor.insert_at(f->entry(), patch::PointType::FuncEntry,
                   codegen::increment(counter));
  const symtab::Symtab rewritten = editor.commit();

  auto proc = proccontrol::Process::launch(rewritten);
  proc->install_trap_table(editor.trap_table());
  const auto ev = proc->continue_run();
  ASSERT_EQ(ev.kind, proccontrol::Event::Kind::Exited);
  EXPECT_EQ(proc->read_mem(counter.addr, 8), 2u);

  proc->machine().publish_metrics();
  sink.set_enabled(false);

  // The timeline covers every pipeline stage.
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("rvdyn.asm.assemble"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.parse"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.patch.commit"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.emu.load"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.proc.continue_run"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.emu.run"), std::string::npos);

  // Hot-path counters from each layer saw real traffic.
  obs::Registry& r = obs::Registry::instance();
  EXPECT_GT(r.value("rvdyn.isa.decode32.fast"), 0u);
  EXPECT_GT(r.value("rvdyn.emu.icache.hit"), 0u);
  EXPECT_GT(r.value("rvdyn.emu.bcache.hit"), 0u);
  EXPECT_GT(r.value("rvdyn.parse.functions"), 0u);
  EXPECT_GT(r.value("rvdyn.parse.blocks"), 0u);
  EXPECT_GT(r.value("rvdyn.patch.snippets_inserted"), 0u);
  EXPECT_GT(r.value("rvdyn.patch.relocated_functions"), 0u);

  // The snapshot renders to JSON with the namespaces present.
  const std::string metrics = r.to_json();
  EXPECT_NE(metrics.find("rvdyn.isa."), std::string::npos);
  EXPECT_NE(metrics.find("rvdyn.emu."), std::string::npos);
  EXPECT_NE(metrics.find("rvdyn.parse."), std::string::npos);
  EXPECT_NE(metrics.find("rvdyn.patch."), std::string::npos);
}

TEST(ObsPipeline, HwCounterFileMatchesArchitecturalState) {
  const symtab::Symtab bin =
      assembler::assemble(workloads::fib_program(10), {});
  auto proc = proccontrol::Process::launch(bin);
  const auto ev = proc->continue_run();
  ASSERT_EQ(ev.kind, proccontrol::Event::Kind::Exited);

  const auto hw = proc->hw_counters();
  EXPECT_EQ(hw.instret, proc->machine().instret());
  EXPECT_EQ(hw.cycles, proc->machine().cycles());
  EXPECT_GT(hw.instret, 0u);
  // Cache counters mirror cache_stats().
  EXPECT_EQ(hw.bcache_hits, proc->machine().cache_stats().bcache_hits);
  EXPECT_GT(hw.blocks_entered, 0u);
}

}  // namespace
}  // namespace rvdyn
