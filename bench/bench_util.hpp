// Shared plumbing for the table/figure harnesses: assemble a workload,
// optionally instrument it, execute it on the emulator, and report the
// mutatee's own clock_gettime-based timing plus machine counters.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "emu/machine.hpp"
#include "obs/metrics.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"

#ifndef RVDYN_GIT_SHA
#define RVDYN_GIT_SHA "unknown"
#endif
#ifndef RVDYN_BUILD_TYPE
#define RVDYN_BUILD_TYPE "unknown"
#endif

namespace rvdyn::bench {

// ---- build hygiene --------------------------------------------------------

/// True when this harness was compiled without optimization (-O0). Numbers
/// from such a build measure the compiler's laziness, not the toolkit;
/// every BENCH_*.json records the flag so a degraded file can never be
/// mistaken for a real baseline.
constexpr bool build_is_degraded() {
#if defined(__OPTIMIZE__)
  return false;
#else
  return true;
#endif
}

/// Loud stderr banner when running a degraded build. Call once at harness
/// start (run_benchmarks_with_json and JsonWriter::write both do).
inline void warn_if_degraded() {
  if (!build_is_degraded()) return;
  std::fprintf(stderr,
               "*** WARNING: benchmark built WITHOUT optimization "
               "(build_type=%s). ***\n"
               "*** Numbers below are not comparable to committed "
               "baselines; rebuild with   ***\n"
               "*** -DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo) before "
               "trusting them.    ***\n",
               RVDYN_BUILD_TYPE);
}

// ---- machine-readable benchmark output ------------------------------------
//
// Every bench writes a BENCH_<name>.json into the working directory so the
// perf trajectory is tracked across PRs (commit the files alongside code
// changes that move the numbers).

/// Run-provenance block embedded into every BENCH_*.json: which commit and
/// build type produced the numbers, how many entries ran, and a final
/// metrics snapshot.
inline std::string meta_json(std::size_t entries_run) {
  std::string s = "{\"git_sha\": \"" RVDYN_GIT_SHA
                  "\", \"build_type\": \"" RVDYN_BUILD_TYPE "\"";
  s += ", \"degraded\": ";
  s += build_is_degraded() ? "true" : "false";
  s += ", \"entries\": " + std::to_string(entries_run);
  s += ", \"metrics\": " + obs::Registry::instance().to_json();
  // Per-histogram latency digest so a committed BENCH_*.json carries tail
  // behaviour, not just totals.
  {
    const auto hists = obs::Registry::instance().histograms();
    s += ", \"histograms\": {";
    for (std::size_t i = 0; i < hists.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"%s\": {\"count\": %llu, \"mean\": %.6g, \"p50\": %.6g, "
                    "\"p95\": %.6g, \"p99\": %.6g, \"max\": %llu}",
                    hists[i].name.c_str(),
                    static_cast<unsigned long long>(hists[i].count),
                    hists[i].mean(), hists[i].p50(), hists[i].p95(),
                    hists[i].p99(),
                    static_cast<unsigned long long>(hists[i].max));
      s += buf;
      if (i + 1 < hists.size()) s += ", ";
    }
    s += "}";
  }
  s += "}";
  return s;
}

/// Append `, "rvdyn_meta": {...}` before the final `}` of an existing JSON
/// file (used to decorate google-benchmark's own output after Shutdown).
inline bool append_meta_to_json_file(const std::string& path,
                                     std::size_t entries_run) {
  std::FILE* fp = std::fopen(path.c_str(), "rb+");
  if (!fp) return false;
  std::fseek(fp, 0, SEEK_END);
  long pos = std::ftell(fp);
  // Back up over trailing whitespace to the closing brace.
  while (pos > 0) {
    std::fseek(fp, pos - 1, SEEK_SET);
    const int c = std::fgetc(fp);
    if (c == '}') break;
    if (c != '\n' && c != '\r' && c != ' ' && c != '\t') {
      std::fclose(fp);
      return false;
    }
    --pos;
  }
  if (pos == 0) {
    std::fclose(fp);
    return false;
  }
  std::fseek(fp, pos - 1, SEEK_SET);
  const std::string tail =
      ",\n  \"rvdyn_meta\": " + meta_json(entries_run) + "\n}\n";
  std::fwrite(tail.data(), 1, tail.size(), fp);
  std::fclose(fp);
  return true;
}

/// Drop-in replacement for BENCHMARK_MAIN(): runs google-benchmark with a
/// default `--benchmark_out=<default_out> --benchmark_out_format=json`.
/// Explicit --benchmark_out on the command line wins. After the run, the
/// JSON gets an `rvdyn_meta` provenance block appended.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const char* default_out) {
  warn_if_degraded();
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_out;
  std::string fmt_flag = "--benchmark_out_format=json";
  std::string out_path = default_out;
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
      out_path = std::string(argv[i]).substr(sizeof("--benchmark_out=") - 1);
    }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  append_meta_to_json_file(out_path, ran);
  return 0;
}

/// Minimal JSON emitter for the hand-rolled (printf-style) harnesses; writes
/// the same `{"benchmarks": [{"name": ..., metrics...}]}` shape
/// google-benchmark uses so downstream tooling can parse either.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  void add(std::string name,
           std::vector<std::pair<std::string, double>> metrics) {
    entries_.push_back({std::move(name), std::move(metrics)});
  }

  /// Write the collected entries plus the rvdyn_meta provenance block;
  /// returns false on I/O failure.
  bool write() const {
    warn_if_degraded();
    std::FILE* fp = std::fopen(path_.c_str(), "w");
    if (!fp) return false;
    std::fprintf(fp, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(fp, "    {\"name\": \"%s\"", e.name.c_str());
      for (const auto& [key, value] : e.metrics)
        std::fprintf(fp, ", \"%s\": %.6g", key.c_str(), value);
      std::fprintf(fp, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(fp, "  ],\n  \"rvdyn_meta\": %s\n}\n",
                 meta_json(entries_.size()).c_str());
    std::fclose(fp);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string path_;
  std::vector<Entry> entries_;
};

struct RunResult {
  int exit_code = 0;
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;
  std::uint64_t elapsed_ns = 0;  ///< the mutatee's own measurement
  std::uint64_t counter = 0;     ///< instrumentation counter (when present)
};

/// Execute `bin` to completion (handling trap springboards when `traps` is
/// provided); reads `elapsed_ns` and the optional counter variable.
inline RunResult run_binary(const symtab::Symtab& bin,
                            const std::vector<patch::TrapEntry>* traps = nullptr,
                            std::optional<std::uint64_t> counter_addr = {}) {
  auto proc = proccontrol::Process::launch(bin);
  if (traps) proc->install_trap_table(*traps);
  const auto ev = proc->continue_run();
  if (ev.kind != proccontrol::Event::Kind::Exited) {
    std::fprintf(stderr, "workload did not exit cleanly (kind=%d pc=0x%llx)\n",
                 static_cast<int>(ev.kind),
                 static_cast<unsigned long long>(ev.addr));
    std::exit(1);
  }
  RunResult r;
  r.exit_code = ev.exit_code;
  r.instret = proc->machine().instret();
  r.cycles = proc->machine().cycles();
  if (const auto* sym = bin.find_symbol("elapsed_ns"))
    r.elapsed_ns = proc->read_mem(sym->value, 8);
  if (counter_addr) r.counter = proc->read_mem(*counter_addr, 8);
  return r;
}

/// Instrument `func_name` in `bin` at points of `type` with a counter
/// increment; returns the rewritten binary, trap table and counter address.
struct Instrumented {
  symtab::Symtab bin;
  std::vector<patch::TrapEntry> traps;
  std::uint64_t counter_addr = 0;
  patch::RewriteStats stats;
};

inline Instrumented instrument_counter(const symtab::Symtab& bin,
                                       const std::string& func_name,
                                       patch::PointType type,
                                       bool use_dead_regs) {
  patch::BinaryEditor editor(bin);
  editor.set_use_dead_registers(use_dead_regs);
  const auto counter = editor.alloc_var("counter");
  const auto* f = editor.code().function_named(func_name);
  if (!f) {
    std::fprintf(stderr, "no function named %s\n", func_name.c_str());
    std::exit(1);
  }
  editor.insert_at(f->entry(), type, codegen::increment(counter));
  Instrumented out{editor.commit(), editor.trap_table(), counter.addr,
                   editor.stats()};
  return out;
}

inline double pct_overhead(std::uint64_t base, std::uint64_t measured) {
  return base == 0 ? 0.0
                   : 100.0 * (static_cast<double>(measured) -
                              static_cast<double>(base)) /
                         static_cast<double>(base);
}

}  // namespace rvdyn::bench
