// Outside-in span recorder. Every span wraps one call into a public toolkit
// function from the benchmark's own code; the toolkit is not modified.
// Spans keep name, start, end, parent and the op id they belong to, stay in
// memory, and are written out when the run ends. A layer is the part of a
// span name before the first '.', e.g. "dataflow.liveness" -> dataflow.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rvdyn_bench {

std::int64_t now_ns();

struct Span {
  const char* name = "";
  std::uint32_t parent = 0;  ///< index + 1 of the enclosing span, 0 = none
  std::uint32_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over a set of spans.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  ///< duration minus the time child spans cover
  std::vector<double> durations_ns;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// RAII span; records nothing when the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::uint32_t idx_ = 0;
  };
  Scope scope(const char* name) { return Scope(*this, name); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Totals by span name.
  std::map<std::string, SpanStats> stats() const;
  /// One line per span: op, id, parent, name, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  bool on_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< indices of open spans
};

/// Self time per layer (ms), summed over all spans.
std::map<std::string, double> layer_self_ms(const Tracer& t);

}  // namespace rvdyn_bench
