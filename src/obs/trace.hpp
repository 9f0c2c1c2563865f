// rvdyn::obs tracing: a fixed-capacity ring buffer of span (begin/end) and
// instant events with two exporters — Chrome `trace_event` JSON (load the
// file in chrome://tracing or Perfetto to see the load → parse → patch →
// run pipeline as one timeline) and an indented plain-text rendering.
//
// Recording is wait-free: an atomic sequence claim plus a plain slot write.
// The sink is disabled by default; tools opt in with set_enabled(true), so
// the only cost at a quiet hook site is one relaxed atomic load. Exporters
// are meant to run after the traced work quiesces.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // for the concat helpers

namespace rvdyn::obs {

class TraceSink {
 public:
  static constexpr std::size_t kCapacity = 65536;  ///< ring wraps past this

  struct Event {
    const char* name = nullptr;  ///< static-storage string expected
    char phase = 0;              ///< 'B' begin, 'E' end, 'i' instant
    std::uint64_t ts_ns = 0;     ///< since sink epoch
    std::uint32_t tid = 0;
    std::uint64_t seq = 0;       ///< claim order, 0 = empty slot
  };

  /// Process-wide sink; leaked for the same exit-order reasons as the
  /// metrics registry.
  static TraceSink& instance() {
    static TraceSink* s = new TraceSink;
    return *s;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void begin(const char* name) { record(name, 'B'); }
  void end(const char* name) { record(name, 'E'); }
  void instant(const char* name) { record(name, 'i'); }

  /// Drop all recorded events (names stay interned at their call sites).
  void clear() {
    seq_.store(0, std::memory_order_relaxed);
    for (Event& e : ring_) e.seq = 0;
  }

  /// Events in claim order. Safe once writers have quiesced.
  std::vector<Event> events() const {
    std::vector<Event> out;
    for (const Event& e : ring_)
      if (e.seq != 0) out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    return out;
  }

  /// Total events ever claimed (the ring retains at most kCapacity).
  std::uint64_t total_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wraparound.
  std::uint64_t dropped() const {
    const std::uint64_t n = total_recorded();
    return n > kCapacity ? n - kCapacity : 0;
  }
  bool truncated() const { return dropped() != 0; }

  /// Name of the synthetic instant event exporters insert at the cut when
  /// the ring wrapped.
  static constexpr const char* kTruncationMarker = "rvdyn.trace.truncated";

  /// Events prepared for rendering. After the ring wraps, the retained
  /// window can hold 'E' events whose 'B' was overwritten; rendering those
  /// as spans would fabricate zero-length or wrongly-nested frames, so a
  /// seq-order replay with per-tid depth counters drops them, and a
  /// synthetic kTruncationMarker instant flags the cut at the earliest
  /// retained timestamp. Without wraparound this is exactly events().
  std::vector<Event> render_events() const {
    auto evs = events();
    if (dropped() == 0) return evs;
    std::vector<Event> out;
    out.reserve(evs.size() + 1);
    Event marker;
    marker.name = kTruncationMarker;
    marker.phase = 'i';
    marker.ts_ns = evs.empty() ? 0 : evs.front().ts_ns;
    marker.tid = evs.empty() ? 0 : evs.front().tid;
    marker.seq = evs.empty() ? 1 : evs.front().seq;
    out.push_back(marker);
    std::unordered_map<std::uint32_t, std::size_t> depth;
    for (const Event& e : evs) {
      if (e.phase == 'B') {
        ++depth[e.tid];
      } else if (e.phase == 'E') {
        std::size_t& d = depth[e.tid];
        if (d == 0) continue;  // orphaned end: its begin was overwritten
        --d;
      }
      out.push_back(e);
    }
    return out;
  }

  /// Chrome trace_event JSON (the "JSON Array Format" wrapped in an object,
  /// which both chrome://tracing and Perfetto accept). Timestamps are
  /// microseconds, per the format.
  std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    const auto evs = render_events();
    char buf[256];
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const Event& e = evs[i];
      std::snprintf(buf, sizeof(buf),
                    "  {\"name\": \"%s\", \"cat\": \"rvdyn\", \"ph\": \"%c\", "
                    "\"pid\": 1, \"tid\": %u, \"ts\": %.3f%s}%s\n",
                    e.name, e.phase, e.tid,
                    static_cast<double>(e.ts_ns) / 1000.0,
                    e.phase == 'i' ? ", \"s\": \"t\"" : "",
                    i + 1 < evs.size() ? "," : "");
      out += buf;
    }
    out += "]}\n";
    return out;
  }

  /// Write chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* fp = std::fopen(path.c_str(), "w");
    if (!fp) return false;
    const std::string json = chrome_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), fp) == json.size();
    std::fclose(fp);
    return ok;
  }

  /// Plain-text timeline: one line per span (indented by nesting depth)
  /// with start offset and duration, plus instant markers.
  std::string text() const {
    const auto evs = render_events();
    std::string out;
    char buf[256];
    // Per-tid span stacks to pair begin/end and compute depth/duration.
    struct Open {
      const char* name;
      std::uint64_t ts_ns;
    };
    std::unordered_map<std::uint32_t, std::vector<Open>> stacks;
    for (const Event& e : evs) {
      auto& stack = stacks[e.tid];
      if (e.phase == 'B') {
        stack.push_back({e.name, e.ts_ns});
      } else if (e.phase == 'E') {
        std::uint64_t began = e.ts_ns;
        std::size_t depth = 0;
        if (!stack.empty()) {
          began = stack.back().ts_ns;
          depth = stack.size() - 1;
          stack.pop_back();
        }
        std::snprintf(buf, sizeof(buf), "[tid %2u] %10.3fus %*s%s (%.3fus)\n",
                      e.tid, static_cast<double>(began) / 1000.0,
                      static_cast<int>(2 * depth), "", e.name,
                      static_cast<double>(e.ts_ns - began) / 1000.0);
        out += buf;
      } else {
        std::snprintf(buf, sizeof(buf), "[tid %2u] %10.3fus %*s* %s\n", e.tid,
                      static_cast<double>(e.ts_ns) / 1000.0,
                      static_cast<int>(2 * stack.size()), "", e.name);
        out += buf;
      }
    }
    return out;
  }

 private:
  TraceSink() : epoch_(std::chrono::steady_clock::now()) {
    ring_.resize(kCapacity);
  }

  void record(const char* name, char phase) {
    if (!enabled()) return;
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    Event& e = ring_[(seq - 1) % kCapacity];
    e.name = name;
    e.phase = phase;
    e.ts_ns = now_ns();
    e.tid = local_tid();
    e.seq = seq;
  }

  std::uint64_t now_ns() const {
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  }

  static std::uint32_t local_tid() {
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed) + 1;
    return tid;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::vector<Event> ring_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: begin on construction, end on destruction. Snapshots the
/// enabled flag once so a mid-span toggle cannot unbalance the stream.
class Span {
 public:
  explicit Span(const char* name)
      : name_(TraceSink::instance().enabled() ? name : nullptr) {
    if (name_) TraceSink::instance().begin(name_);
  }
  ~Span() {
    if (name_) TraceSink::instance().end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
};

}  // namespace rvdyn::obs

#define RVDYN_OBS_SPAN(name) \
  ::rvdyn::obs::Span RVDYN_OBS_CONCAT_(rvdyn_obs_span_, __LINE__)(name)
#define RVDYN_OBS_INSTANT(name) ::rvdyn::obs::TraceSink::instance().instant(name)
