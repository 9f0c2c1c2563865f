#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace rvdyn_bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t.on_ ? &t : nullptr) {
  if (t_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = t_->open_.empty() ? 0 : t_->open_.back() + 1;
  s.op = t_->op_;
  idx_ = static_cast<std::uint32_t>(t_->spans_.size());
  t_->open_.push_back(idx_);
  t_->spans_.push_back(s);
  t_->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[idx_].end_ns = now_ns();
  t_->open_.pop_back();
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0)
      child_ns[spans_[i].parent - 1] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    SpanStats& st = out[spans_[i].name];
    ++st.count;
    st.total_ns += d;
    st.self_ns += d - child_ns[i];
    st.durations_ns.push_back(d);
  }
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  std::fprintf(fp, "op\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(fp, "%u\t%zu\t%u\t%s\t%lld\t%lld\n", s.op, i + 1, s.parent,
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(fp) == 0;
}

std::map<std::string, double> layer_self_ms(const Tracer& t) {
  std::map<std::string, double> out;
  for (const auto& [name, st] : t.stats())
    out[name.substr(0, name.find('.'))] += st.self_ns / 1e6;
  return out;
}

}  // namespace rvdyn_bench
