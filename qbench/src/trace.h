// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark around its calls into a layer's public functions (the library
// itself carries no tracing), kept in memory, and written out once at exit.
//
// A span has a name "<layer>.<operation>", start and end, its parent span
// and a request id. A layer's self time is the time its spans cover minus
// the time covered by their child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qb {

class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name;  ///< string literal; "<layer>.<operation>"
    std::int32_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint64_t request) {
    spans_.push_back(Span{name, parent, request, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer over the spans with index >= `from`.
  std::map<std::string, double> self_by_layer(std::size_t from = 0) const;
  /// Total seconds of the spans named `name` (index >= `from`).
  double total_seconds(const char* name, std::size_t from = 0) const;

  /// Writes every span as CSV (name,start_ns,end_ns,parent,request).
  bool write_csv(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is null (untraced runs share the code).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::int32_t parent = Tracer::kNoParent,
        std::uint64_t request = 0)
      : t_(t), id_(t ? t->begin(name, parent, request) : Tracer::kNoParent) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

}  // namespace qb
