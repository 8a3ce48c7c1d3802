#include "trace.h"

#include <cstdio>
#include <cstring>

namespace qb {

namespace {

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

std::map<std::string, double> Tracer::self_by_layer(std::size_t from) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

double Tracer::total_seconds(const char* name, std::size_t from) const {
  std::int64_t ns = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      ns += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%d,%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace qb
