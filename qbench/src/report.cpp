#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace qb {

std::uint64_t check_seed(std::uint64_t seed) {
  // SplitMix64 finalizer: a fixed, well-mixed function of the seed.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) % 1000000007ull;
}

// ---- JSON ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Json& Json::num(const std::string& key, double v) {
  return raw(key, json_number(v));
}
Json& Json::integer(const std::string& key, std::int64_t v) {
  return raw(key, std::to_string(v));
}
Json& Json::str(const std::string& key, const std::string& v) {
  return raw(key, json_string(v));
}
Json& Json::boolean(const std::string& key, bool v) {
  return raw(key, v ? "true" : "false");
}
Json& Json::raw(const std::string& key, std::string encoded) {
  for (auto& f : fields_) {
    if (f.first == key) {
      f.second = std::move(encoded);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(encoded));
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// ---- outcome ---------------------------------------------------------------

void Outcome::check_op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void Outcome::check_run(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok = false;
  if (errors.size() < 8) errors.push_back(what);
}

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

namespace {

/// Nearest-rank percentile of an ascending sample, p in [0, 100].
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, pct);
}

double closed_loop_latency(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

Tail tail_at(std::vector<double> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.pct = pct;
  t.value = percentile_sorted(samples, pct);
  const double n = static_cast<double>(samples.size());
  // Samples strictly beyond the nearest-rank position of pct.
  t.beyond = static_cast<std::size_t>(n - std::ceil(pct / 100.0 * n));
  return t;
}

bool binomial_consistent(std::uint64_t hits, std::uint64_t n, double p,
                         double alpha) {
  if (hits > n || !(p >= 0.0 && p <= 1.0)) return false;
  if (p == 0.0) return hits == 0;
  if (p == 1.0) return hits == n;
  const double dn = static_cast<double>(n);
  const double lp = std::log(p);
  const double lq = std::log1p(-p);
  auto pmf = [&](std::uint64_t i) {
    const double di = static_cast<double>(i);
    return std::exp(std::lgamma(dn + 1) - std::lgamma(di + 1) -
                    std::lgamma(dn - di + 1) + di * lp + (dn - di) * lq);
  };
  double lower = 0.0;  // P(X <= hits)
  for (std::uint64_t i = 0; i <= hits; ++i) lower += pmf(i);
  double upper = 0.0;  // P(X >= hits)
  for (std::uint64_t i = hits; i <= n; ++i) upper += pmf(i);
  return lower >= alpha / 2 && upper >= alpha / 2;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace qb
