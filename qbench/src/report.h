// Result vocabulary shared by the workloads: the command-line arguments, the
// outcome of one run (correctness tally + named metrics with units), the
// order statistics the metrics are built from, and a minimal JSON writer
// for the result lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< trace files and working state
  std::string git_sha = "none";
  std::string source_digest = "none";
};

/// A second seed derived from the run's seed. Every metric records it: a
/// later claim must hold on it too, and it was not used while tuning.
std::uint64_t check_seed(std::uint64_t seed);

/// Insertion-ordered JSON object built from already-encoded values.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, std::string encoded);
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.dump());
  }
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_string(const std::string& s);
std::string json_number(double v);

/// What one workload run reports. Every operation the benchmark checks is
/// counted in `attempted`; a failed or wrong answer counts in `failed` and
/// makes the run incorrect.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< run-level checks (trace consistency, counts)
  std::vector<std::string> errors;  ///< first few failure reasons
  std::vector<Metric> metrics;
  Json details;  ///< workload-specific context printed before the result

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// One checked operation: counts it, and records a failure when !ok.
  void check_op(bool ok, const std::string& what);
  /// A run-level check that is not an operation of its own.
  void check_run(bool ok, const std::string& what);
  bool correct() const { return checks_ok && failed == 0 && attempted > 0; }
};

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Nearest-rank percentile, pct in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> samples, double pct);

/// The latency of work repeated identically in a closed loop: the fastest
/// repeat. A zone-mc query and each stage of a prob-brp pass do the same
/// work every time, so timing noise only ever adds to their cost, and the
/// minimum is the estimate that noise moves least. On a shared host the
/// slow phases last seconds to minutes (the same query ran 360 ms in one
/// and 550 ms in the next); the median follows them, the minimum needs one
/// repeat in a quiet moment.
double closed_loop_latency(const std::vector<double>& samples);

/// The tail latency at a fixed percentile per workload: the highest
/// percentile that keeps at least ten samples beyond it even in the
/// slowest runs seen. A percentile picked per run would flip whenever the
/// sample count crossed a boundary. `beyond` counts the samples above it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_at(std::vector<double> samples, double pct);

/// Two-sided consistency of `hits` successes in `n` Bernoulli trials with
/// success probability p: true unless either binomial tail at `hits` is
/// below alpha / 2. Used to check statistical estimates against the exact
/// (mcpta) values at a false-alarm rate the run count can never reach.
bool binomial_consistent(std::uint64_t hits, std::uint64_t n, double p,
                         double alpha = 1e-7);
/// z with two-sided normal tail mass 1e-7, the same false-alarm rate.
inline constexpr double kZ = 5.33;

/// Peak resident set size of this process plus the largest reaped child.
double peak_rss_mb();

}  // namespace qb
