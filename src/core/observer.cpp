#include "core/observer.h"

#include <cstdio>

namespace quanta::core {

void StatsObserver::on_state_stored(std::int32_t /*id*/,
                                    std::size_t total_stored) {
  if (total_stored > peak_stored_) peak_stored_ = total_stored;
}

void StatsObserver::on_state_explored(std::int32_t /*id*/) { ++explored_; }

void StatsObserver::on_search_done(const SearchStats& stats,
                                   const StoreMetrics& metrics) {
  stats_ = stats;
  metrics_ = metrics;
  elapsed_ = std::chrono::duration<double>(Clock::now() - start_).count();
  if (stats_.states_stored > peak_stored_) peak_stored_ = stats_.states_stored;
}

double StatsObserver::states_per_second() const {
  if (elapsed_ <= 0.0) return 0.0;
  return static_cast<double>(explored_) / elapsed_;
}

std::string StatsObserver::summary() const {
  char buf[320];
  int n = std::snprintf(
      buf, sizeof(buf),
      "%zu stored (peak %zu, %zu covered), %zu explored, "
      "%.0f states/s, table %zu/%zu slots (max chain %zu), "
      "%zu zone compares (%zu skipped by signature)",
      stats_.states_stored, peak_stored_, metrics_.covered, explored_,
      states_per_second(), metrics_.occupied, metrics_.slots,
      metrics_.max_chain, metrics_.zone_compares, metrics_.signature_rejects);
  if (metrics_.pool.lookups > 0 && n > 0 &&
      static_cast<std::size_t>(n) < sizeof(buf)) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  ", pool %zu payloads (%.0f%% shared, %.1f MiB resident, "
                  "%.1f MiB spilled)",
                  metrics_.pool.records, 100.0 * metrics_.pool.hit_rate(),
                  static_cast<double>(metrics_.pool.resident_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(metrics_.pool.spilled_bytes) /
                      (1024.0 * 1024.0));
  }
  return buf;
}

}  // namespace quanta::core
