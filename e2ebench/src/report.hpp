// Reporting helpers of the end-to-end benchmark: the percentile rule,
// histogram deltas from two STATS snapshots, the metric-name grammar,
// failure counting and the JSON the runner reads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coorm/common/metrics.hpp"

namespace e2e {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile of `samples`, or nullopt when fewer than
/// kMinBeyond samples lie beyond it (then the percentile is not reported).
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Samples per block for blockPercentile(): the fewest that support a p99.
inline constexpr std::size_t kPercentileBlock = 1000;

/// Tail percentile robust to single stalls of the host: `timeOrdered` is cut
/// into consecutive blocks of kPercentileBlock samples (the last block takes
/// the remainder), each block's q-quantile is taken by percentile(), and the
/// median of those is returned. A stall that hits fewer than half of the
/// blocks does not move it, so it is reported next to the pooled percentile,
/// under its own name, never in place of it. nullopt below one block.
[[nodiscard]] std::optional<double> blockPercentile(
    const std::vector<double>& timeOrdered, double q);

/// Median of `samples` (mean of the middle pair for even counts); nullopt
/// when empty. Used for repeated set-up and restart timings, where the
/// percentile rule does not apply.
[[nodiscard]] std::optional<double> median(std::vector<double> samples);

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], first a letter or
/// a digit.
[[nodiscard]] bool validMetricName(std::string_view name);

/// Bucket-wise `later - earlier` of one catalogue histogram: the samples
/// recorded between two STATS snapshots.
[[nodiscard]] coorm::metrics::HistogramData histogramDelta(
    const coorm::metrics::HistogramData& earlier,
    const coorm::metrics::HistogramData& later);

/// q-quantile of a log-bucketed histogram: the lower bound of the bucket
/// holding the rank (HistogramData::quantile), or nullopt when the
/// percentile rule fails.
[[nodiscard]] std::optional<double> histogramQuantile(
    const coorm::metrics::HistogramData& histogram, double q);

/// Attempted and failed operations, with a count per failure reason. A
/// broken invariant counts as one attempted-and-failed check.
class OpTally {
 public:
  void succeeded() { ++attempted_; }
  void failed(const std::string& reason) {
    ++attempted_;
    ++failed_;
    ++reasons_[reason];
  }
  void merge(const OpTally& other);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failedCount() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& reasons() const {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> reasons_;
};

/// Metrics of one run, in insertion order, plus free-form notes. A value
/// of nullopt is recorded as JSON null (a percentile the rule withheld).
class Report {
 public:
  /// Adds a metric; aborts on an invalid or duplicate name (a bug in the
  /// benchmark, not in the measured program).
  void add(const std::string& name, std::optional<double> value,
           const std::string& unit, std::optional<std::uint64_t> samples = {});
  void note(const std::string& key, const std::string& value);

  /// {"metrics": {name: {"value", "unit"[, "samples"]}}, "notes": {...}}
  [[nodiscard]] std::string toJson() const;

 private:
  struct Entry {
    std::string name;
    std::optional<double> value;
    std::string unit;
    std::optional<std::uint64_t> samples;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace e2e
