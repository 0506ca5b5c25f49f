#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace e2e {

using coorm::metrics::HistogramData;

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> blockPercentile(const std::vector<double>& timeOrdered,
                                      double q) {
  const std::size_t blocks = timeOrdered.size() / kPercentileBlock;
  std::vector<double> perBlock;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = timeOrdered.begin() +
                       static_cast<std::ptrdiff_t>(b * kPercentileBlock);
    const auto last = b + 1 == blocks
                          ? timeOrdered.end()
                          : first + static_cast<std::ptrdiff_t>(kPercentileBlock);
    if (const auto p = percentile(std::vector<double>(first, last), q)) {
      perBlock.push_back(*p);
    }
  }
  return median(std::move(perBlock));
}

std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

HistogramData histogramDelta(const HistogramData& earlier,
                             const HistogramData& later) {
  HistogramData delta;
  for (std::size_t i = 0; i < coorm::metrics::kHistoBuckets; ++i) {
    // Counters only grow; a racing snapshot can at worst be short.
    delta.buckets[i] = later.buckets[i] >= earlier.buckets[i]
                           ? later.buckets[i] - earlier.buckets[i]
                           : 0;
  }
  delta.count = delta.totalInBuckets();
  delta.sum = later.sum >= earlier.sum ? later.sum - earlier.sum : 0;
  return delta;
}

std::optional<double> histogramQuantile(const HistogramData& histogram,
                                        double q) {
  const std::uint64_t total = histogram.totalInBuckets();
  if (total == 0) return std::nullopt;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(total)));
  if (total - std::min(rank, total) < kMinBeyond) return std::nullopt;
  return static_cast<double>(histogram.quantile(q));
}

void OpTally::merge(const OpTally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [reason, count] : other.reasons_) reasons_[reason] += count;
}

void Report::add(const std::string& name, std::optional<double> value,
                 const std::string& unit,
                 std::optional<std::uint64_t> samples) {
  const bool duplicate =
      std::any_of(entries_.begin(), entries_.end(),
                  [&](const Entry& e) { return e.name == name; });
  if (!validMetricName(name) || duplicate) {
    std::cerr << "e2e: bad or duplicate metric name '" << name << "'\n";
    std::abort();
  }
  if (value && !std::isfinite(*value)) value.reset();
  entries_.push_back({name, value, unit, samples});
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

/// JSON string literal of `text` (quotes and escapes included).
std::string jsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::toJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i == 0 ? "" : ", ") << jsonString(e.name) << ": {\"value\": ";
    if (e.value) {
      out << *e.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": " << jsonString(e.unit);
    if (e.samples) out << ", \"samples\": " << *e.samples;
    out << "}";
  }
  out << "}, \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << jsonString(notes_[i].first) << ": "
        << jsonString(notes_[i].second);
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
