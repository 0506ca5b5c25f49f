// e2e_selftest: tests of the benchmark's own helpers. Exits 0 when every
// check passes; prints each failure.
//
//   cmake --build .bench_build --target e2e_selftest && .bench_build/e2e_selftest
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "plan.hpp"
#include "report.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentileNeedsTenBeyond() {
  using e2e::percentile;
  // p99 of n samples has n - ceil(0.99 n) beyond it: 10 needs n >= 1000.
  expect(!percentile(iota(999), 0.99), "p99 withheld at 999 samples");
  expect(percentile(iota(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(iota(19), 0.50), "p50 withheld at 19 samples");
  expect(percentile(iota(20), 0.50) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile({}, 0.50), "no percentile of nothing");
  // Order of the input does not matter.
  std::vector<double> shuffled = iota(1000);
  std::swap(shuffled[3], shuffled[990]);
  std::swap(shuffled[0], shuffled[500]);
  expect(percentile(shuffled, 0.99) == 990.0, "p99 ignores input order");
  expect(e2e::median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  // Block p99: five blocks of 1000 (the last takes the 500 left over);
  // a stall in two blocks does not move the median of block p99s, one in
  // three does.
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 1000; ++i) {
      blocks.push_back(b == 1 || b == 3 ? i * 100.0 : i + b);
    }
  }
  for (int i = 0; i < 500; ++i) blocks.push_back(1.0);
  // Block p99s: 990, 99000, 992, 99000, 989 (1500 samples, 500 of them 1).
  expect(e2e::blockPercentile(blocks, 0.99) == 992.0,
         "block p99 is the median of block p99s");
  for (int i = 0; i < 1000; ++i) blocks[2000 + i] *= 100.0;
  expect(e2e::blockPercentile(blocks, 0.99) > 90000.0,
         "a stall in most blocks moves the block p99");
  expect(!e2e::blockPercentile(iota(999), 0.99), "block p99 needs a block");
  expect(e2e::blockPercentile(iota(1999), 0.99) == percentile(iota(1999), 0.99),
         "one block is the plain p99");
  expect(e2e::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of even count");
}

void histogramQuantileFollowsTheSameRule() {
  using namespace coorm::metrics;
  HistogramData h;
  for (std::uint64_t v = 1; v <= 999; ++v) {
    ++h.buckets[bucketIndex(v)];
    ++h.count;
    h.sum += v;
  }
  expect(!e2e::histogramQuantile(h, 0.99), "histogram p99 withheld at 999");
  ++h.buckets[bucketIndex(1000)];
  ++h.count;
  const auto p99 = e2e::histogramQuantile(h, 0.99);
  expect(p99 && *p99 == static_cast<double>(h.quantile(0.99)),
         "histogram p99 is the bucket lower bound HistogramData reports");
  expect(p99 && *p99 <= 990.0 && 990.0 - *p99 < 990.0 * 0.0625,
         "histogram p99 within a bucket width below 990");
  const auto p50 = e2e::histogramQuantile(h, 0.50);
  expect(p50 && std::abs(*p50 - 500.0) < 500.0 * 0.0625,
         "histogram p50 within a bucket width of 500");

  HistogramData later = h;
  for (int i = 0; i < 30; ++i) ++later.buckets[bucketIndex(7)];
  later.count += 30;
  later.sum += 30 * 7;
  const HistogramData delta = e2e::histogramDelta(h, later);
  expect(delta.count == 30 && delta.sum == 210, "delta keeps new samples only");
  const auto d50 = e2e::histogramQuantile(delta, 0.5);
  expect(d50 && *d50 >= 7.0 && *d50 < 8.0, "delta p50 lies in bucket [7, 8)");
}

void metricNameGrammar() {
  using e2e::validMetricName;
  expect(validMetricName("rpc_rtt_p50_us"), "plain name");
  expect(validMetricName("rms.server.pass_us_p50"), "dotted name");
  expect(validMetricName("net.io.epoll-wakeups"), "dash");
  expect(validMetricName("9lives"), "leading digit");
  expect(!validMetricName(""), "empty");
  expect(!validMetricName(".hidden"), "leading dot");
  expect(!validMetricName("_x"), "leading underscore");
  expect(!validMetricName("a b"), "space");
  expect(!validMetricName("a:b"), "colon");
  expect(!validMetricName("a/b"), "slash");
  expect(validMetricName(std::string(64, 'a')), "64 characters");
  expect(!validMetricName(std::string(65, 'a')), "65 characters");
}

void failureCounting() {
  e2e::OpTally a;
  a.succeeded();
  a.succeeded();
  a.failed("not started in time");
  expect(a.attempted() == 3 && a.failedCount() == 1, "3 attempted, 1 failed");
  e2e::OpTally b;
  b.failed("not started in time");
  b.failed("views_resync > 0");
  a.merge(b);
  expect(a.attempted() == 5 && a.failedCount() == 3, "merge adds up");
  expect(a.reasons().at("not started in time") == 2, "reasons merge");
  expect(a.reasons().at("views_resync > 0") == 1, "violations are failures");
}

void seedDeterminism() {
  using e2e::Workload;
  for (const Workload w :
       {Workload::kRpcBare, Workload::kLeaseSteady, Workload::kJobChurn}) {
    const std::string one = e2e::serialize(e2e::makePlan(w, 7, 60.0));
    const std::string two = e2e::serialize(e2e::makePlan(w, 7, 60.0));
    expect(one == two, std::string("same seed, same plan: ") + toString(w));
  }
  const e2e::Plan churn = e2e::makePlan(Workload::kJobChurn, 7, 60.0);
  const e2e::Plan other = e2e::makePlan(Workload::kJobChurn, 8, 60.0);
  expect(e2e::serialize(churn) != e2e::serialize(other),
         "another seed, another plan");
  expect(!churn.arrivals.empty() && !churn.psas.empty() && !churn.amrs.empty(),
         "job-churn has arrivals and a population");
  // Arrivals keep the fixed mean rate: within 5 sigma of 60 s x rate.
  const double n = static_cast<double>(churn.arrivals.size());
  expect(std::abs(n - 60.0 * e2e::kArrivalRate) <
             5.0 * std::sqrt(60.0 * e2e::kArrivalRate),
         "arrival count matches the rate");
  const e2e::Plan steady = e2e::makePlan(Workload::kLeaseSteady, 7, 60.0);
  expect(steady.arrivals.empty(), "lease-steady has no arrivals");
  expect(!steady.journal && churn.journal, "only job-churn journals");
  for (const auto& psa : steady.psas) {
    expect(psa.cluster != e2e::kProbeCluster, "no PSA on the probe cluster");
  }
  expect(e2e::makePlan(Workload::kRpcBare, 7, 60.0).machine.clusters.size() == 1,
         "rpc-bare is one cluster");
}

void probeSizesDecompose() {
  // Any combination of live probe holdings has one decomposition.
  for (const auto a : {0L, e2e::kProbeSizes[0][0], e2e::kProbeSizes[0][1]}) {
    for (const auto b : {0L, e2e::kProbeSizes[1][0], e2e::kProbeSizes[1][1]}) {
      const auto depth = a + b;
      expect((depth & e2e::kProbeMask[0]) == a &&
                 (depth & e2e::kProbeMask[1]) == b,
             "probe holdings decompose");
    }
  }
}

}  // namespace

int main() {
  percentileNeedsTenBeyond();
  histogramQuantileFollowsTheSameRule();
  metricNameGrammar();
  failureCounting();
  seedDeterminism();
  probeSizesDecompose();
  if (failures == 0) std::cout << "e2e_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
