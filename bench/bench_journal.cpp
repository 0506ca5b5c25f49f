// BM_JournalAppend: steady-state journal append throughput — the cost the
// daemon pays per externally-visible transition inside a scheduling pass.
// The pass hot path never fsyncs except at the commit barrier, so the
// bench models exactly that: `commitEvery` buffered appends (bench arg),
// then one sync(). commitEvery=1 is the worst case (every record gates a
// client reply); 64 approximates a busy pass.
//
// BM_JournalReplay: scan() cost of a cold restart at 1k–64k records —
// the time-to-first-connection a crashed daemon adds, reported alongside
// records/s so the trajectory catches a recovery-path regression.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "coorm/common/check.hpp"
#include "coorm/rms/journal.hpp"

namespace coorm::rms {
namespace {

std::string tempJournalPath() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/coorm_bench_journal.bin";
}

/// A plausible record: type byte + ~40 bytes of payload (a kStarted with a
/// handful of node ids is this size).
std::vector<std::uint8_t> sampleRecord() {
  std::vector<std::uint8_t> payload(41, 0);
  payload[0] = static_cast<std::uint8_t>(RecordType::kStarted);
  for (std::size_t i = 1; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37);
  }
  return payload;
}

void BM_JournalAppend(benchmark::State& state) {
  const int commitEvery = static_cast<int>(state.range(0));
  const std::string path = tempJournalPath();
  std::remove(path.c_str());
  const std::vector<std::uint8_t> record = sampleRecord();

  Journal journal(path, 0);
  int sinceCommit = 0;
  for (auto _ : state) {
    journal.append(record);
    if (++sinceCommit >= commitEvery) {
      journal.sync();
      sinceCommit = 0;
    }
    // Keep the file from growing without bound across iterations; the
    // compaction is outside the timed per-record cost in spirit, but
    // rare enough (every 1<<16 appends) not to move the number.
    if (journal.bytes() > (8u << 20)) {
      state.PauseTiming();
      journal.compact(record);
      state.ResumeTiming();
    }
  }
  journal.sync();

  state.SetItemsProcessed(state.iterations());
  state.counters["fsyncs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / commitEvery,
      benchmark::Counter::kIsRate);
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->Arg(1)->Arg(16)->Arg(64)->UseRealTime();

void BM_JournalReplay(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  const std::string path = tempJournalPath();
  std::remove(path.c_str());
  const std::vector<std::uint8_t> record = sampleRecord();
  {
    Journal journal(path, 0);
    for (int i = 0; i < records; ++i) journal.append(record);
    journal.sync();
  }

  for (auto _ : state) {
    const ScanResult scan = Journal::scan(path);
    COORM_CHECK(!scan.refused);
    COORM_CHECK(scan.records.size() == static_cast<std::size_t>(records));
    benchmark::DoNotOptimize(scan);
  }

  state.SetItemsProcessed(state.iterations() * records);
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalReplay)->Arg(1024)->Arg(16384)->Arg(65536);

}  // namespace
}  // namespace coorm::rms

BENCHMARK_MAIN();
