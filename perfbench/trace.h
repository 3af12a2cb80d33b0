// Spans and counter snapshots for perfbench's traced runs.
//
// A span is one timed call the benchmark made into a public API (or one
// benchmark phase that encloses such calls): name, start, end, parent
// span, and an operation id shared by the spans of one operation. Spans
// recorded around a call also carry the deltas of the DbStats,
// BlockCache::Stats and WalWriter::Stats counters across it. Every thread
// appends to its own SpanLog; the logs stay in memory until the run ends
// and are then written out as one CSV file.

#ifndef PROTEUS_PERFBENCH_TRACE_H_
#define PROTEUS_PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <time.h>

#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/wal.h"

namespace proteus {
namespace perfbench {

/// Levels broken out by name in per-level metrics (.L0 .. .L3).
constexpr size_t kLevels = 4;

/// Nanoseconds on CLOCK_MONOTONIC.
inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Counters {
  DbStats db;
  BlockCache::Stats cache;
  WalWriter::Stats wal;
};

inline Counters Snap(Db& db) {
  return {db.stats(), db.cache().stats(), db.wal_stats()};
}

inline uint64_t At(const std::vector<uint64_t>& v, size_t i) {
  return i < v.size() ? v[i] : 0;
}

/// Counter deltas across one span.
struct Delta {
  uint64_t seeks = 0;
  uint64_t empty_seeks = 0;
  uint64_t filter_checks = 0;
  uint64_t filter_negatives = 0;
  uint64_t sst_seeks = 0;
  uint64_t fp_files = 0;
  uint64_t queue_sampled = 0;
  uint64_t read_errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t wal_records = 0;
  uint64_t wal_batches = 0;
  uint64_t write_stalls = 0;
  uint64_t stall_wait_us = 0;
  std::array<uint64_t, kLevels> level_sst_seeks{};

  void Accumulate(const Delta& d) {
    seeks += d.seeks;
    empty_seeks += d.empty_seeks;
    filter_checks += d.filter_checks;
    filter_negatives += d.filter_negatives;
    sst_seeks += d.sst_seeks;
    fp_files += d.fp_files;
    queue_sampled += d.queue_sampled;
    read_errors += d.read_errors;
    cache_hits += d.cache_hits;
    cache_misses += d.cache_misses;
    cache_evictions += d.cache_evictions;
    wal_records += d.wal_records;
    wal_batches += d.wal_batches;
    write_stalls += d.write_stalls;
    stall_wait_us += d.stall_wait_us;
    for (size_t l = 0; l < kLevels; ++l) {
      level_sst_seeks[l] += d.level_sst_seeks[l];
    }
  }
};

inline Delta Diff(const Counters& a, const Counters& b) {
  Delta d;
  d.seeks = b.db.seeks - a.db.seeks;
  d.empty_seeks = b.db.empty_seeks - a.db.empty_seeks;
  d.filter_checks = b.db.filter_checks - a.db.filter_checks;
  d.filter_negatives = b.db.filter_negatives - a.db.filter_negatives;
  d.sst_seeks = b.db.sst_seeks - a.db.sst_seeks;
  d.fp_files = b.db.false_positive_files - a.db.false_positive_files;
  d.queue_sampled = b.db.queue_sampled - a.db.queue_sampled;
  d.read_errors = b.db.read_errors - a.db.read_errors;
  d.cache_hits = b.cache.hits - a.cache.hits;
  d.cache_misses = b.cache.misses - a.cache.misses;
  d.cache_evictions = b.cache.evictions - a.cache.evictions;
  d.wal_records = b.wal.records - a.wal.records;
  d.wal_batches = b.wal.batches - a.wal.batches;
  d.write_stalls = b.db.write_stalls - a.db.write_stalls;
  d.stall_wait_us = b.db.stall_wait_us - a.db.stall_wait_us;
  for (size_t l = 0; l < kLevels; ++l) {
    d.level_sst_seeks[l] =
        At(b.db.level_sst_seeks, l) - At(a.db.level_sst_seeks, l);
  }
  return d;
}

enum SpanName : uint16_t {
  kPhaseSetup,
  kPhaseWarmup,
  kPhaseSeekUntraced,
  kPhaseSeek,
  kPhaseMultiSeek,
  kPhaseSstOpen,
  kPhaseSstCold,
  kPhaseSstWarm,
  kPhaseModel,
  kDbCreate,
  kDbPut,
  kDbFlush,
  kDbCompactAll,
  kDbWaitForBackground,
  kDbSeek,
  kEngineRun,
  kSstOpen,
  kSstSeekInRange,
  kBuilderSample,
  kBuilderDesign,
  kBuilderBuild,
  kFilterMayContain,
  kFilterMultiMayContain,
  kNumSpanNames,
};

inline const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "phase.setup",
      "phase.warmup",
      "phase.seek_untraced",
      "phase.seek",
      "phase.multiseek",
      "phase.sst_open",
      "phase.sst_cold",
      "phase.sst_warm",
      "phase.model",
      "Db::Create",
      "Db::Put",
      "Db::Flush",
      "Db::CompactAll",
      "Db::WaitForBackground",
      "Db::Seek",
      "QueryEngine::Run",
      "SstReader::Open",
      "SstReader::SeekInRange",
      "FilterBuilder::Sample",
      "FilterBuilder::Design",
      "FilterBuilder::Build",
      "RangeFilter::MayContain",
      "RangeFilter::MultiMayContain",
  };
  return kNames[name];
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // shared by the spans of one operation
  SpanName name = kPhaseSetup;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t n = 1;  // operations the span covers (a batch, a timed loop)
  Delta delta;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span and operation ids (never 0).
inline uint64_t NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// One thread's spans. Keeps at most kMaxPerName spans of each name, so
/// a long run's memory stays bounded; callers ask Wants() before paying
/// for a counter snapshot.
class SpanLog {
 public:
  static constexpr size_t kMaxPerName = 50000;

  bool Wants(SpanName name) const { return per_name_[name] < kMaxPerName; }

  void Add(const Span& span) {
    if (!Wants(span.name)) return;
    ++per_name_[span.name];
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::array<size_t, kNumSpanNames> per_name_{};
};

/// Writes every span as one CSV row. Returns false on an I/O error.
inline bool WriteSpansCsv(const std::string& path,
                          const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fputs(
      "id,parent,op,name,start_ns,end_ns,n,seeks,empty_seeks,filter_checks,"
      "filter_negatives,sst_seeks,fp_files,queue_sampled,read_errors,"
      "cache_hits,cache_misses,cache_evictions,wal_records,wal_batches,"
      "write_stalls,stall_wait_us,sst_seeks_l0,sst_seeks_l1,sst_seeks_l2,"
      "sst_seeks_l3\n",
      f);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const Delta& d = s.delta;
      std::fprintf(
          f,
          "%llu,%llu,%llu,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
          "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
          "%llu\n",
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.op), SpanNameString(s.name),
          static_cast<unsigned long long>(s.start_ns),
          static_cast<unsigned long long>(s.end_ns),
          static_cast<unsigned long long>(s.n),
          static_cast<unsigned long long>(d.seeks),
          static_cast<unsigned long long>(d.empty_seeks),
          static_cast<unsigned long long>(d.filter_checks),
          static_cast<unsigned long long>(d.filter_negatives),
          static_cast<unsigned long long>(d.sst_seeks),
          static_cast<unsigned long long>(d.fp_files),
          static_cast<unsigned long long>(d.queue_sampled),
          static_cast<unsigned long long>(d.read_errors),
          static_cast<unsigned long long>(d.cache_hits),
          static_cast<unsigned long long>(d.cache_misses),
          static_cast<unsigned long long>(d.cache_evictions),
          static_cast<unsigned long long>(d.wal_records),
          static_cast<unsigned long long>(d.wal_batches),
          static_cast<unsigned long long>(d.write_stalls),
          static_cast<unsigned long long>(d.stall_wait_us),
          static_cast<unsigned long long>(d.level_sst_seeks[0]),
          static_cast<unsigned long long>(d.level_sst_seeks[1]),
          static_cast<unsigned long long>(d.level_sst_seeks[2]),
          static_cast<unsigned long long>(d.level_sst_seeks[3]));
    }
  }
  const bool ok = std::fflush(f) == 0 && !std::ferror(f);
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
}  // namespace proteus

#endif  // PROTEUS_PERFBENCH_TRACE_H_
