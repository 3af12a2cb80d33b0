// perfbench: the repository benchmark. One invocation runs one named
// workload at one seed, checks every answer against ground truth, and
// prints one JSON result as the last line of stdout.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--keys=N] [--dir=PATH]
//
// Workloads (BENCHMARK.json gives the reason each one exists):
//   filter_hot  Uniform keys, 128 B values, empty short Correlated ranges,
//               a block cache larger than the tree.
//   scan_cold   Facebook-like dense keys, 256 B values, Real-distribution
//               ranges that mostly find a key, a 4 MB block cache against
//               a tree about twenty times larger.
//
// Policy for every workload: filter proteus:bpk=12 with bpk_policy kFixed
// and adaptive_redesign on (the defaults); WAL on with wal_sync=false (an
// fsync would time the host's disk, not the program); default background
// threads (2). Set-up loads the keys with an explicit Db::Flush() every
// kFlushEveryKeys puts into a memtable that never fills on its own, then
// CompactAll + WaitForBackground, so the tree's shape never depends on
// background timing.
//
// --trace=0 reports the end-to-end metrics. --trace=1 records a span
// around every public call it makes (with counter deltas), writes the
// spans to <dir>/trace-<workload>-<seed>.csv, and reports the per-layer
// metrics derived from them. End-to-end numbers never come from a traced
// run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/filter_builder.h"
#include "core/range_filter.h"
#include "engine/query_engine.h"
#include "lsm/db.h"
#include "lsm/sst.h"
#include "surf/surf.h"  // EncodeKeyBE / DecodeKeyBE
#include "trace.h"
#include "util/simd.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace perfbench {
namespace {

constexpr char kFilterSpec[] = "proteus:bpk=12";
constexpr char kScheduler[] = "sorted";
constexpr size_t kFlushEveryKeys = 20000;
constexpr size_t kSampleQueries = 20000;
constexpr size_t kBatch = 64;
constexpr int kMaxWarmupPasses = 4;
constexpr size_t kSstReplayKeys = 4096;
constexpr uint64_t kSstReplayCacheBytes = 64u << 20;

struct Workload {
  const char* name;
  Dataset dataset;
  size_t value_size;
  uint64_t cache_bytes;
  QueryDist dist;
  uint64_t range_max;
  bool require_empty;
  size_t stream_queries;  // replayed cyclically; a multiple of kBatch
};

constexpr Workload kWorkloads[] = {
    {"filter_hot", Dataset::kUniform, 128, uint64_t{256} << 20,
     QueryDist::kCorrelated, uint64_t{1} << 6, true, 200000},
    {"scan_cold", Dataset::kFacebook, 256, uint64_t{4} << 20,
     QueryDist::kReal, uint64_t{1} << 10, false, 100032},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t keys = 500000;
  int setups = 3;  // set-ups per run; setup_s is their median
  std::string dir = ".bench_build/perfbench-run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
      continue;
    }
    if (key == "dir") {
      args->dir = value;
      continue;
    }
    const double number = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !(number >= 0)) return false;
    if (key == "seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (key == "seconds") {
      args->seconds = number;
    } else if (key == "trace") {
      args->trace = number != 0;
    } else if (key == "keys") {
      args->keys = static_cast<size_t>(number);
    } else {
      return false;
    }
  }
  // The traced run reports per-layer numbers, not the set-up median.
  if (args->trace) args->setups = 1;
  return !args->workload.empty() && args->seconds > 0 && args->keys >= 1000;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<uint64_t> keys;          // sorted base keys
  std::vector<RangeQuery> samples;     // empty queries seeding the queue
  std::vector<RangeQuery> stream_int;  // the timed query stream
  QueryBatch stream;                   // the same, 8-byte big-endian
  std::vector<int64_t> expect;         // index of each answer in keys; -1
};

Inputs MakeInputs(const Workload& w, size_t n_keys, uint64_t seed) {
  Inputs in;
  QuerySpec spec;
  spec.dist = w.dist;
  spec.range_max = w.range_max;
  spec.corr_degree = uint64_t{1} << 10;
  std::vector<uint64_t> points;
  if (w.dist == QueryDist::kReal) {
    GenerateKeysAndQueryPoints(w.dataset, n_keys,
                               kSampleQueries + w.stream_queries, seed,
                               &in.keys, &points);
  } else {
    in.keys = GenerateKeys(w.dataset, n_keys, seed);
  }
  // The queue is seeded with empty queries, as the filters' model
  // expects; the timed stream follows the workload's own emptiness rule.
  QuerySpec sample_spec = spec;
  sample_spec.require_empty = true;
  in.samples =
      GenerateQueries(in.keys, sample_spec, kSampleQueries, seed + 1, points);
  spec.require_empty = w.require_empty;
  in.stream_int =
      GenerateQueries(in.keys, spec, w.stream_queries, seed + 2, points);
  for (const RangeQuery& q : in.stream_int) {
    in.stream.push_back({EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)});
    const auto it = std::lower_bound(in.keys.begin(), in.keys.end(), q.lo);
    in.expect.push_back(it != in.keys.end() && *it <= q.hi
                            ? it - in.keys.begin()
                            : -1);
  }
  return in;
}

/// True when `r` answers stream query `i` correctly: the first key in
/// its range, or nothing when the range is empty.
bool Check(const Workload& w, const Inputs& in, size_t i, const SeekResult& r,
           bool full_value) {
  if (!r.status.ok()) return false;
  const int64_t e = in.expect[i];
  if (!r.found) return e < 0;
  if (r.key.size() != 8 || r.value.size() != w.value_size) return false;
  const uint64_t k = DecodeKeyBE(r.key);
  if (e < 0 || k != in.keys[static_cast<size_t>(e)]) return false;
  return !full_value || r.value == MakeValuePayload(k, w.value_size);
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Latency histogram: exact below 2048 ns, then 1024 buckets per power
/// of two (0.1% resolution). Its memory does not grow with the number of
/// operations timed, so neither does the run's RSS.
class Histogram {
 public:
  void Add(uint64_t ns) {
    const size_t i = Index(ns);
    if (i >= counts_.size()) counts_.resize(i + 1);
    ++counts_[i];
    ++count_;
    sum_ns_ += static_cast<double>(ns);
  }

  uint64_t count() const { return count_; }
  double MeanNs() const {
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
  }

  /// Nearest-rank percentile in microseconds (0 when empty).
  double PercentileUs(double p) const {
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return static_cast<double>(Lower(i)) / 1e3;
    }
    return 0.0;
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kExact = uint64_t{2} << kSubBits;

  static size_t Index(uint64_t ns) {
    if (ns < kExact) return static_cast<size_t>(ns);
    const int e = static_cast<int>(std::bit_width(ns)) - (kSubBits + 1);
    return static_cast<size_t>(kExact + (uint64_t(e) - 1) * (kExact / 2) +
                               ((ns >> e) - kExact / 2));
  }
  static uint64_t Lower(size_t i) {
    if (i < kExact) return i;
    const uint64_t j = i - kExact;
    const int e = static_cast<int>(j >> kSubBits) + 1;
    return ((j & (kExact / 2 - 1)) + kExact / 2) << e;
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ns_ = 0;
};

/// The q-quantile of `v`, interpolating between neighbours (0 if empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Timings report the level the program holds over three quarters of
/// the run: the lower quartile of a throughput, the upper quartile of a
/// latency. The shared host has phases, lasting seconds to tens of
/// seconds, in which the same code runs up to 1.6x faster (measured on
/// two Dbs in one process, alternating every half second: both sped up
/// together, so the cause is the host, not the program's memory layout).
/// A median moves with the share of the run such phases cover; the
/// quartile moves only when they cover most of it.
double SlowQuartile(std::vector<double> v, bool higher_is_better) {
  return Quantile(std::move(v), higher_is_better ? 0.25 : 0.75);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Bytes this process has passed to write(2) and friends (/proc/self/io
/// wchar): WAL appends, SST and MANIFEST writes. 0 when unavailable.
uint64_t ProcessBytesWritten() {
  FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return 0;
  char line[128];
  unsigned long long value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "wchar: %llu", &value) == 1) break;
  }
  std::fclose(f);
  return value;
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Memory the Db accounts for: cached data blocks, pinned index and
/// filter blocks, and memtable arenas.
double DbMemMb(Db& db) {
  return static_cast<double>(db.cache().used_bytes() +
                             db.cache().pinned_bytes() +
                             db.stats().memtable_arena_bytes) /
         1e6;
}

/// Records a span when tracing (log != null). Each public call the
/// benchmark makes is one operation, so a span's operation id is its own.
void AddSpan(SpanLog* log, SpanName name, uint64_t id, uint64_t parent,
             uint64_t start_ns, uint64_t end_ns, uint64_t n = 1,
             const Delta& delta = {}) {
  if (log == nullptr) return;
  Span s;
  s.id = id;
  s.parent = parent;
  s.op = id;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.n = n;
  s.delta = delta;
  log->Add(s);
}

/// Runs `call`, one public call, and returns its duration in ns. When
/// tracing and the log still wants spans of this name, it also records
/// the span, with counter deltas of `db` around the call when `db` is
/// given.
template <typename Fn>
uint64_t Timed(SpanLog* log, Db* db, SpanName name, uint64_t parent,
               Fn&& call) {
  const bool traced = log != nullptr && log->Wants(name);
  Counters before;
  if (traced && db != nullptr) before = Snap(*db);
  const uint64_t start = NowNs();
  call();
  const uint64_t end = NowNs();
  if (traced) {
    AddSpan(log, name, NextId(), parent, start, end, 1,
            db != nullptr ? Diff(before, Snap(*db)) : Delta{});
  }
  return end - start;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Count(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Db> db;
  uint64_t phase_id = 0;
  double seconds = 0;
  Counters loaded;  // after load + CompactAll + WaitForBackground
  Counters warmed;  // after warm-up + WaitForBackground
  uint64_t user_bytes = 0;
  uint64_t bytes_written = 0;  // by the load and its compactions
  int warmup_passes = 0;
  Delta last_pass;  // counters over the last (drift-free) warm-up pass
  std::vector<size_t> files;  // per level, after set-up
  uint64_t sst_bytes = 0;
  uint64_t filter_bits = 0;
  uint64_t total_keys = 0;
};

/// Replays the stream until one whole pass flags no drift. When a Seek
/// flags drift the reader waits for the background redesign before the
/// next Seek, so every redesign consumes the same sample window on every
/// run and the warmed tree never depends on thread timing.
int WarmUp(Db& db, const Workload& w, const Inputs& in, Tally* tally,
           Delta* last_pass) {
  for (int pass = 1; pass <= kMaxWarmupPasses; ++pass) {
    const Counters before = Snap(db);
    uint64_t drift = before.db.drift_detected;
    bool fired = false;
    for (size_t i = 0; i < in.stream.size(); ++i) {
      const SeekResult r = db.Seek(in.stream[i].lo, in.stream[i].hi);
      tally->Count(Check(w, in, i, r, /*full_value=*/pass == 1));
      const uint64_t now = db.stats().drift_detected;
      if (now != drift) {
        db.WaitForBackground();
        drift = now;
        fired = true;
      }
    }
    *last_pass = Diff(before, Snap(db));
    if (!fired) return pass;
  }
  return kMaxWarmupPasses;
}

/// Creates the database, loads the keys, compacts and warms up: the work
/// setup_s times. Adds each load put's latency to `put_lat`.
bool SetUp(const Workload& w, const Inputs& in, const std::string& dir,
           SpanLog* log, Tally* tally, Histogram* put_lat, Setup* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  DbOptions options;
  options.dir = dir;
  options.block_cache_bytes = w.cache_bytes;
  options.wal_sync = false;
  Status status;
  options.filter_policy = MakeFilterPolicy(kFilterSpec, &status);
  if (options.filter_policy == nullptr) {
    std::fprintf(stderr, "filter spec: %s\n", status.ToString().c_str());
    return false;
  }
  std::vector<std::pair<std::string, std::string>> seed_queue;
  for (const RangeQuery& q : in.samples) {
    seed_queue.push_back({EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)});
  }

  out->phase_id = NextId();
  const uint64_t phase = out->phase_id;
  const uint64_t start = NowNs();
  const uint64_t written_before = ProcessBytesWritten();
  Timed(log, nullptr, kDbCreate, phase, [&] {
    auto created = Db::Create(options);
    out->db = std::move(created.first);
    status = created.second;
  });
  if (!status.ok()) {
    std::fprintf(stderr, "Db::Create: %s\n", status.ToString().c_str());
    return false;
  }
  Db& db = *out->db;
  db.query_queue().Seed(seed_queue);

  for (size_t i = 0; i < in.keys.size(); ++i) {
    const std::string key = EncodeKeyBE(in.keys[i]);
    const std::string value = MakeValuePayload(in.keys[i], w.value_size);
    put_lat->Add(Timed(log, &db, kDbPut, phase,
                       [&] { status = db.Put(key, value); }));
    tally->Count(status.ok());
    out->user_bytes += key.size() + value.size();
    if ((i + 1) % kFlushEveryKeys == 0) {
      Timed(log, &db, kDbFlush, phase, [&] { status = db.Flush(); });
      tally->Count(status.ok());
    }
  }
  Timed(log, &db, kDbCompactAll, phase, [&] { status = db.CompactAll(); });
  tally->Count(status.ok());
  Timed(log, &db, kDbWaitForBackground, phase,
        [&] { db.WaitForBackground(); });
  out->bytes_written = ProcessBytesWritten() - written_before;
  out->loaded = Snap(db);
  out->files = db.LevelFileCounts();
  out->sst_bytes = db.TotalSstBytes();
  out->filter_bits = db.TotalFilterBits();
  out->total_keys = db.TotalKeys();
  const uint64_t loaded_ns = NowNs();
  AddSpan(log, kPhaseSetup, phase, 0, start, loaded_ns);

  const uint64_t warmup_phase = NextId();
  out->warmup_passes = WarmUp(db, w, in, tally, &out->last_pass);
  Timed(log, &db, kDbWaitForBackground, warmup_phase,
        [&] { db.WaitForBackground(); });
  out->warmed = Snap(db);
  const uint64_t end = NowNs();
  AddSpan(log, kPhaseWarmup, warmup_phase, 0, loaded_ns, end,
          static_cast<uint64_t>(out->warmup_passes));
  out->seconds = (end - start) / 1e9;
  return true;
}

// ---------------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------------

/// One stream's slices over the timed phase. The end-to-end figures are
/// quartiles (see SlowQuartile): throughput over chunks of kChunkQueries,
/// latency percentiles over slices. A short burst of interference (the
/// reader descheduled, its virtual CPU taken by the host) spoils only the
/// chunks and slices it hits.
struct Window {
  static constexpr uint64_t kChunkQueries = 256;

  uint64_t phase_id = NextId();
  uint64_t start_ns = 0, end_ns = 0;
  Histogram lat;  // per Seek, or per batch for MultiSeek, over all slices
  uint64_t queries = 0;
  std::vector<double> chunk_qps;
  std::vector<double> slice_p50_us, slice_p99_us;

  /// Call after each operation; closes a chunk every kChunkQueries.
  void Tock(uint64_t now_ns) {
    if (queries - chunk_queries_ < kChunkQueries) return;
    chunk_qps.push_back(
        Ratio(queries - chunk_queries_, (now_ns - chunk_start_ns_) / 1e9));
    OpenChunk(now_ns);
  }
  /// Starts a chunk; a chunk never spans two slices.
  void OpenChunk(uint64_t now_ns) {
    chunk_start_ns_ = now_ns;
    chunk_queries_ = queries;
  }

  double Qps() const { return SlowQuartile(chunk_qps, true); }
  double P50Us() const { return SlowQuartile(slice_p50_us, false); }
  double P99Us() const { return SlowQuartile(slice_p99_us, false); }

 private:
  uint64_t chunk_start_ns_ = 0;
  uint64_t chunk_queries_ = 0;
};

/// The single closed-loop reader. Its Seek and MultiSeek streams run in
/// alternating slices of kSliceNs, so both see the same host conditions
/// over the run; each stream resumes where its last slice stopped.
class Reader {
 public:
  static constexpr uint64_t kSliceNs = 50000000;

  Reader(Db& db, QueryEngine& engine, const Workload& w, const Inputs& in,
         SpanLog* log, Tally* tally)
      : db_(db),
        engine_(engine),
        w_(w),
        in_(in),
        log_(log),
        tally_(tally) {
    for (size_t off = 0; off < in.stream.size(); off += kBatch) {
      const size_t n = std::min(kBatch, in.stream.size() - off);
      batches_.emplace_back(
          in.stream.begin() + static_cast<ptrdiff_t>(off),
          in.stream.begin() + static_cast<ptrdiff_t>(off + n));
    }
  }

  /// One slice of Db::Seek; records spans when `spans` and tracing.
  void Seeks(Window* win, bool spans) {
    SpanLog* log = spans ? log_ : nullptr;
    const uint64_t start = BeginSlice(win);
    Histogram slice;
    for (uint64_t now = start; now < start + kSliceNs;) {
      const size_t i = next_query_;
      next_query_ = (next_query_ + 1) % in_.stream.size();
      SeekResult r;
      const uint64_t ns = Timed(log, &db_, kDbSeek, win->phase_id, [&] {
        r = db_.Seek(in_.stream[i].lo, in_.stream[i].hi);
      });
      win->lat.Add(ns);
      slice.Add(ns);
      tally_->Count(Check(w_, in_, i, r, win->queries < in_.stream.size()));
      ++win->queries;
      now = NowNs();
      win->Tock(now);
    }
    win->end_ns = NowNs();
    win->slice_p50_us.push_back(slice.PercentileUs(0.50));
    win->slice_p99_us.push_back(slice.PercentileUs(0.99));
  }

  /// One slice of QueryEngine::Run over batches of kBatch.
  void MultiSeeks(Window* win) {
    const uint64_t start = BeginSlice(win);
    for (uint64_t now = start; now < start + kSliceNs;) {
      const size_t b = next_batch_;
      next_batch_ = (next_batch_ + 1) % batches_.size();
      BatchStats stats;
      const uint64_t t0 = NowNs();
      engine_.Run(batches_[b], &results_, &stats);
      now = NowNs();
      win->lat.Add(now - t0);
      if (log_ != nullptr && log_->Wants(kEngineRun)) {
        Delta d;
        d.seeks = stats.queries;
        d.empty_seeks = stats.empty;
        d.filter_checks = stats.filter_checks;
        d.filter_negatives = stats.filter_negatives;
        d.sst_seeks = stats.sst_seeks;
        d.fp_files = stats.false_positive_files;
        d.cache_hits = stats.blocks_touched - stats.cache_misses;
        d.cache_misses = stats.cache_misses;
        AddSpan(log_, kEngineRun, NextId(), win->phase_id, t0, now,
                batches_[b].size(), d);
      }
      // Seek answers are checked against the same ground truth, so a
      // MultiSeek that passes here matches Seek query by query.
      const bool sized = results_.size() == batches_[b].size();
      for (size_t j = 0; j < batches_[b].size(); ++j) {
        tally_->Count(sized && Check(w_, in_, b * kBatch + j, results_[j],
                                     win->queries < in_.stream.size()));
      }
      win->queries += batches_[b].size();
      win->Tock(NowNs());
    }
    win->end_ns = NowNs();
  }

 private:
  uint64_t BeginSlice(Window* win) {
    const uint64_t start = NowNs();
    if (win->start_ns == 0) win->start_ns = start;
    win->OpenChunk(start);
    return start;
  }

  Db& db_;
  QueryEngine& engine_;
  const Workload& w_;
  const Inputs& in_;
  SpanLog* log_;
  Tally* tally_;
  std::vector<QueryBatch> batches_;
  std::vector<MultiSeekResult> results_;
  size_t next_query_ = 0;
  size_t next_batch_ = 0;
};

// ---------------------------------------------------------------------------
// Traced-only layers: SST reads outside the Db, and one standalone filter
// ---------------------------------------------------------------------------

struct SstReplay {
  double cold_us_p50 = 0;
  double warm_us_p50 = 0;
};

/// Opens the tree's SSTs through SstReader with the benchmark's own
/// cache and looks up a fixed sample of base keys twice: first into the
/// empty cache (block read, CRC, decode, insert), then again (cache
/// hits).
SstReplay RunSstReplay(Db& db, const Workload& w, const Inputs& in,
                       const std::string& dir, SpanLog* log, Tally* tally) {
  BlockCache cache(kSstReplayCacheBytes);
  std::vector<std::unique_ptr<SstReader>> readers;
  const uint64_t open_phase = NextId();
  const uint64_t open_start = NowNs();
  for (const Db::SstDesignInfo& info : db.DesignInfo()) {
    auto reader = std::make_unique<SstReader>();
    Status status;
    Timed(log, nullptr, kSstOpen, open_phase, [&] {
      status = reader->Open(dir + "/" + std::to_string(info.file_id) + ".sst",
                            info.file_id, &cache);
    });
    tally->Count(status.ok());
    if (status.ok()) readers.push_back(std::move(reader));
  }
  AddSpan(log, kPhaseSstOpen, open_phase, 0, open_start, NowNs(),
          readers.size());

  // Route each sampled key to the file holding it without touching the
  // cache under test.
  BlockReadOptions uncached;
  uncached.use_cache = false;
  std::vector<std::pair<std::string, const SstReader*>> lookups;
  const size_t step = std::max<size_t>(1, in.keys.size() / kSstReplayKeys);
  for (size_t i = step / 2; i < in.keys.size(); i += step) {
    const std::string key = EncodeKeyBE(in.keys[i]);
    const SstReader* home = nullptr;
    for (const auto& reader : readers) {
      SstReader::SeekEntry entry;
      if (reader->SeekInRange(key, key, ~uint64_t{0}, uncached, &entry) == 0) {
        home = reader.get();
        break;
      }
    }
    tally->Count(home != nullptr);
    if (home != nullptr) lookups.push_back({key, home});
  }

  SstReplay out;
  for (SpanName phase_name : {kPhaseSstCold, kPhaseSstWarm}) {
    const uint64_t phase = NextId();
    const uint64_t start = NowNs();
    Histogram lat;
    for (const auto& [key, reader] : lookups) {
      SstReader::SeekEntry entry;
      int rc = -1;
      lat.Add(Timed(log, nullptr, kSstSeekInRange, phase, [&] {
        rc = reader->SeekInRange(key, key, ~uint64_t{0}, BlockReadOptions{},
                                 &entry);
      }));
      tally->Count(rc == 0 && entry.key == key &&
                   entry.value ==
                       MakeValuePayload(DecodeKeyBE(key), w.value_size));
    }
    AddSpan(log, phase_name, phase, 0, start, NowNs(), lookups.size());
    (phase_name == kPhaseSstCold ? out.cold_us_p50 : out.warm_us_p50) =
        lat.PercentileUs(0.5);
  }
  return out;
}

struct Model {
  double sample_ms = 0;
  double design_ms = 0;
  double build_ms = 0;
  double maycontain_ns = 0;
  double multimaycontain_ns = 0;
};

/// Sample -> Design -> Build over one SST-sized slice of the keys with
/// the workload's samples (clipped to the slice, as the SST filter
/// policy clips them), then times the filter on the stream's queries
/// that fall in the slice.
bool RunModel(const Workload& w, const Inputs& in, SpanLog* log,
              Model* out) {
  const uint64_t phase = NextId();
  const uint64_t start = NowNs();
  const size_t per_file = std::min(
      in.keys.size(), DbOptions{}.sst_target_bytes / (w.value_size + 16));
  const size_t first = (in.keys.size() - per_file) / 2;
  const std::vector<uint64_t> slice(
      in.keys.begin() + static_cast<ptrdiff_t>(first),
      in.keys.begin() + static_cast<ptrdiff_t>(first + per_file));
  auto clip = [&](const std::vector<RangeQuery>& qs) {
    std::vector<RangeQuery> kept;
    for (const RangeQuery& q : qs) {
      if (q.hi >= slice.front() && q.lo <= slice.back()) kept.push_back(q);
    }
    return kept;
  };
  const std::vector<RangeQuery> samples = clip(in.samples);
  std::vector<RangeQuery> probes = clip(in.stream_int);
  if (probes.empty()) probes = samples;
  if (probes.empty()) return false;

  FilterBuilder builder(slice);
  std::unique_ptr<RangeFilter> filter;
  std::string error;
  out->sample_ms =
      Timed(log, nullptr, kBuilderSample, phase,
            [&] { builder.Sample(samples); }) / 1e6;
  out->design_ms =
      Timed(log, nullptr, kBuilderDesign, phase, [&] { builder.Design(); }) /
      1e6;
  out->build_ms = Timed(log, nullptr, kBuilderBuild, phase, [&] {
                    filter = builder.Build(kFilterSpec, &error);
                  }) / 1e6;
  if (filter == nullptr) {
    std::fprintf(stderr, "FilterBuilder::Build: %s\n", error.c_str());
    return false;
  }

  // Enough calls that the clock reads vanish against the probes.
  const size_t reps = std::max<size_t>(1, 2000000 / probes.size());
  uint64_t passes = 0;
  const uint64_t t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    for (const RangeQuery& q : probes) passes += filter->MayContain(q.lo, q.hi);
  }
  const uint64_t t1 = NowNs();
  const uint64_t calls = reps * probes.size();
  AddSpan(log, kFilterMayContain, NextId(), phase, t0, t1, calls);
  out->maycontain_ns = static_cast<double>(t1 - t0) / calls;

  // Batches of kBatch sorted by lo, the order the "sorted" scheduler
  // hands MultiSeek.
  std::vector<uint64_t> lo, hi;
  for (size_t off = 0; off < probes.size(); off += kBatch) {
    std::vector<RangeQuery> batch(
        probes.begin() + static_cast<ptrdiff_t>(off),
        probes.begin() +
            static_cast<ptrdiff_t>(std::min(off + kBatch, probes.size())));
    std::sort(batch.begin(), batch.end(),
              [](const RangeQuery& a, const RangeQuery& b) {
                return a.lo < b.lo;
              });
    for (const RangeQuery& q : batch) {
      lo.push_back(q.lo);
      hi.push_back(q.hi);
    }
  }
  std::vector<uint8_t> verdicts(kBatch);
  uint64_t batch_passes = 0;
  const uint64_t t2 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    for (size_t off = 0; off < lo.size(); off += kBatch) {
      const size_t n = std::min(kBatch, lo.size() - off);
      filter->MultiMayContain(&lo[off], &hi[off], n, verdicts.data());
      for (size_t j = 0; j < n; ++j) batch_passes += verdicts[j];
    }
  }
  const uint64_t t3 = NowNs();
  AddSpan(log, kFilterMultiMayContain, NextId(), phase, t2, t3, calls);
  out->multimaycontain_ns = static_cast<double>(t3 - t2) / calls;
  AddSpan(log, kPhaseModel, phase, 0, start, NowNs());
  // Both forms answer the same queries, so they must agree.
  return passes == batch_passes;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    json_ += json_.empty() ? "{" : ", ";
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  std::string Json() const { return json_.empty() ? "{}" : json_ + "}"; }

 private:
  std::string json_;
};

/// Sums a delta over spans of one name under one parent.
Delta SumDeltas(const std::vector<Span>& spans, SpanName name,
                uint64_t parent, uint64_t* count,
                Histogram* durations) {
  Delta total;
  for (const Span& s : spans) {
    if (s.name != name || s.parent != parent) continue;
    total.Accumulate(s.delta);
    *count += s.n;
    if (durations != nullptr) durations->Add(s.duration_ns());
  }
  return total;
}

/// False-positive SST probes over the filter checks whose range was
/// empty at that file: DbStats::LevelObservedFpr's formula, summed over
/// levels (every file here has a filter, so the totals add up).
double ObservedFpr(const Delta& d) {
  return Ratio(d.fp_files, d.filter_checks + d.fp_files - d.sst_seeks);
}

/// Check-weighted mean of the designs' modeled FPR over a window.
double ModeledFpr(const std::vector<Db::SstDesignInfo>& before,
                  const std::vector<Db::SstDesignInfo>& after) {
  double weighted = 0, weight = 0;
  for (const Db::SstDesignInfo& f : after) {
    if (f.modeled_fpr < 0) continue;
    uint64_t checks = f.checks;
    for (const Db::SstDesignInfo& g : before) {
      if (g.file_id == f.file_id) checks -= g.checks;
    }
    weighted += f.modeled_fpr * static_cast<double>(checks);
    weight += static_cast<double>(checks);
  }
  return Ratio(weighted, weight);
}

double ShardSkew(const Counters& a, const Counters& b) {
  const std::vector<uint64_t>& s = b.db.shard_applies;
  if (s.empty()) return 0;
  double max = 0, sum = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const double d = static_cast<double>(s[i] - At(a.db.shard_applies, i));
    max = std::max(max, d);
    sum += d;
  }
  return Ratio(max, sum / static_cast<double>(s.size()));
}

std::string TreeShape(const Setup& s) {
  std::string out;
  for (size_t l = 0; l < s.files.size(); ++l) {
    if (s.files[l] == 0) continue;
    out += "L" + std::to_string(l) + "=" + std::to_string(s.files[l]) + " ";
  }
  return out + std::to_string(s.sst_bytes) + "B";
}

int Run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const Inputs in = MakeInputs(w, args.keys, args.seed);
  const std::string db_dir = args.dir + "/db";
  std::filesystem::create_directories(args.dir);
  SpanLog main_log;
  SpanLog* log = args.trace ? &main_log : nullptr;
  Tally tally;

  // The first set-up's tree is the one measured; the repeats that setup_s
  // takes its median over run after the timed phase.
  Setup setup;
  Histogram load_puts;  // every set-up's load, pooled
  std::vector<double> setup_seconds;
  auto set_up = [&](Setup* out) {
    if (!SetUp(w, in, db_dir, log, &tally, &load_puts, out)) return false;
    setup_seconds.push_back(out->seconds);
    std::fprintf(stderr, "set-up %zu: %.3f s, tree %s, warm-up passes %d\n",
                 setup_seconds.size(), out->seconds, TreeShape(*out).c_str(),
                 out->warmup_passes);
    return true;
  };
  if (!set_up(&setup)) return 1;
  Db& db = *setup.db;
  Status status;
  auto engine = QueryEngine::Create(&db, kScheduler, &status);
  if (engine == nullptr) {
    std::fprintf(stderr, "QueryEngine: %s\n", status.ToString().c_str());
    return 1;
  }

  // Timed phase. The traced run interleaves an untraced Seek slice with
  // each traced one, so trace.overhead_us compares like with like.
  Window untraced, seeks, multi;
  const std::vector<Db::SstDesignInfo> design_before = db.DesignInfo();
  {
    Reader reader(db, *engine, w, in, log, &tally);
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
    while (NowNs() < deadline) {
      if (args.trace) reader.Seeks(&untraced, /*spans=*/false);
      reader.Seeks(&seeks, /*spans=*/true);
      reader.MultiSeeks(&multi);
    }
  }
  const std::vector<Db::SstDesignInfo> design_after = db.DesignInfo();
  if (args.trace) {
    AddSpan(log, kPhaseSeekUntraced, untraced.phase_id, 0, untraced.start_ns,
            untraced.end_ns, untraced.queries);
  }
  AddSpan(log, kPhaseSeek, seeks.phase_id, 0, seeks.start_ns, seeks.end_ns,
          seeks.queries);
  AddSpan(log, kPhaseMultiSeek, multi.phase_id, 0, multi.start_ns,
          multi.end_ns, multi.queries);
  const double db_mem_mb = DbMemMb(db);
  const Counters end = Snap(db);

  Metrics m;
  if (!args.trace) {
    m.Add("seek_p50_us", seeks.P50Us(), "us");
    m.Add("seek_p99_us", seeks.P99Us(), "us");
    m.Add("seek_qps", seeks.Qps(), "1/s");
    m.Add("multiseek_qps", multi.Qps(), "1/s");
    // Counted over the last warm-up pass: the same queries on the same
    // tree with nothing running behind them, so the count repeats exactly
    // at a seed.
    const Delta& reads = setup.last_pass;
    m.Add("sst_probes_per_seek", Ratio(reads.sst_seeks, reads.seeks), "count");
    m.Add("filter_bits_per_key",
          Ratio(static_cast<double>(setup.filter_bits),
                static_cast<double>(setup.total_keys)),
          "bits");
    m.Add("space_amp", Ratio(setup.sst_bytes, setup.user_bytes), "ratio");
    m.Add("write_amp", Ratio(setup.bytes_written, setup.user_bytes),
          "ratio");
  } else {
    SstReplay sst = RunSstReplay(db, w, in, db_dir, log, &tally);
    Model model;
    tally.Count(RunModel(w, in, log, &model));

    const std::vector<Span>& spans = main_log.spans();
    const std::string trace_path = args.dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".csv";
    if (!WriteSpansCsv(trace_path, {&main_log})) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans in %s\n", spans.size(),
                 trace_path.c_str());

    uint64_t n_seek = 0;
    Histogram seek_ns;
    const Delta sd = SumDeltas(spans, kDbSeek, seeks.phase_id, &n_seek,
                               &seek_ns);
    const double seek_mean_ns = seek_ns.MeanNs();
    const double checks_per_seek = Ratio(sd.filter_checks, n_seek);
    uint64_t n_query = 0;
    Histogram run_ns;
    const Delta ed = SumDeltas(spans, kEngineRun, multi.phase_id, &n_query,
                               &run_ns);
    uint64_t n_put = 0;
    Histogram put_ns;
    const Delta pd =
        SumDeltas(spans, kDbPut, setup.phase_id, &n_put, &put_ns);
    // Write-side totals come from the set-up's counters, not the (capped)
    // spans.
    const Counters zero;
    const Counters& write_from = zero;
    const Counters& write_to = setup.loaded;

    m.Add("engine.run_us_p50", run_ns.PercentileUs(0.5), "us");
    m.Add("engine.sst_probes_per_query", Ratio(ed.sst_seeks, n_query),
          "count");
    m.Add("lsm.read.seek_us_p50", seek_ns.PercentileUs(0.5), "us");
    m.Add("lsm.read.filter_checks_per_seek", checks_per_seek, "count");
    m.Add("lsm.read.filter_negative_ratio",
          Ratio(sd.filter_negatives, sd.filter_checks), "ratio");
    for (size_t l = 0; l < kLevels; ++l) {
      m.Add("lsm.read.sst_probes_per_seek.L" + std::to_string(l),
            Ratio(sd.level_sst_seeks[l], n_seek), "count");
    }
    m.Add("lsm.read.fp_probes_per_seek", Ratio(sd.fp_files, n_seek), "count");
    // Counted like sst_probes_per_seek, so it too repeats at a seed on
    // read-only workloads.
    m.Add("lsm.read.observed_fpr", ObservedFpr(setup.last_pass), "ratio");
    m.Add("lsm.read.queue_sampled_per_empty_seek",
          Ratio(sd.queue_sampled, sd.empty_seeks), "ratio");
    m.Add("lsm.read.errors", end.db.read_errors - setup.warmed.db.read_errors,
          "count");
    m.Add("lsm.block_cache.hit_ratio",
          Ratio(sd.cache_hits, sd.cache_hits + sd.cache_misses), "ratio");
    m.Add("lsm.block_cache.misses_per_seek", Ratio(sd.cache_misses, n_seek),
          "count");
    m.Add("lsm.block_cache.evictions_per_seek",
          Ratio(sd.cache_evictions, n_seek), "count");
    m.Add("lsm.sst.seek_in_range_us_cold", sst.cold_us_p50, "us");
    m.Add("lsm.sst.seek_in_range_us_warm", sst.warm_us_p50, "us");
    m.Add("lsm.write.put_service_us_p50", put_ns.PercentileUs(0.50), "us");
    m.Add("lsm.write.put_service_us_p99", put_ns.PercentileUs(0.99), "us");
    m.Add("lsm.wal.records_per_batch", Ratio(pd.wal_records, pd.wal_batches),
          "count");
    m.Add("lsm.write.stalls",
          write_to.db.write_stalls - write_from.db.write_stalls, "count");
    m.Add("lsm.write.stall_wait_ms",
          (write_to.db.stall_wait_us - write_from.db.stall_wait_us) / 1e3,
          "ms");
    m.Add("lsm.write.shard_skew", ShardSkew(write_from, write_to), "ratio");
    const double build_s = setup.loaded.db.filter_build_ns / 1e9;
    m.Add("lsm.maint.filter_build_s", build_s, "s");
    m.Add("lsm.maint.filter_build_share_of_setup",
          Ratio(build_s, setup.seconds), "ratio");
    m.Add("lsm.maint.redesigns", end.db.redesigns, "count");
    m.Add("lsm.maint.drift_detected", end.db.drift_detected, "count");
    m.Add("lsm.maint.bytes_written_mb", setup.bytes_written / 1e6, "MB");
    const Counters* bounds[] = {&zero, &setup.loaded, &setup.warmed, &end};
    const char* const phase_names[] = {"setup", "warmup", "timed"};
    for (size_t p = 0; p < 3; ++p) {
      const DbStats& a = bounds[p]->db;
      const DbStats& b = bounds[p + 1]->db;
      const std::string prefix = std::string("lsm.maint.") + phase_names[p];
      m.Add(prefix + ".flushes", b.flushes - a.flushes, "count");
      m.Add(prefix + ".compactions", b.compactions - a.compactions, "count");
      m.Add(prefix + ".redesigns", b.redesigns - a.redesigns, "count");
      m.Add(prefix + ".drift_detected", b.drift_detected - a.drift_detected,
            "count");
    }
    for (size_t l = 0; l < kLevels; ++l) {
      m.Add("lsm.tree.files.L" + std::to_string(l),
            l < setup.files.size() ? setup.files[l] : 0, "count");
    }
    m.Add("lsm.tree.sst_mb", setup.sst_bytes / 1e6, "MB");
    m.Add("model.sample_ms", model.sample_ms, "ms");
    m.Add("model.design_ms", model.design_ms, "ms");
    m.Add("core.build_ms", model.build_ms, "ms");
    m.Add("core.maycontain_ns", model.maycontain_ns, "ns");
    m.Add("core.multimaycontain_ns_per_query", model.multimaycontain_ns, "ns");
    m.Add("core.probe_share_of_seek",
          Ratio(checks_per_seek * model.maycontain_ns, seek_mean_ns), "ratio");
    m.Add("model.modeled_fpr",
          ModeledFpr(design_before, design_after), "ratio");
    m.Add("trace.overhead_us",
          seeks.lat.PercentileUs(0.5) - untraced.lat.PercentileUs(0.5),
          "us");
  }

  const double rss_mb = PeakRssMb();
  engine.reset();
  setup.db.reset();
  bool shape_repeats = true;
  for (int r = 1; r < args.setups; ++r) {
    Setup again;
    if (!set_up(&again)) return 1;
    shape_repeats = shape_repeats && TreeShape(again) == TreeShape(setup);
  }
  std::error_code ec;
  std::filesystem::remove_all(db_dir, ec);
  if (!shape_repeats) {
    std::fprintf(stderr, "warning: set-up did not repeat the same tree\n");
  }
  if (!args.trace) {
    // The set-up load's puts: closed loop, so the latency is the service
    // time.
    m.Add("put_p50_us", load_puts.PercentileUs(0.50), "us");
    m.Add("put_p99_us", load_puts.PercentileUs(0.99), "us");
    m.Add("setup_s", Median(setup_seconds), "s");
    m.Add("success_rate",
          1.0 - Ratio(tally.failed, std::max<uint64_t>(tally.attempted, 1)),
          "ratio");
    m.Add("db_mem_mb", db_mem_mb, "MB");
  }

  std::string setups_json;
  for (double s : setup_seconds) {
    setups_json += (setups_json.empty() ? "" : ", ") + std::to_string(s);
  }
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"simd_avx2\": %s, \"force_scalar\": %s, \"nproc\": %ld, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"filter\": \"%s\", "
      "\"wal_sync\": false, \"setup_s\": [%s], \"tree\": \"%s\", "
      "\"tree_repeats\": %s, \"seek_samples\": %zu, "
      "\"multiseek_batches\": %zu, \"put_samples\": %zu, "
      "\"rss_peak_mb\": %.1f}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, SimdAvx2Enabled() ? "true" : "false",
      ForceScalar() ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      __VERSION__, PERFBENCH_BUILD_TYPE, kFilterSpec, setups_json.c_str(),
      TreeShape(setup).c_str(), shape_repeats ? "true" : "false",
      seeks.lat.count(), multi.lat.count(),
      load_puts.count(), rss_mb);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), m.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace proteus

int main(int argc, char** argv) {
  proteus::perfbench::Args args;
  if (!proteus::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--keys=N] [--dir=PATH]\n");
    return 2;
  }
  return proteus::perfbench::Run(args);
}
