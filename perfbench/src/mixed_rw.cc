// Workload mixed_rw: service traffic on an on-disk database with the
// default WAL policy (flush per record, no fsync):
//   - two closed-loop read clients send Zipf-skewed cacheable XQuery
//     keyword / sub-tree searches and SQL point lookups over ENZYME;
//   - one writer sends SQL INSERTs into an annotation table no read
//     touches, on an open-loop schedule, each timed from when it was due;
//   - one thread runs Warehouse::SyncSource on ENZYME on a fixed period,
//     alternating between two seeded releases.
// Every read answer must equal the DOM answer under one of the two
// releases; after the phase the annotation table must hold exactly the
// acknowledged INSERTs, live and after reopening the database.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <random>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "sql/engine.h"

namespace xqbench {

namespace {

// The traffic is a synthetic stress mix: no query log of the system's
// users exists to fit it to. README.md gives the reason for each value.
constexpr size_t kReadClients = 2;
// Every INSERT empties the result cache, so the write rate sets how long
// the cache lives; at this rate it refills between writes.
constexpr double kInsertsPerSecond = 5.0;
// A compressed release cycle: 60 syncs in a 30-s phase.
constexpr double kSyncPeriodMs = 500.0;
// ops_per_s is the 90th percentile of the read rate over windows of this
// length, one INSERT period (see WindowRateP90).
constexpr double kRateWindowMs = 200.0;
// The query server's default capacity (xomatiq_server --cache).
constexpr size_t kCacheEntries = 256;
// The classic Zipf law.
constexpr double kZipfExponent = 1.0;
constexpr double kWarmupSeconds = 2.0;

class Zipf {
 public:
  Zipf(size_t n, double s) {
    double sum = 0;
    for (size_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t operator()(std::mt19937_64* rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Zipf rank -> text index. The kinds of text (XQuery sub-tree search,
// XQuery keyword search, SQL point lookup) take the ranks in the same
// interleaved pattern for every seed, in proportion to their numbers, so
// the hot set's mix of cheap and costly misses does not vary by seed; the
// seed picks which text of a kind gets each of its ranks.
constexpr const char* kReadKinds[] = {"read_subtree", "read_keyword",
                                       "read_sql"};

int ReadKind(const ReadText& t) {
  return t.mode == common::QueryMode::kSql               ? 2
         : t.text.find(", any)") != std::string::npos ? 1
                                                       : 0;
}

std::vector<size_t> ZipfOrder(const std::vector<ReadText>& texts,
                              uint64_t seed) {
  std::vector<size_t> kinds[3];
  for (size_t i = 0; i < texts.size(); ++i) {
    kinds[ReadKind(texts[i])].push_back(i);
  }
  std::mt19937_64 rng(seed * 7919 + 17);
  for (auto& k : kinds) std::shuffle(k.begin(), k.end(), rng);
  std::vector<size_t> order;
  size_t taken[3] = {0, 0, 0};
  const double n = static_cast<double>(texts.size());
  for (size_t rank = 0; rank < texts.size(); ++rank) {
    // The kind furthest behind its share of the ranks so far.
    int next = -1;
    double lag = 0;
    for (int k = 0; k < 3; ++k) {
      if (taken[k] == kinds[k].size()) continue;
      const double behind =
          static_cast<double>(rank + 1) * kinds[k].size() / n - taken[k];
      if (next < 0 || behind > lag) {
        next = k;
        lag = behind;
      }
    }
    order.push_back(kinds[next][taken[next]++]);
  }
  return order;
}

// One thread's share of a phase; merged after the threads are joined.
struct ThreadLog {
  std::vector<double> latency_ms;
  std::vector<double> done_ms;  // completion times since the phase start
  // Peak of the rel.mvcc.garbage_versions gauge seen after each write.
  int64_t max_garbage = 0;
  // Traced runs: result-cache entries lost across each write, summed.
  double cache_entries_lost = 0;
  uint64_t ops = 0;
  std::vector<std::string> failures, wrong;
};

struct Phase {
  ThreadLog reads, inserts, syncs;
};

class Mix {
 public:
  Mix(const Options& o, Stack* stack, const Inputs* inputs,
      std::vector<ReadText> texts)
      : o_(o), stack_(stack), inputs_(inputs), texts_(std::move(texts)),
        zipf_(texts_.size(), kZipfExponent) {
    order_ = ZipfOrder(texts_, o.seed);
    const uint16_t port = stack->server->port();
    for (size_t i = 0; i < kReadClients; ++i) {
      readers_.push_back(
          Must(cli::Client::Connect("127.0.0.1", port), "connect reader"));
    }
    writer_.emplace(Must(cli::Client::Connect("127.0.0.1", port), "connect writer"));
  }

  // Runs the full mix for `seconds`; `salt` varies the read streams.
  Phase Run(double seconds, uint64_t salt) {
    Phase phase;
    std::vector<ThreadLog> reader_logs(kReadClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kReadClients; ++i) {
      threads.emplace_back([&, i] {
        ReadLoop(&readers_[i], o_.seed * 1000003 + salt * 101 + i, start,
                 deadline, &reader_logs[i]);
      });
    }
    threads.emplace_back([&] { InsertLoop(start, deadline, &phase.inserts); });
    threads.emplace_back([&] { SyncLoop(start, deadline, &phase.syncs); });
    for (std::thread& t : threads) t.join();
    for (ThreadLog& log : reader_logs) {
      phase.reads.ops += log.ops;
      phase.reads.latency_ms.insert(phase.reads.latency_ms.end(),
                                    log.latency_ms.begin(), log.latency_ms.end());
      phase.reads.done_ms.insert(phase.reads.done_ms.end(), log.done_ms.begin(),
                                 log.done_ms.end());
      phase.reads.failures.insert(phase.reads.failures.end(),
                                  log.failures.begin(), log.failures.end());
      phase.reads.wrong.insert(phase.reads.wrong.end(), log.wrong.begin(),
                               log.wrong.end());
    }
    return phase;
  }

  uint64_t acked() const { return acked_; }
  cli::Client* writer() { return &*writer_; }
  const std::vector<ReadText>& texts() const { return texts_; }

  // Result-cache entries, read before and after each write in a traced
  // run (the readers keep adding entries, so this slightly undercounts).
  size_t CacheEntries() const { return o_.trace ? stack_->cache->size() : 0; }

  // One INSERT of the next annotation row; true when acknowledged.
  bool Insert(ThreadLog* log) {
    const uint64_t id = next_note_++;
    const std::string sql = "INSERT INTO " + std::string(kNoteTable) +
                            " VALUES (" + std::to_string(id) + ", 'note " +
                            std::to_string(o_.seed) + "-" +
                            std::to_string(id) + "')";
    common::Result<srv::Response> r =
        writer_->Execute(common::QueryRequest::Sql(sql));
    ++log->ops;
    if (!r.ok()) {
      log->failures.push_back("insert: " + r.status().ToString());
      return false;
    }
    if (!r->ok()) {
      log->failures.push_back("insert: " + r->error);
      return false;
    }
    ++acked_;
    return true;
  }

 private:
  void ReadLoop(cli::Client* client, uint64_t seed, Clock::time_point start,
                Clock::time_point deadline, ThreadLog* log) {
    std::mt19937_64 rng(seed);
    while (Clock::now() < deadline) {
      const ReadText& t = texts_[order_[zipf_(&rng)]];
      common::QueryRequest req{t.mode, t.text, {}, std::nullopt};
      const Clock::time_point t0 = Clock::now();
      common::Result<srv::Response> r = client->Execute(req);
      const double ms = MsSince(t0);
      ++log->ops;
      if (!r.ok()) {
        log->failures.push_back("read: " + r.status().ToString());
        continue;
      }
      if (!r->ok()) {
        log->failures.push_back("read: " + r->error);
        continue;
      }
      log->latency_ms.push_back(ms);
      log->done_ms.push_back(MsSince(start));
      std::string err = CheckReadAnswer(t, *r);
      if (!err.empty()) log->wrong.push_back(err);
    }
  }

  // Open loop: INSERT k is due at start + k / rate and is timed from
  // then, so a stalled write also charges the ones queued behind it.
  void InsertLoop(Clock::time_point start, Clock::time_point deadline,
                  ThreadLog* log) {
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k / kInsertsPerSecond));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const size_t entries0 = CacheEntries();
      if (Insert(log)) log->latency_ms.push_back(MsSince(due));
      log->cache_entries_lost +=
          static_cast<double>(entries0) - static_cast<double>(CacheEntries());
      log->max_garbage = std::max(log->max_garbage,
                                  GaugeValue("rel.mvcc.garbage_versions"));
    }
  }

  void SyncLoop(Clock::time_point start, Clock::time_point deadline,
                ThreadLog* log) {
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(k * kSyncPeriodMs));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const std::string& release =
          next_release_ == 0 ? inputs_->flat[kEnzyme] : inputs_->enzyme_b_flat;
      const size_t entries0 = CacheEntries();
      const Clock::time_point t0 = Clock::now();
      common::Result<hounds::UpdateStats> stats = stack_->warehouse->SyncSource(
          CollectionName(kEnzyme), TransformerFor(kEnzyme), release);
      const double ms = MsSince(t0);
      log->cache_entries_lost +=
          static_cast<double>(entries0) - static_cast<double>(CacheEntries());
      ++log->ops;
      if (!stats.ok()) {
        log->failures.push_back("sync: " + stats.status().ToString());
        continue;
      }
      next_release_ ^= 1;
      log->latency_ms.push_back(ms);
      log->max_garbage = std::max(log->max_garbage,
                                  GaugeValue("rel.mvcc.garbage_versions"));
      const size_t changed = stats->added + stats->updated + stats->removed;
      if (changed != inputs_->release_changed_docs) {
        log->wrong.push_back("sync changed " + std::to_string(changed) +
                             " documents, the releases differ in " +
                             std::to_string(inputs_->release_changed_docs));
      }
    }
  }

  const Options& o_;
  Stack* stack_;
  const Inputs* inputs_;
  std::vector<ReadText> texts_;
  Zipf zipf_;
  std::vector<size_t> order_;  // Zipf rank -> text index
  std::vector<cli::Client> readers_;
  std::optional<cli::Client> writer_;
  uint64_t next_note_ = 0;
  std::atomic<uint64_t> acked_{0};
  int next_release_ = 1;  // the warehouse starts at release A
};

// Reads completed per second in each kRateWindowMs window of the phase;
// the 90th percentile of those rates (the rate sustained while the host is
// quiet, as the p10 latencies are the latency when it is).
double WindowRateP90(const std::vector<double>& done_ms, double seconds) {
  std::vector<double> counts(
      static_cast<size_t>(seconds * 1e3 / kRateWindowMs), 0.0);
  for (double t : done_ms) {
    size_t w = static_cast<size_t>(t / kRateWindowMs);
    if (w < counts.size()) counts[w] += 1.0;
  }
  return Quantile(counts, 0.9) * 1e3 / kRateWindowMs;
}

void Absorb(const Phase& phase, bool count, Report* report) {
  for (const ThreadLog* log : {&phase.reads, &phase.inserts, &phase.syncs}) {
    if (count) report->Attempted(log->ops);
    for (const std::string& f : log->failures) report->Failed(f);
    for (const std::string& w : log->wrong) report->Wrong(w);
  }
}

// Traced-run extras, after the measured phase with nothing else running:
// WAL bytes per INSERT, then the read path taken apart by layer.
void TraceAfterPhase(const Options& o, Mix* mix, Stack* stack,
                     WriteLayers* w, Report* report) {
  constexpr int kInserts = 200;
  ThreadLog log;
  const uint64_t wal0 = CounterValue("rel.wal.bytes_appended");
  for (int i = 0; i < kInserts; ++i) mix->Insert(&log);
  report->Attempted(log.ops);
  for (const std::string& f : log.failures) report->Failed(f);
  w->wal_bytes_per_insert =
      static_cast<double>(CounterValue("rel.wal.bytes_appended") - wal0) /
      kInserts;
  ReportWriteLayers(*w, report);

  std::vector<TracedKind> kinds(std::size(kReadKinds));
  std::vector<std::vector<size_t>> members(kinds.size());
  const std::vector<ReadText>& texts = mix->texts();
  for (size_t i = 0; i < texts.size(); ++i) {
    const int k = ReadKind(texts[i]);
    kinds[k].mode = texts[i].mode;
    kinds[k].texts.push_back(texts[i].text);
    members[k].push_back(i);
  }
  for (size_t k = 0; k < kinds.size(); ++k) {
    kinds[k].name = kReadKinds[k];
    kinds[k].check = [&texts, &members, k](size_t i, const srv::Response& r) {
      return CheckReadAnswer(texts[members[k][i]], r);
    };
  }
  // A third of the phase's length: the read kinds are fast.
  TraceRequestPath(kinds, std::max(1.0, o.seconds / 3.0), stack, report);
}

}  // namespace

void RunMixedRw(const Options& o, Clock::time_point t_main, Report* report) {
  const Clock::time_point gen = Clock::now();
  Inputs inputs = MakeInputs(o, /*with_release_b=*/true);
  std::vector<ReadText> texts;
  {
    Dom dom = BuildDom(inputs.flat);
    texts = MixedReadTexts(dom, TransformDocs(kEnzyme, inputs.enzyme_b_flat));
  }
  malloc_trim(0);
  const std::string db_dir =
      o.work_dir + "/mixed_rw-" + std::to_string(::getpid());
  const double gen_ms = MsSince(gen);
  const double rss0 = ResidentMib();
  Stack stack = OpenStack(
      inputs, db_dir,
      {"CREATE TABLE " + std::string(kNoteTable) + " (id INT, body TEXT)"},
      /*workers=*/kReadClients + 1, kCacheEntries);
  ReportSetup(o, stack, inputs, (MsSince(t_main) - gen_ms) / 1e3, report);

  {
    Mix mix(o, &stack, &inputs, std::move(texts));
    Absorb(mix.Run(kWarmupSeconds, 0), /*count=*/false, report);

    const uint64_t hits0 = CounterValue("server.cache.hits");
    const uint64_t misses0 = CounterValue("server.cache.misses");
    Phase phase = mix.Run(o.seconds, 1);
    const double rss = ResidentMib() - rss0;
    Absorb(phase, /*count=*/true, report);

    if (!o.trace) {
      // Reads per second: the readers are closed-loop, the writes run on
      // fixed schedules.
      ReportEndToEnd({{"read", phase.reads.latency_ms},
                      {"insert", phase.inserts.latency_ms},
                      {"sync", phase.syncs.latency_ms}},
                     WindowRateP90(phase.reads.done_ms, o.seconds), rss,
                     report);
    } else {
      WriteLayers w;
      w.cache_hits =
          static_cast<double>(CounterValue("server.cache.hits") - hits0);
      w.cache_lookups =
          w.cache_hits +
          static_cast<double>(CounterValue("server.cache.misses") - misses0);
      w.entries_lost_per_insert = phase.inserts.cache_entries_lost /
                                  static_cast<double>(phase.inserts.ops);
      w.entries_lost_per_sync = phase.syncs.cache_entries_lost /
                                static_cast<double>(phase.syncs.ops);
      w.garbage_versions_peak = static_cast<double>(
          std::max(phase.inserts.max_garbage, phase.syncs.max_garbage));
      TraceAfterPhase(o, &mix, &stack, &w, report);
    }

    // Every acknowledged INSERT is in the table, read through the server
    // with the cache bypassed.
    common::QueryOptions bypass;
    bypass.bypass_cache = true;
    srv::Response live = Must(
        mix.writer()->Execute(common::QueryRequest::Sql(
            "SELECT COUNT(*) FROM " + std::string(kNoteTable), bypass)),
        "count notes");
    std::string err = live.ok() ? CheckNoteCount(live.rows, mix.acked())
                                : "count notes: " + live.error;
    if (!err.empty()) report->Wrong(err);
    stack.Close();
    // ... and still there after reopening the database from its directory.
    {
      std::unique_ptr<rel::Database> db =
          Must(rel::Database::Open(db_dir), "reopen database");
      sql::SqlEngine engine(db.get());
      sql::QueryResult count = Must(
          engine.Execute("SELECT COUNT(*) FROM " + std::string(kNoteTable)),
          "count notes after reopen");
      std::string reopened = CheckNoteCount(count.rows, mix.acked());
      if (!reopened.empty()) report->Wrong("after reopen: " + reopened);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(db_dir, ec);
}

}  // namespace xqbench
