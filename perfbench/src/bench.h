#ifndef XOMATIQ_PERFBENCH_BENCH_H_
#define XOMATIQ_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: options, the result line,
// timing and statistics helpers, the seeded inputs, the loaded stack
// (database + warehouse + query server) and the DOM oracles that check
// every answer independently of the SQL path.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/native_xml.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"

namespace xqbench {

using namespace xomatiq;  // NOLINT: benchmark-local convenience

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
inline double UsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

// Exact quantile over raw samples (common::PercentileOfSamples).
double Quantile(const std::vector<double>& samples, double q);
inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

// Resident set size of this process, in MiB (/proc/self/statm).
double ResidentMib();

// Current value of a program counter / histogram sum in the process-wide
// MetricsRegistry (the engine's own instrumentation).
uint64_t CounterValue(const char* name);
int64_t GaugeValue(const char* name);
uint64_t HistogramSumNs(const char* name);
uint64_t HistogramCount(const char* name);
// rel.table.rows_scanned + rel.table.rows_fetched +
// rel.inverted.postings_scanned: every stored row or posting a query
// touched.
uint64_t RowsExamined();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  // EMBL entries; Swiss-Prot gets 2/3 and ENZYME 1/3 of this.
  size_t entries = 2000;
  // Directory for on-disk databases (mixed_rw); removed at exit.
  std::string work_dir = ".bench_build/run";
};

// Accumulates the run's outcome and renders the final JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A wrong answer: marks the run incorrect and says why on stderr.
  void Wrong(const std::string& what);
  // An operation that returned an error instead of an answer.
  void Failed(const std::string& what);
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  bool correct() const { return correct_; }
  std::string Json() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t wrong_printed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// Aborts the run (exit code 1, no result line) on a set-up error.
[[noreturn]] void Die(const std::string& what);

template <typename T>
T Must(common::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}
inline void Must(const common::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

inline constexpr int kEnzyme = 0;
inline constexpr int kEmbl = 1;
inline constexpr int kSprot = 2;
inline constexpr int kNumSources = 3;
const char* CollectionName(int source);

// Words the inputs draw ENZYME substrates and description actions from;
// the mixed_rw read texts search for the same words.
const std::vector<std::string>& Substrates();
const std::vector<std::string>& Actions();
const hounds::XmlTransformer& TransformerFor(int source);

// Number of slices each source is loaded in (the load runs slice i of
// every source before slice i + 1, so the first and last tenth of the
// load are comparable).
inline constexpr size_t kLoadSlices = 10;

struct LoadChunk {
  int source = kEnzyme;
  std::string text;  // flat-file entries of this slice
};

struct Inputs {
  // The corpus after NormalizeCorpus: exact keyword / ketone / EC-link
  // counts whatever the seed, so query cardinalities do not vary by seed.
  datagen::Corpus corpus;
  // Full flat files per source (release A).
  std::string flat[kNumSources];
  // Interleaved slices of release A, in load order.
  std::vector<LoadChunk> chunks;
  size_t load_bytes = 0;
  // mixed_rw: the second ENZYME release and its full flat file. The
  // documents that differ between A and B (updated + added + removed).
  std::vector<flatfile::EnzymeEntry> enzymes_b;
  std::string enzyme_b_flat;
  size_t release_changed_docs = 0;
};

Inputs MakeInputs(const Options& options, bool with_release_b);

// ---------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------

struct LoadTrace {
  uint64_t transform_ns = 0;  // hounds.stage.transform over the load
  uint64_t wal_bytes = 0;     // rel.wal.bytes_appended over the load
  // Per chunk: hounds.stage.shred time and shredded nodes.
  std::vector<std::pair<uint64_t, size_t>> shred;
};

struct Stack {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<hounds::Warehouse> warehouse;
  std::shared_ptr<srv::ResultCache> cache;
  std::unique_ptr<srv::QueryServer> server;
  LoadTrace load;

  xq::XomatiQ* xomatiq() { return server->service()->xomatiq(); }
  // Stops the server, then releases warehouse and database (in order).
  void Close();
};

// Loads release A into a fresh database (in memory when `db_dir` is
// empty, else on disk with the default WAL policy), runs `extra_sql`
// (set-up DDL), and starts a QueryServer with `workers` request threads
// and a result cache of `cache_entries`.
Stack OpenStack(const Inputs& inputs, const std::string& db_dir,
                const std::vector<std::string>& extra_sql, size_t workers,
                size_t cache_entries);

// ---------------------------------------------------------------------
// Answers and their oracles
// ---------------------------------------------------------------------

// A row as one string: values joined by '\x1f'. Canonical answers are
// sorted row lists (duplicates kept, so a repeated row is a difference).
using Rows = std::vector<std::string>;
Rows CanonicalRows(const std::vector<rel::Tuple>& rows);
// Rows of an XQ_XML response: one per row element under the root, its
// child elements' text in order.
common::Result<Rows> RowsFromXml(const std::string& xml_text);
// "" when equal, else a short description of the first difference.
std::string DiffRows(const Rows& want, const Rows& got);
uint64_t Fingerprint(const Rows& rows);
// Byte-for-byte the same answer (kind, columns, rows, text).
bool SameAnswer(const srv::Response& a, const srv::Response& b);

// Transformed documents of each source, held by the DOM evaluator the
// oracles query and walk.
struct Dom {
  baseline::NativeXmlStore store;
  const std::vector<xml::XmlDocument>& docs(int source) const {
    return store.Docs(CollectionName(source));
  }
};
Dom BuildDom(const std::string flat[kNumSources]);
std::vector<xml::XmlDocument> TransformDocs(int source,
                                            const std::string& flat);

// The paper's queries and their expected answers.
struct PaperQuery {
  std::string name;  // fig8 | fig9 | fig11 | fig11_xml
  common::QueryMode mode = common::QueryMode::kXq;
  std::string text;
  Rows want;
  // Ground truth from the corpus generator: expected number of rows
  // (fig8, fig11) or of distinct enzyme ids (fig9).
  size_t truth = 0;
};
std::vector<PaperQuery> PaperQueries(const Dom& dom,
                                     const datagen::Corpus& corpus);
// Checks one answer (rows, or XML text for fig11_xml) against the query's
// oracle and ground truth; "" when right.
std::string CheckPaperAnswer(const PaperQuery& q, const srv::Response& r);

// Ad-hoc scans with answers from a DOM walk.
struct ScanQuery {
  std::string name;  // scan_count | scan_group | scan_like | scan_sum
  std::string sql;
  Rows want;
};
// One round of the fixed parameter sequence (round r picks parameters
// r mod k); `rounds` distinct rounds in total.
std::vector<std::vector<ScanQuery>> ScanRounds(const Dom& dom,
                                               const datagen::Corpus& corpus,
                                               size_t rounds);
std::string CheckScanAnswer(const ScanQuery& q, const srv::Response& r);

// mixed_rw reads: each text's answer fingerprint under ENZYME release A
// and release B (equal when the release change does not touch it).
struct ReadText {
  common::QueryMode mode = common::QueryMode::kXq;
  std::string text;
  uint64_t want[2] = {0, 0};
};
std::vector<ReadText> MixedReadTexts(const Dom& dom_a,
                                     const std::vector<xml::XmlDocument>&
                                         enzyme_b_docs);
std::string CheckReadAnswer(const ReadText& t, const srv::Response& r);

// mixed_rw writes: the annotation table's COUNT(*) answer must equal the
// number of acknowledged INSERTs.
inline constexpr char kNoteTable[] = "bench_note";
std::string CheckNoteCount(const std::vector<rel::Tuple>& count_rows,
                           uint64_t acked);

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

// Each returns normally with the report filled in.
void RunPaperQueries(const Options& options, Clock::time_point t_main,
                     Report* report);
void RunSqlScan(const Options& options, Clock::time_point t_main,
                Report* report);
void RunMixedRw(const Options& options, Clock::time_point t_main,
                Report* report);
// Checks that every answer check rejects a corrupted answer. Returns the
// process exit code.
int RunSelfTest();

// ---------------------------------------------------------------------
// Metrics every workload reports
// ---------------------------------------------------------------------
//
// Every workload prints the same metric names: the end-to-end ones sum
// up its operation kinds, the per-layer ones its layers, so a change is
// compared on each workload by the same yardstick.

double GeoMean(const std::vector<double>& values);

// Set-up metrics: setup_s (process start to server accepting, minus input
// generation), and with tracing the datahounds and WAL load layers.
void ReportSetup(const Options& options, const Stack& stack,
                 const Inputs& inputs, double setup_s, Report* report);

// Latencies in ms of each operation kind, by kind name.
using KindLatencies = std::vector<std::pair<std::string, std::vector<double>>>;

// The untraced run's other end-to-end metrics: latency_p10_ms, the
// geometric mean over the workload's operation kinds of each kind's 10th
// percentile latency (each kind's own is printed to stderr); ops_per_s,
// the workload's operation rate (each workload says how it is taken);
// resident_mib.
void ReportEndToEnd(const KindLatencies& kinds, double ops_per_s,
                    double resident_mib, Report* report);

// One kind of request of a workload, for the traced run: round r sends
// text r mod texts.size(); `check` says "" when a response is the right
// answer to text i.
struct TracedKind {
  std::string name;
  common::QueryMode mode = common::QueryMode::kXq;
  std::vector<std::string> texts;
  std::function<std::string(size_t i, const srv::Response&)> check;
};

// Traced run of the request path for `seconds`: rounds of one request of
// each kind, each taken apart layer by layer (layers.cc). Reports the
// request-path per-layer metrics; a wrong answer, or layers that do not
// add up to the whole request, mark the run wrong.
void TraceRequestPath(const std::vector<TracedKind>& kinds, double seconds,
                      Stack* stack, Report* report);

// Cache and write-path per-layer metrics, counted over a traced phase.
// A read-only workload that bypasses the cache has none of these events
// and reports the zeros of a default WriteLayers.
struct WriteLayers {
  double cache_hits = 0, cache_lookups = 0;
  double entries_lost_per_insert = 0, entries_lost_per_sync = 0;
  double garbage_versions_peak = 0;
  double wal_bytes_per_insert = 0;
};
void ReportWriteLayers(const WriteLayers& w, Report* report);

}  // namespace xqbench

#endif  // XOMATIQ_PERFBENCH_BENCH_H_
