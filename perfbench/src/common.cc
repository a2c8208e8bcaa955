// Options-independent plumbing: statistics, the result line, seeded
// inputs and the loaded stack.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <unistd.h>

#include "bench.h"
#include "common/metrics.h"
#include "sql/engine.h"

namespace xqbench {

double Quantile(const std::vector<double>& samples, double q) {
  return common::PercentileOfSamples(samples, q);
}

double ResidentMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t CounterValue(const char* name) {
  return common::MetricsRegistry::Global().GetCounter(name)->Value();
}
int64_t GaugeValue(const char* name) {
  return common::MetricsRegistry::Global().GetGauge(name)->Value();
}
uint64_t HistogramSumNs(const char* name) {
  return common::MetricsRegistry::Global().GetHistogram(name)->SumNs();
}
uint64_t HistogramCount(const char* name) {
  return common::MetricsRegistry::Global().GetHistogram(name)->Count();
}
uint64_t RowsExamined() {
  return CounterValue("rel.table.rows_scanned") +
         CounterValue("rel.table.rows_fetched") +
         CounterValue("rel.inverted.postings_scanned");
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Die("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit}});
}

void Report::Wrong(const std::string& what) {
  correct_ = false;
  if (wrong_printed_++ < 10) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

void Report::Failed(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].second.first);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "xqbench: %s\n", what.c_str());
  std::exit(1);
}

const char* CollectionName(int source) {
  static const char* kNames[kNumSources] = {"hlx_enzyme.DEFAULT",
                                            "hlx_embl.inv", "hlx_sprot.all"};
  return kNames[source];
}

const hounds::XmlTransformer& TransformerFor(int source) {
  static const hounds::EnzymeXmlTransformer kEnzymeTf;
  static const hounds::EmblXmlTransformer kEmblTf;
  static const hounds::SwissProtXmlTransformer kSprotTf;
  switch (source) {
    case kEnzyme:
      return kEnzymeTf;
    case kEmbl:
      return kEmblTf;
    default:
      return kSprotTf;
  }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

const std::vector<std::string>& Substrates() {
  static const auto* kWords = new std::vector<std::string>{
      "alcohol", "glucose",  "pyruvate", "alanine",   "glycerol",
      "lactate", "citrate",  "malate",   "glutamate", "fructose",
      "succinate", "histidine", "aspartate"};
  return *kWords;
}

const std::vector<std::string>& Actions() {
  static const auto* kWords = new std::vector<std::string>{
      "dehydrogenase", "kinase",    "oxidase",     "transferase",
      "hydrolase",     "ligase",    "isomerase",   "reductase",
      "synthase",      "peptidase", "phosphatase", "carboxylase"};
  return *kWords;
}

namespace {

constexpr char kKeyword[] = "cdc6";
constexpr char kProteinKeywordSuffix[] =
    " involved in cdc6 dependent replication licensing";
constexpr char kNucleotideKeywordSuffix[] = "; cell division cycle protein cdc6";

void EraseValue(std::vector<std::string>* v, const std::string& value) {
  v->erase(std::remove(v->begin(), v->end(), value), v->end());
}

void EraseSuffix(std::string* s, const std::string& suffix) {
  size_t at = s->find(suffix);
  if (at != std::string::npos) s->erase(at, suffix.size());
}

template <typename Rng>
std::vector<size_t> ShuffledIndexes(size_t n, Rng* rng) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), *rng);
  return idx;
}

flatfile::EmblFeature* CdsOf(flatfile::EmblEntry* n) {
  for (auto& f : n->features) {
    if (f.key == "CDS") return &f;
  }
  return nullptr;
}

void SetKetone(flatfile::EnzymeEntry* e, bool ketone, const std::string& alt) {
  std::string& activity = e->catalytic_activities.front();
  size_t eq = activity.find(" = ");
  activity = activity.substr(0, eq + 3) +
             (ketone ? std::string("ketone body + NADH") : alt + " + NADH");
}

bool HasKetone(const flatfile::EnzymeEntry& e) {
  for (const auto& a : e.catalytic_activities) {
    if (a.find("ketone") != std::string::npos) return true;
  }
  return false;
}

// Re-plants the keyword, ketone and EC-link properties on exactly the
// configured share of entries (the generator draws each one at random, so
// their counts, and with them Fig 8's cross product, vary by seed).
void NormalizeCorpus(datagen::Corpus* c, std::mt19937_64* rng) {
  auto pick = [&](const std::vector<std::string>& words) {
    return words[(*rng)() % words.size()];
  };
  // Strip every planted property.
  for (auto& p : c->proteins) {
    EraseValue(&p.keywords, kKeyword);
    EraseValue(&p.gene_names, kKeyword);
    EraseSuffix(&p.description, kProteinKeywordSuffix);
  }
  for (auto& n : c->nucleotides) {
    EraseValue(&n.keywords, kKeyword);
    EraseSuffix(&n.description, kNucleotideKeywordSuffix);
    flatfile::EmblFeature* cds = CdsOf(&n);
    if (cds == nullptr) Die("generated EMBL entry without CDS feature");
    auto& q = cds->qualifiers;
    q.erase(std::remove_if(q.begin(), q.end(),
                           [](const flatfile::EmblQualifier& x) {
                             return x.name == "EC_number" ||
                                    (x.name == "gene" && x.value == kKeyword);
                           }),
            q.end());
    n.description = pick(Substrates()) + " gene, partial cds";
  }
  for (auto& e : c->enzymes) {
    if (HasKetone(e)) SetKetone(&e, false, pick(Substrates()));
  }
  // Plant each on an exact share of seeded picks.
  const size_t kw_p = (c->proteins.size() * 5 + 50) / 100;
  const size_t kw_n = (c->nucleotides.size() * 5 + 50) / 100;
  const size_t ketone = (c->enzymes.size() * 10 + 50) / 100;
  const size_t ec = (c->nucleotides.size() * 40 + 50) / 100;
  std::vector<size_t> idx = ShuffledIndexes(c->proteins.size(), rng);
  for (size_t i = 0; i < kw_p; ++i) {
    auto& p = c->proteins[idx[i]];
    p.description += kProteinKeywordSuffix;
    p.keywords.insert(p.keywords.begin(), kKeyword);
    p.gene_names.push_back(kKeyword);
  }
  idx = ShuffledIndexes(c->nucleotides.size(), rng);
  for (size_t i = 0; i < ec && !c->enzymes.empty(); ++i) {
    auto& n = c->nucleotides[idx[i]];
    const auto& enzyme = c->enzymes[(*rng)() % c->enzymes.size()];
    auto& q = CdsOf(&n)->qualifiers;
    q.insert(q.begin(), {"EC_number", enzyme.id});
    n.description = "gene for " + enzyme.descriptions.front();
  }
  idx = ShuffledIndexes(c->nucleotides.size(), rng);
  for (size_t i = 0; i < kw_n; ++i) {
    auto& n = c->nucleotides[idx[i]];
    CdsOf(&n)->qualifiers.push_back({"gene", kKeyword});
    n.keywords.insert(n.keywords.begin(), kKeyword);
    n.description += kNucleotideKeywordSuffix;
  }
  idx = ShuffledIndexes(c->enzymes.size(), rng);
  for (size_t i = 0; i < ketone; ++i) {
    SetKetone(&c->enzymes[idx[i]], true, "");
  }
  c->proteins_with_keyword = kw_p;
  c->nucleotides_with_keyword = kw_n;
  c->enzymes_with_ketone = ketone;
  c->nucleotides_with_ec_link = c->enzymes.empty() ? 0 : ec;
}

// Release B of ENZYME: 10% of entries updated (ketone toggled, new
// description), 1% removed, 1% added.
std::vector<flatfile::EnzymeEntry> ReleaseB(
    const std::vector<flatfile::EnzymeEntry>& a, std::mt19937_64* rng,
    size_t* changed) {
  auto pick = [&](const std::vector<std::string>& words) {
    return words[(*rng)() % words.size()];
  };
  const size_t updated = (a.size() * 10 + 50) / 100;
  const size_t removed = std::max<size_t>(1, (a.size() + 50) / 100);
  const size_t added = removed;
  std::vector<size_t> idx = ShuffledIndexes(a.size(), rng);
  std::vector<flatfile::EnzymeEntry> b = a;
  for (size_t i = 0; i < updated; ++i) {
    auto& e = b[idx[i]];
    SetKetone(&e, !HasKetone(e), pick(Substrates()));
    e.descriptions.front() = pick(Substrates()) + " " + pick(Actions());
  }
  std::vector<bool> drop(a.size(), false);
  for (size_t i = updated; i < updated + removed; ++i) drop[idx[i]] = true;
  std::vector<flatfile::EnzymeEntry> out;
  for (size_t i = 0; i < b.size(); ++i) {
    if (!drop[i]) out.push_back(std::move(b[i]));
  }
  for (size_t i = 0; i < added; ++i) {
    flatfile::EnzymeEntry e;
    // EC class 7 is never generated, so the ids are new.
    e.id = "7." + std::to_string(1 + (*rng)() % 20) + "." +
           std::to_string(1 + (*rng)() % 30) + "." + std::to_string(i + 1);
    std::string substrate = pick(Substrates());
    e.descriptions.push_back(substrate + " " + pick(Actions()));
    e.catalytic_activities.push_back(substrate + " + NAD(+) = " +
                                     pick(Substrates()) + " + NADH");
    out.push_back(std::move(e));
  }
  *changed = updated + removed + added;
  return out;
}

template <typename T>
std::vector<T> Slice(const std::vector<T>& all, size_t k, size_t slices) {
  size_t begin = all.size() * k / slices;
  size_t end = all.size() * (k + 1) / slices;
  return std::vector<T>(all.begin() + begin, all.begin() + end);
}

}  // namespace

Inputs MakeInputs(const Options& options, bool with_release_b) {
  Inputs in;
  datagen::CorpusOptions co;
  co.seed = options.seed;
  co.num_nucleotides = options.entries;
  co.num_proteins = (2 * options.entries) / 3;
  co.num_enzymes = options.entries / 3;
  co.keyword_fraction = 0.05;
  co.ketone_fraction = 0.10;
  co.ec_link_fraction = 0.40;
  in.corpus = datagen::GenerateCorpus(co);
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ull + 1);
  NormalizeCorpus(&in.corpus, &rng);
  in.flat[kEnzyme] = datagen::ToEnzymeFlatFile(in.corpus);
  in.flat[kEmbl] = datagen::ToEmblFlatFile(in.corpus);
  in.flat[kSprot] = datagen::ToSwissProtFlatFile(in.corpus);
  for (size_t k = 0; k < kLoadSlices; ++k) {
    datagen::Corpus part;
    part.enzymes = Slice(in.corpus.enzymes, k, kLoadSlices);
    part.nucleotides = Slice(in.corpus.nucleotides, k, kLoadSlices);
    part.proteins = Slice(in.corpus.proteins, k, kLoadSlices);
    in.chunks.push_back({kEnzyme, datagen::ToEnzymeFlatFile(part)});
    in.chunks.push_back({kEmbl, datagen::ToEmblFlatFile(part)});
    in.chunks.push_back({kSprot, datagen::ToSwissProtFlatFile(part)});
  }
  for (const LoadChunk& c : in.chunks) in.load_bytes += c.text.size();
  if (with_release_b) {
    in.enzymes_b =
        ReleaseB(in.corpus.enzymes, &rng, &in.release_changed_docs);
    datagen::Corpus b;
    b.enzymes = in.enzymes_b;
    in.enzyme_b_flat = datagen::ToEnzymeFlatFile(b);
  }
  return in;
}

// ---------------------------------------------------------------------
// Stack
// ---------------------------------------------------------------------

Stack OpenStack(const Inputs& inputs, const std::string& db_dir,
                const std::vector<std::string>& extra_sql, size_t workers,
                size_t cache_entries) {
  Stack s;
  if (db_dir.empty()) {
    s.db = rel::Database::OpenInMemory();
  } else {
    std::error_code ec;
    std::filesystem::remove_all(db_dir, ec);
    std::filesystem::create_directories(db_dir, ec);
    if (ec) Die("cannot create " + db_dir + ": " + ec.message());
    s.db = Must(rel::Database::Open(db_dir), "open database");
  }
  s.warehouse = Must(hounds::Warehouse::Open(s.db.get()), "open warehouse");
  const uint64_t wal0 = CounterValue("rel.wal.bytes_appended");
  const uint64_t transform0 = HistogramSumNs("hounds.stage.transform");
  for (const LoadChunk& chunk : inputs.chunks) {
    const uint64_t shred0 = HistogramSumNs("hounds.stage.shred");
    hounds::Warehouse::LoadStats stats =
        Must(s.warehouse->LoadSource(CollectionName(chunk.source),
                                     TransformerFor(chunk.source), chunk.text),
             "load");
    s.load.shred.push_back(
        {HistogramSumNs("hounds.stage.shred") - shred0, stats.nodes});
  }
  s.load.transform_ns = HistogramSumNs("hounds.stage.transform") - transform0;
  s.load.wal_bytes = CounterValue("rel.wal.bytes_appended") - wal0;
  sql::SqlEngine engine(s.db.get());
  for (const std::string& stmt : extra_sql) {
    Must(engine.Execute(stmt).status(), stmt);
  }
  s.cache = std::make_shared<srv::ResultCache>(cache_entries);
  srv::ServerOptions so;
  so.workers = workers;
  so.admin_port = -1;
  so.service.cache = s.cache;
  s.server = std::make_unique<srv::QueryServer>(s.warehouse.get(), so);
  Must(s.server->Start(), "start server");
  return s;
}

void Stack::Close() {
  if (server != nullptr) server->Shutdown();
  server.reset();
  warehouse.reset();
  db.reset();
}

void ReportSetup(const Options& options, const Stack& stack,
                 const Inputs& inputs, double setup_s, Report* report) {
  if (!options.trace) {
    report->Metric("setup_s", setup_s, "s");
    return;
  }
  const double mib = static_cast<double>(inputs.load_bytes) / (1 << 20);
  report->Metric("datahounds.transform_ms_per_mb",
                 static_cast<double>(stack.load.transform_ns) / 1e6 / mib,
                 "ms/MiB");
  // First and last tenth of the load: chunks of slice 0 and slice 9.
  auto per_node = [&](size_t first_chunk) {
    uint64_t ns = 0;
    size_t nodes = 0;
    for (size_t i = first_chunk; i < first_chunk + kNumSources; ++i) {
      ns += stack.load.shred[i].first;
      nodes += stack.load.shred[i].second;
    }
    return static_cast<double>(ns) / 1e3 / static_cast<double>(nodes);
  };
  report->Metric("datahounds.shred_us_per_node.first_tenth", per_node(0),
                 "us");
  report->Metric("datahounds.shred_us_per_node.last_tenth",
                 per_node(stack.load.shred.size() - kNumSources), "us");
  // 0 for the in-memory database, which keeps no WAL.
  report->Metric("relational.wal_bytes_per_input_byte",
                 static_cast<double>(stack.load.wal_bytes) /
                     static_cast<double>(inputs.load_bytes),
                 "ratio");
}

void ReportEndToEnd(const KindLatencies& kinds, double ops_per_s,
                    double resident_mib, Report* report) {
  // The 10th percentile: host interference only adds delay, and on a
  // shared host it moves the median by more than the bounds allow.
  std::vector<double> p10;
  for (const auto& [name, latencies] : kinds) {
    p10.push_back(Quantile(latencies, 0.1));
    std::fprintf(stderr, "%s: %zu operations, p10 %.4g ms, p50 %.4g ms\n",
                 name.c_str(), latencies.size(), p10.back(),
                 Quantile(latencies, 0.5));
  }
  report->Metric("latency_p10_ms", GeoMean(p10), "ms");
  report->Metric("ops_per_s", ops_per_s, "1/s");
  report->Metric("resident_mib", resident_mib, "MiB");
}

void ReportWriteLayers(const WriteLayers& w, Report* report) {
  report->Metric("server.cache_hit_ratio",
                 w.cache_lookups > 0 ? w.cache_hits / w.cache_lookups : 0.0,
                 "ratio");
  report->Metric("server.cache_lookups", w.cache_lookups, "count");
  report->Metric("server.cache_entries_lost_per_insert",
                 w.entries_lost_per_insert, "count");
  report->Metric("server.cache_entries_lost_per_sync", w.entries_lost_per_sync,
                 "count");
  report->Metric("relational.garbage_versions_peak", w.garbage_versions_peak,
                 "count");
  report->Metric("relational.wal_bytes_per_insert", w.wal_bytes_per_insert,
                 "bytes");
}

}  // namespace xqbench
