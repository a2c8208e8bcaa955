// The traced run of a workload's request path. Each request is taken
// apart into the layers it passes through by calling each module's public
// functions from here (nothing inside the program is changed):
//   front end   xq::ParseXQuery + Xq2SqlTranslator::Translate (XQuery) or
//               sql::ParseStatement (SQL)
//   plan        SqlEngine::Plan of each statement
//   execute     SqlEngine::ExecuteSelectStmtBatched, with XomatiQ's
//               set-semantic union for XQuery; again on an engine whose
//               executor has a zero-width worker pool (serial)
//   encode      XML re-tagging (XQ_XML) + srv::EncodeResponseBody
//   decode      srv::DecodeResponse
//   wire        a client round trip minus the server's own
//               server.request_latency_us
// and the same request timed whole through XomatiQ::Execute or
// SqlEngine::Execute. Per kind the medians are taken; the reported
// metrics are geometric means over the workload's kinds, so each kind
// weighs alike whatever its size.

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "bench.h"
#include "client/client.h"
#include "common/query_log.h"
#include "exec/worker_pool.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "xml/writer.h"
#include "xomatiq/xq2sql.h"
#include "xomatiq/xq_parser.h"

namespace xqbench {

namespace {

// Range (layers summed) / (whole request) must fall in for every kind
// whose whole request takes at least kShareCheckMinMs. A 30-s traced run
// holds about 14 pairs of rounds of the Fig queries; over runs of the
// same code Fig 9's share read 0.92-1.03 and Fig 11's 0.93-0.99.
// Requests under kShareCheckMinMs are not checked: fixed costs outside
// any layer (query-log record, snapshot pin, row vector) and the caches
// the previous call left are a large part of them (a 30-75 us SQL point
// lookup's layers read 0.61-1.56 of it, a 0.6-ms SUM's 0.77-1.35).
constexpr double kLayerShareMin = 0.85;
constexpr double kLayerShareMax = 1.15;
constexpr double kShareCheckMinMs = 1.0;

struct KindSamples {
  std::vector<double> frontend_us, plan_us, execute_ms, serial_ms, whole_ms,
      layer_sum_ms, encode_us, decode_us, wire_us;
  uint64_t examined = 0, result_rows = 0, tasks = 0, requests = 0;
  double execute_ns = 0;
};

bool IsXq(common::QueryMode mode) { return mode != common::QueryMode::kSql; }

// (layers summed) / (whole request), as the median over pairs of
// consecutive rounds. The rounds alternate which of the two runs first,
// and the first runs on the caches the previous kind left behind, so one
// request's ratio is too low or too high by that; a pair holds one of
// each, and a slow stretch of the host moves both of its halves alike.
double LayerShare(const KindSamples& s) {
  std::vector<double> pairs;
  for (size_t i = 0; i + 1 < s.whole_ms.size(); i += 2) {
    pairs.push_back((s.layer_sum_ms[i] + s.layer_sum_ms[i + 1]) /
                    (s.whole_ms[i] + s.whole_ms[i + 1]));
  }
  return Median(pairs);
}

class RequestTracer {
 public:
  RequestTracer(const std::vector<TracedKind>& kinds, Stack* stack,
                Report* report)
      : kinds_(kinds),
        stack_(stack),
        report_(report),
        xomatiq_(stack->xomatiq()),
        engine_(xomatiq_->engine()),
        translator_(stack->warehouse.get()),
        zero_pool_(0),
        serial_(stack->db.get(), SerialOptions(&zero_pool_)),
        client_(Must(cli::Client::Connect("127.0.0.1", stack->server->port()),
                     "connect tracer")),
        samples_(kinds.size()) {}

  // One request of each kind: text r mod size. Rounds alternate whether
  // the whole request or its layers run first, and every two rounds
  // whether the serial or the default engine executes first, so each
  // pair of rounds the add-up check takes holds one order of each.
  void Round(size_t r, bool record) {
    for (size_t k = 0; k < kinds_.size(); ++k) {
      Trace(k, r % kinds_[k].texts.size(), record, r % 2 == 0, r / 2 % 2 == 0);
    }
  }

  void ReportMetrics() {
    std::map<std::string, std::vector<double>> per_kind;
    uint64_t tasks = 0, requests = 0;
    double execute_ns = 0, examined = 0;
    for (size_t k = 0; k < kinds_.size(); ++k) {
      const KindSamples& s = samples_[k];
      const double whole = Median(s.whole_ms);
      const double share = LayerShare(s);
      std::fprintf(stderr,
                   "trace %s: %zu requests, whole %.4g ms = front end %.4g us "
                   "+ execute %.4g ms (share %.3f); plan %.4g us, serial "
                   "%.4g ms, encode %.4g us, decode %.4g us, wire %.4g us\n",
                   kinds_[k].name.c_str(), s.whole_ms.size(), whole,
                   Median(s.frontend_us), Median(s.execute_ms), share,
                   Median(s.plan_us), Median(s.serial_ms), Median(s.encode_us),
                   Median(s.decode_us), Median(s.wire_us));
      // The add-up check: the layers must account for the whole request.
      if (whole >= kShareCheckMinMs &&
          (share < kLayerShareMin || share > kLayerShareMax)) {
        report_->Wrong(kinds_[k].name + ": the layers add up to " +
                       std::to_string(share) + " of the whole request");
      }
      per_kind["frontend"].push_back(Median(s.frontend_us));
      per_kind["plan"].push_back(Median(s.plan_us));
      per_kind["execute"].push_back(Median(s.execute_ms));
      per_kind["serial"].push_back(Median(s.serial_ms));
      per_kind["whole"].push_back(whole);
      per_kind["share"].push_back(share);
      per_kind["encode"].push_back(Median(s.encode_us));
      per_kind["decode"].push_back(Median(s.decode_us));
      per_kind["wire"].push_back(Median(s.wire_us));
      per_kind["examined"].push_back(
          static_cast<double>(s.examined) /
          static_cast<double>(std::max<uint64_t>(1, s.result_rows)));
      tasks += s.tasks;
      requests += s.requests;
      execute_ns += s.execute_ns;
      examined += static_cast<double>(s.examined);
    }
    report_->Metric("frontend.parse_translate_us", GeoMean(per_kind["frontend"]),
                    "us");
    report_->Metric("sql.plan_us", GeoMean(per_kind["plan"]), "us");
    report_->Metric("sql.execute_ms", GeoMean(per_kind["execute"]), "ms");
    report_->Metric("sql.rows_examined_per_result",
                    GeoMean(per_kind["examined"]), "rows/row");
    report_->Metric("relational.ns_per_row_examined",
                    execute_ns / std::max(1.0, examined), "ns");
    report_->Metric("exec.tasks_per_query",
                    static_cast<double>(tasks) /
                        static_cast<double>(std::max<uint64_t>(1, requests)),
                    "tasks");
    report_->Metric("exec.serial_execute_ms", GeoMean(per_kind["serial"]),
                    "ms");
    report_->Metric("exec.parallel_over_serial",
                    GeoMean(per_kind["execute"]) / GeoMean(per_kind["serial"]),
                    "ratio");
    report_->Metric("server.encode_us", GeoMean(per_kind["encode"]), "us");
    report_->Metric("client.decode_us", GeoMean(per_kind["decode"]), "us");
    report_->Metric("server.wire_overhead_us", GeoMean(per_kind["wire"]), "us");
    report_->Metric("engine.whole_ms", GeoMean(per_kind["whole"]), "ms");
    report_->Metric("engine.layer_sum_share", GeoMean(per_kind["share"]),
                    "ratio");
  }

 private:
  static sql::EngineOptions SerialOptions(exec::WorkerPool* pool) {
    sql::EngineOptions options;
    options.executor.pool = pool;
    return options;
  }

  // The request whole, through the engine's public entry point. For
  // XQuery the rows are kept for the XML re-tagging.
  double Whole(const TracedKind& kind, const std::string& text,
               srv::Response* resp, std::optional<xq::XqResult>* xq_result) {
    const Clock::time_point t0 = Clock::now();
    if (IsXq(kind.mode)) {
      common::Result<xq::XqResult> r =
          xomatiq_->Execute(common::QueryRequest{kind.mode, text, {}, std::nullopt});
      const double ms = MsSince(t0);
      if (!r.ok()) {
        resp->code = r.status().code();
        resp->error = r.status().ToString();
        return ms;
      }
      resp->kind = srv::PayloadKind::kRows;
      resp->columns = r->columns;
      resp->rows = r->rows;
      *xq_result = *std::move(r);
      return ms;
    }
    common::Result<sql::QueryResult> r =
        engine_->Execute(common::QueryRequest::Sql(text));
    const double ms = MsSince(t0);
    if (!r.ok()) {
      resp->code = r.status().code();
      resp->error = r.status().ToString();
      return ms;
    }
    resp->kind = srv::PayloadKind::kRows;
    for (const rel::Column& col : r->schema.columns()) {
      resp->columns.push_back(col.name);
    }
    resp->rows = std::move(r->rows);
    return ms;
  }

  struct LayerTimes {
    double frontend_us = 0, plan_us = 0, execute_ms = 0, serial_ms = 0;
    uint64_t examined = 0, tasks = 0;
    size_t rows = 0;
  };

  // The same request layer by layer, under one snapshot and the armed
  // query-log scope the whole path opens (while it is armed the engine
  // also fingerprints each plan and collects operator statistics).
  LayerTimes Layers(const TracedKind& kind, const std::string& text,
                    bool serial_first) {
    LayerTimes lt;
    rel::Snapshot snap = stack_->db->BeginSnapshot();
    common::QueryLogScope qlog(text, IsXq(kind.mode) ? "xquery" : "sql");
    std::vector<std::shared_ptr<const sql::SelectStmt>> stmts;
    Clock::time_point t = Clock::now();
    if (IsXq(kind.mode)) {
      xq::XQueryAst ast = Must(xq::ParseXQuery(text), "parse " + kind.name);
      xq::Translation tr = Must(translator_.Translate(ast, snap.epoch()),
                                "translate " + kind.name);
      stmts = std::move(tr.stmts);
    } else {
      sql::Statement stmt = Must(sql::ParseStatement(text), "parse " + text);
      stmts.push_back(
          std::make_shared<const sql::SelectStmt>(std::move(stmt.select)));
    }
    lt.frontend_us = UsSince(t);
    t = Clock::now();
    for (const auto& stmt : stmts) Must(engine_->Plan(*stmt), "plan");
    lt.plan_us = UsSince(t);

    auto execute = [&](sql::SqlEngine* engine) {
      // XQuery disjuncts are unioned with set semantics, as
      // XomatiQ::Execute does; SQL rows are taken as they come.
      std::set<rel::CompositeKey, rel::CompositeKeyLess> seen;
      size_t rows = 0;
      const sql::Executor::BatchSink sink = [&](rel::RowBatch& batch) {
        for (size_t i = 0; i < batch.size(); ++i) {
          if (!IsXq(kind.mode) || seen.insert(batch.row(i)).second) ++rows;
        }
        return true;
      };
      for (const auto& stmt : stmts) {
        Must(engine->ExecuteSelectStmtBatched(*stmt, sink, {}, snap.epoch())
                 .status(),
             "execute " + kind.name);
      }
      return rows;
    };
    size_t serial_rows = 0;
    auto run_serial = [&] {
      const Clock::time_point t0 = Clock::now();
      serial_rows = execute(&serial_);
      lt.serial_ms = MsSince(t0);
    };
    // Whichever engine runs second finds the data in the caches the first
    // left, so the order alternates.
    if (serial_first) run_serial();
    const uint64_t examined0 = RowsExamined();
    const uint64_t tasks0 = CounterValue("exec.pool.tasks");
    t = Clock::now();
    lt.rows = execute(engine_);
    lt.execute_ms = MsSince(t);
    lt.examined = RowsExamined() - examined0;
    lt.tasks = CounterValue("exec.pool.tasks") - tasks0;
    if (!serial_first) run_serial();
    if (serial_rows != lt.rows) {
      report_->Wrong(kind.name + ": the serial engine returned " +
                     std::to_string(serial_rows) + " rows, the default " +
                     std::to_string(lt.rows));
    }
    return lt;
  }

  // "" when `r` is the right answer to text `i` of kind `k`: the first
  // answer to each text is checked in full, later ones must equal it.
  std::string Check(size_t k, size_t i, const srv::Response& r) {
    auto key = std::make_pair(k, i);
    auto it = reference_.find(key);
    if (it != reference_.end() && SameAnswer(it->second, r)) return "";
    std::string err = kinds_[k].check(i, r);
    if (err.empty()) reference_[key] = r;
    return err;
  }

  void Trace(size_t k, size_t i, bool record, bool whole_first,
             bool serial_first) {
    const TracedKind& kind = kinds_[k];
    const std::string& text = kind.texts[i];
    report_->Attempted();
    srv::Response resp;
    std::optional<xq::XqResult> xq_result;
    double whole_ms = 0;
    LayerTimes lt;
    // Alternate which goes first, so neither always runs on the caches
    // the previous request left behind.
    if (whole_first) {
      whole_ms = Whole(kind, text, &resp, &xq_result);
      lt = Layers(kind, text, serial_first);
    } else {
      lt = Layers(kind, text, serial_first);
      whole_ms = Whole(kind, text, &resp, &xq_result);
    }
    if (!resp.ok()) {
      return report_->Failed(kind.name + ": " + resp.error);
    }
    if (lt.rows != resp.rows.size()) {
      report_->Wrong(kind.name + ": layered execution returned " +
                     std::to_string(lt.rows) + " rows, the whole request " +
                     std::to_string(resp.rows.size()));
    }

    // Encode as the server does (XQ_XML answers are re-tagged first),
    // then decode as the client does.
    Clock::time_point t = Clock::now();
    if (kind.mode == common::QueryMode::kXqXml) {
      resp.kind = srv::PayloadKind::kXml;
      resp.text = xml::WriteXml(xomatiq_->ResultsAsXml(*xq_result));
      resp.columns.clear();
      resp.rows.clear();
    }
    const std::string body = srv::EncodeResponseBody(resp);
    const double encode_us = UsSince(t);
    const std::string frame = srv::EncodeResponse(resp);
    t = Clock::now();
    srv::Response decoded = Must(srv::DecodeResponse(frame), "decode");
    const double decode_us = UsSince(t);
    std::string err = Check(k, i, decoded);
    if (!err.empty()) report_->Wrong(err);

    // The same request through the server, cache bypassed.
    common::QueryOptions bypass;
    bypass.bypass_cache = true;
    const uint64_t sum0 = HistogramSumNs("server.request_latency_us");
    const uint64_t n0 = HistogramCount("server.request_latency_us");
    t = Clock::now();
    common::Result<srv::Response> served =
        client_.Execute(common::QueryRequest{kind.mode, text, bypass, std::nullopt});
    const double rtt_us = UsSince(t);
    if (!served.ok()) {
      return report_->Failed(kind.name + ": " + served.status().ToString());
    }
    if (!served->ok()) return report_->Failed(kind.name + ": " + served->error);
    err = Check(k, i, *served);
    if (!err.empty()) report_->Wrong("served: " + err);
    const uint64_t served_n = HistogramCount("server.request_latency_us") - n0;
    const double server_us =
        static_cast<double>(HistogramSumNs("server.request_latency_us") - sum0) /
        1e3 / static_cast<double>(std::max<uint64_t>(1, served_n));

    if (!record) return;
    KindSamples& s = samples_[k];
    s.frontend_us.push_back(lt.frontend_us);
    s.plan_us.push_back(lt.plan_us);
    s.execute_ms.push_back(lt.execute_ms);
    s.serial_ms.push_back(lt.serial_ms);
    s.whole_ms.push_back(whole_ms);
    s.layer_sum_ms.push_back(lt.frontend_us / 1e3 + lt.execute_ms);
    s.encode_us.push_back(encode_us);
    s.decode_us.push_back(decode_us);
    s.wire_us.push_back(rtt_us - server_us);
    s.examined += lt.examined;
    s.result_rows += lt.rows;
    s.tasks += lt.tasks;
    s.execute_ns += lt.execute_ms * 1e6;
    ++s.requests;
  }

  const std::vector<TracedKind>& kinds_;
  Stack* stack_;
  Report* report_;
  xq::XomatiQ* xomatiq_;
  sql::SqlEngine* engine_;
  xq::Xq2SqlTranslator translator_;
  exec::WorkerPool zero_pool_;
  sql::SqlEngine serial_;
  cli::Client client_;
  std::vector<KindSamples> samples_;
  std::map<std::pair<size_t, size_t>, srv::Response> reference_;
};

}  // namespace

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void TraceRequestPath(const std::vector<TracedKind>& kinds, double seconds,
                      Stack* stack, Report* report) {
  RequestTracer tracer(kinds, stack, report);
  size_t r = 0;
  // Warm-up: two rounds, one in each order.
  tracer.Round(r++, false);
  tracer.Round(r++, false);
  const Clock::time_point start = Clock::now();
  do {
    tracer.Round(r++, true);
  } while (MsSince(start) < seconds * 1e3);
  tracer.ReportMetrics();
}

}  // namespace xqbench
