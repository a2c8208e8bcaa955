// Workload sql_scan: one closed-loop client runs uncached ad-hoc SQL over
// the shredded tables, cycling through a fixed parameter sequence:
// COUNT(*) with a predicate over xml_node, GROUP BY depth, LIKE over
// xml_text and SUM("length") over xml_sequence. The traced run takes the
// same statements apart layer by layer (layers.cc), with the default
// worker pool and with a zero-width one.

#include <malloc.h>

#include <map>

#include "bench.h"
#include "client/client.h"

namespace xqbench {

namespace {

constexpr double kWarmupSeconds = 2.0;
// Distinct rounds of the parameter sequence (see ScanRounds).
constexpr size_t kScanRounds = 6;

void ServeSqlScan(const Options& o, Stack* stack,
                  const std::vector<std::vector<ScanQuery>>& rounds,
                  double rss0, Report* report) {
  cli::Client client = Must(
      cli::Client::Connect("127.0.0.1", stack->server->port()), "connect");
  common::QueryOptions opts;
  opts.bypass_cache = true;
  std::map<std::string, std::vector<double>> latencies;
  auto run_round = [&](size_t r, bool record) {
    for (const ScanQuery& q : rounds[r % rounds.size()]) {
      const Clock::time_point t0 = Clock::now();
      common::Result<srv::Response> resp =
          client.Execute(common::QueryRequest::Sql(q.sql, opts));
      const double ms = MsSince(t0);
      if (record) report->Attempted();
      if (!resp.ok()) {
        report->Failed(q.sql + ": " + resp.status().ToString());
        continue;
      }
      if (!resp->ok()) {
        report->Failed(q.sql + ": " + resp->error);
        continue;
      }
      if (record) latencies[q.name].push_back(ms);
      std::string err = CheckScanAnswer(q, *resp);
      if (!err.empty()) report->Wrong(err);
    }
  };

  size_t r = 0;
  const Clock::time_point warm = Clock::now();
  do {
    run_round(r++, false);
  } while (MsSince(warm) < kWarmupSeconds * 1e3);

  // Durations of each distinct round (parameter set), in ms.
  std::vector<std::vector<double>> round_ms(rounds.size());
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    run_round(r, true);
    round_ms[r % rounds.size()].push_back(MsSince(t0));
    ++r;
  } while (MsSince(start) < o.seconds * 1e3);
  const double rss = ResidentMib() - rss0;

  // Statements per second over one pass of every parameter set, each
  // round at its 10th-percentile duration: the rate while the host is
  // quiet, as the p10 latencies are the latency then.
  double cycle_ms = 0;
  size_t cycle_statements = 0;
  for (size_t k = 0; k < rounds.size(); ++k) {
    cycle_ms += Quantile(round_ms[k], 0.1);
    cycle_statements += rounds[k].size();
  }
  KindLatencies kinds;
  for (const ScanQuery& q : rounds.front()) {
    kinds.push_back({q.name, latencies[q.name]});
  }
  ReportEndToEnd(kinds,
                 static_cast<double>(cycle_statements) / (cycle_ms / 1e3), rss,
                 report);
}

void TraceSqlScan(const Options& o, Stack* stack,
                  const std::vector<std::vector<ScanQuery>>& rounds,
                  Report* report) {
  // Kind k of every round: text i is the statement of parameter set i.
  std::vector<TracedKind> kinds;
  for (size_t k = 0; k < rounds.front().size(); ++k) {
    TracedKind kind;
    kind.name = rounds.front()[k].name;
    kind.mode = common::QueryMode::kSql;
    for (const auto& round : rounds) kind.texts.push_back(round[k].sql);
    kind.check = [&rounds, k](size_t i, const srv::Response& r) {
      return CheckScanAnswer(rounds[i][k], r);
    };
    kinds.push_back(std::move(kind));
  }
  TraceRequestPath(kinds, o.seconds, stack, report);
  // No writes, and the cache is bypassed.
  ReportWriteLayers({}, report);
}

}  // namespace

void RunSqlScan(const Options& o, Clock::time_point t_main, Report* report) {
  const Clock::time_point gen = Clock::now();
  Inputs inputs = MakeInputs(o, /*with_release_b=*/false);
  std::vector<std::vector<ScanQuery>> rounds;
  {
    Dom dom = BuildDom(inputs.flat);
    rounds = ScanRounds(dom, inputs.corpus, kScanRounds);
  }
  malloc_trim(0);
  const double gen_ms = MsSince(gen);
  const double rss0 = ResidentMib();
  Stack stack = OpenStack(inputs, "", {}, /*workers=*/1, /*cache_entries=*/64);
  ReportSetup(o, stack, inputs, (MsSince(t_main) - gen_ms) / 1e3, report);
  if (o.trace) {
    TraceSqlScan(o, &stack, rounds, report);
  } else {
    ServeSqlScan(o, &stack, rounds, rss0, report);
  }
  stack.Close();
}

}  // namespace xqbench
