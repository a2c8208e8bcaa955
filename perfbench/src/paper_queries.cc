// Workload paper_queries: one closed-loop client runs Fig 8, Fig 9,
// Fig 11 (rows) and Fig 11 (XQ_XML) in turn through the query server,
// with the result cache bypassed. The traced run takes the same queries
// apart layer by layer (layers.cc).

#include <malloc.h>

#include <optional>

#include "bench.h"
#include "client/client.h"

namespace xqbench {

namespace {

constexpr double kWarmupSeconds = 2.0;

void ServePaperQueries(const Options& o, Stack* stack,
                       const std::vector<PaperQuery>& queries, double rss0,
                       Report* report) {
  cli::Client client = Must(
      cli::Client::Connect("127.0.0.1", stack->server->port()), "connect");
  common::QueryOptions opts;
  opts.bypass_cache = true;
  // The first answer to each query is checked against its oracle; later
  // ones must equal it (or, if the bytes differ, pass the oracle again).
  std::vector<std::optional<srv::Response>> reference(queries.size());
  auto run = [&](size_t i, std::vector<double>* latencies) {
    const PaperQuery& q = queries[i];
    common::QueryRequest req{q.mode, q.text, opts, std::nullopt};
    const Clock::time_point t0 = Clock::now();
    common::Result<srv::Response> r = client.Execute(req);
    const double ms = MsSince(t0);
    if (latencies != nullptr) report->Attempted();
    if (!r.ok()) return report->Failed(q.name + ": " + r.status().ToString());
    if (!r->ok()) return report->Failed(q.name + ": " + r->error);
    if (latencies != nullptr) latencies->push_back(ms);
    if (reference[i].has_value() && SameAnswer(*reference[i], *r)) return;
    std::string err = CheckPaperAnswer(q, *r);
    if (!err.empty()) return report->Wrong(err);
    reference[i] = *std::move(r);
  };

  const Clock::time_point warm = Clock::now();
  do {
    for (size_t i = 0; i < queries.size(); ++i) run(i, nullptr);
  } while (MsSince(warm) < kWarmupSeconds * 1e3);

  std::vector<std::vector<double>> latencies(queries.size());
  const Clock::time_point start = Clock::now();
  do {
    for (size_t i = 0; i < queries.size(); ++i) run(i, &latencies[i]);
  } while (MsSince(start) < o.seconds * 1e3);
  const double rss = ResidentMib() - rss0;

  // Queries per second over one round of the four, each at its 10th
  // percentile latency: the rate while the host is quiet, as the p10
  // latencies are the latency then.
  double round_ms = 0;
  for (const std::vector<double>& l : latencies) round_ms += Quantile(l, 0.1);
  KindLatencies kinds;
  for (size_t i = 0; i < queries.size(); ++i) {
    kinds.push_back({queries[i].name, std::move(latencies[i])});
  }
  ReportEndToEnd(kinds,
                 static_cast<double>(queries.size()) / (round_ms / 1e3), rss,
                 report);
}

void TracePaperQueries(const Options& o, Stack* stack,
                       const std::vector<PaperQuery>& queries,
                       Report* report) {
  std::vector<TracedKind> kinds;
  for (const PaperQuery& q : queries) {
    kinds.push_back({q.name, q.mode, {q.text},
                     [&q](size_t, const srv::Response& r) {
                       return CheckPaperAnswer(q, r);
                     }});
  }
  TraceRequestPath(kinds, o.seconds, stack, report);
  // No writes, and the cache is bypassed.
  ReportWriteLayers({}, report);
}

}  // namespace

void RunPaperQueries(const Options& o, Clock::time_point t_main,
                     Report* report) {
  const Clock::time_point gen = Clock::now();
  Inputs inputs = MakeInputs(o, /*with_release_b=*/false);
  std::vector<PaperQuery> queries;
  {
    Dom dom = BuildDom(inputs.flat);
    queries = PaperQueries(dom, inputs.corpus);
  }
  malloc_trim(0);
  const double gen_ms = MsSince(gen);
  const double rss0 = ResidentMib();
  Stack stack = OpenStack(inputs, "", {}, /*workers=*/1, /*cache_entries=*/64);
  ReportSetup(o, stack, inputs, (MsSince(t_main) - gen_ms) / 1e3, report);
  if (o.trace) {
    TracePaperQueries(o, &stack, queries, report);
  } else {
    ServePaperQueries(o, &stack, queries, rss0, report);
  }
  stack.Close();
}

}  // namespace xqbench
