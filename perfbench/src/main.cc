// Benchmark entry point: runs one named workload against a real query server
// and prints the result as one JSON line (the last line of stdout).
//
//   xqbench --workload <paper_queries|sql_scan|mixed_rw> --seed <n>
//           --seconds <s> --trace <0|1> [--work-dir <d>]
//   xqbench --selftest

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xqbench: %s\nusage: xqbench --workload "
               "<paper_queries|sql_scan|mixed_rw> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       xqbench --selftest\n",
               why);
  std::exit(2);
}

uint64_t ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') Usage(("bad value for " + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const xqbench::Clock::time_point t_main = xqbench::Clock::now();
  xqbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return xqbench::RunSelfTest();
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = ParseNumber(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<int>(ParseNumber(flag, value));
    } else if (flag == "--trace") {
      o.trace = ParseNumber(flag, value) != 0;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.seconds < 1) Usage("--seconds must be at least 1");
  xqbench::Report report;
  if (o.workload == "paper_queries") {
    xqbench::RunPaperQueries(o, t_main, &report);
  } else if (o.workload == "sql_scan") {
    xqbench::RunSqlScan(o, t_main, &report);
  } else if (o.workload == "mixed_rw") {
    xqbench::RunMixedRw(o, t_main, &report);
  } else {
    Usage("unknown or missing --workload");
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
