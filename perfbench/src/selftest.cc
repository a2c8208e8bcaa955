// Self-test of the benchmark's answer checks: on a small warehouse, every
// check must accept the server's real answer and reject the same answer
// with one row dropped or one value changed.

#include <cstdio>

#include "bench.h"
#include "client/client.h"

namespace xqbench {

namespace {

class SelfTest {
 public:
  // `check` must accept `real` and reject each corruption of it.
  template <typename Check>
  void Expect(const std::string& what, const srv::Response& real,
              const Check& check) {
    if (!real.ok()) return Fail(what + ": query failed: " + real.error);
    std::string err = check(real);
    if (!err.empty()) return Fail(what + ": real answer rejected: " + err);
    ++accepted_;
    for (const auto& [how, corrupted] : Corruptions(real)) {
      if (check(corrupted).empty()) {
        Fail(what + ": answer with " + how + " accepted");
      } else {
        ++rejected_;
      }
    }
  }

  void Fail(const std::string& what) {
    ++failures_;
    std::fprintf(stderr, "SELFTEST FAILED: %s\n", what.c_str());
  }

  int Finish() const {
    std::printf("selftest: %zu real answers accepted, %zu corrupted answers "
                "rejected, %zu failures\n",
                accepted_, rejected_, failures_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  static std::vector<std::pair<std::string, srv::Response>> Corruptions(
      const srv::Response& real) {
    std::vector<std::pair<std::string, srv::Response>> out;
    if (real.kind == srv::PayloadKind::kXml) {
      // Rows are the root's child elements; drop the last, alter the first
      // value.
      const std::string& x = real.text;
      size_t last_row = x.rfind("\n  <");
      size_t end_row = x.rfind("\n</");
      if (last_row != std::string::npos && end_row != std::string::npos &&
          last_row < end_row) {
        srv::Response dropped = real;
        dropped.text.erase(last_row, end_row - last_row);
        out.push_back({"one row dropped", dropped});
      }
      size_t first_value = x.find(">", x.find("\n    <"));
      if (first_value != std::string::npos) {
        srv::Response changed = real;
        changed.text.insert(first_value + 1, "X");
        out.push_back({"one value changed", changed});
      }
      return out;
    }
    if (real.rows.empty()) return out;
    srv::Response dropped = real;
    dropped.rows.pop_back();
    out.push_back({"one row dropped", dropped});
    srv::Response changed = real;
    rel::Value& v = changed.rows.front().back();
    v = v.type() == rel::ValueType::kInt ? rel::Value::Int(v.AsInt() + 1)
                                         : rel::Value::Text(v.ToString() + "X");
    out.push_back({"one value changed", changed});
    return out;
  }

  size_t accepted_ = 0, rejected_ = 0, failures_ = 0;
};

}  // namespace

int RunSelfTest() {
  Options o;
  o.seed = 3;
  o.entries = 300;
  Inputs inputs = MakeInputs(o, /*with_release_b=*/true);
  Dom dom = BuildDom(inputs.flat);
  std::vector<PaperQuery> paper = PaperQueries(dom, inputs.corpus);
  std::vector<std::vector<ScanQuery>> scans = ScanRounds(dom, inputs.corpus, 6);
  std::vector<ReadText> reads =
      MixedReadTexts(dom, TransformDocs(kEnzyme, inputs.enzyme_b_flat));
  Stack stack = OpenStack(
      inputs, "",
      {"CREATE TABLE " + std::string(kNoteTable) + " (id INT, body TEXT)"},
      /*workers=*/1, /*cache_entries=*/16);
  cli::Client client = Must(
      cli::Client::Connect("127.0.0.1", stack.server->port()), "connect");
  common::QueryOptions bypass;
  bypass.bypass_cache = true;
  auto ask = [&](common::QueryMode mode, const std::string& text) {
    return Must(client.Execute({mode, text, bypass, std::nullopt}), text);
  };

  SelfTest t;
  for (const PaperQuery& q : paper) {
    t.Expect(q.name, ask(q.mode, q.text),
             [&](const srv::Response& r) { return CheckPaperAnswer(q, r); });
  }
  for (const auto& round : scans) {
    for (const ScanQuery& q : round) {
      t.Expect(q.sql, ask(common::QueryMode::kSql, q.sql),
               [&](const srv::Response& r) { return CheckScanAnswer(q, r); });
    }
  }
  // A spread of read texts: sub-tree, keyword and point-lookup shapes. A
  // read passes when it equals either ENZYME release's answer, so only
  // texts the releases answer alike can show that a corruption is caught
  // (elsewhere a dropped row may be the other release's right answer).
  for (size_t i = 0; i < reads.size(); i += reads.size() / 48) {
    const ReadText& rt = reads[i];
    if (rt.want[0] != rt.want[1]) continue;
    t.Expect(rt.text, ask(rt.mode, rt.text),
             [&](const srv::Response& r) { return CheckReadAnswer(rt, r); });
  }
  constexpr uint64_t kNotes = 5;
  for (uint64_t i = 0; i < kNotes; ++i) {
    ask(common::QueryMode::kSql, "INSERT INTO " + std::string(kNoteTable) +
                                     " VALUES (" + std::to_string(i) + ", 'n')");
  }
  t.Expect("annotation count",
           ask(common::QueryMode::kSql,
               "SELECT COUNT(*) FROM " + std::string(kNoteTable)),
           [&](const srv::Response& r) { return CheckNoteCount(r.rows, kNotes); });
  stack.Close();
  return t.Finish();
}

}  // namespace xqbench
