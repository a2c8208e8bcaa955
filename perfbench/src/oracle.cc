// Oracles: every answer the benchmark receives is checked against an
// evaluation over the transformed DOM documents (baseline::NativeXmlStore
// and direct tree walks), never against the SQL path it measures.

#include <algorithm>
#include <iterator>
#include <set>

#include "baseline/native_xml.h"
#include "bench.h"
#include "sql/expr_eval.h"
#include "xml/parser.h"

namespace xqbench {

namespace {

constexpr char kFieldSep = '\x1f';
constexpr char kRowSep = '\x1e';

std::string JoinRow(const std::vector<std::string>& values) {
  std::string row;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) row += kFieldSep;
    row += values[i];
  }
  return row;
}

Rows SortedRows(std::set<std::string> rows) {
  return Rows(rows.begin(), rows.end());
}

std::vector<std::string> PathValues(const xml::XmlNode& base,
                                    const std::string& path) {
  return baseline::EvalPathValues(
      base, Must(baseline::ParseNativePath(path), "oracle path " + path));
}

std::vector<const xml::XmlNode*> DescendantsOf(const xml::XmlNode& base,
                                               const std::string& name) {
  std::vector<const xml::XmlNode*> out;
  for (const xml::XmlNode* n : base.Descendants(name)) {
    if (n != &base) out.push_back(n);
  }
  return out;
}

// What the shredder stores for one document: node counts by (kind,
// depth), the xml_text values and the summed xml_sequence lengths.
struct Shape {
  std::map<std::pair<int, int64_t>, int64_t> nodes;  // kind 1 elem, 2 attr
  std::map<std::string, int64_t> text_counts;
  int64_t sequence_length = 0;
};

void WalkElement(const xml::XmlNode& e, int64_t depth,
                 const std::set<std::string>& sequence_elements, Shape* s) {
  ++s->nodes[{1, depth}];
  for (const xml::XmlAttribute& attr : e.attributes()) {
    ++s->nodes[{2, depth + 1}];
    ++s->text_counts[attr.value];
  }
  std::string text;
  bool has_elements = false;
  for (const auto& child : e.children()) {
    if (child->kind() == xml::NodeKind::kElement) {
      has_elements = true;
    } else if (child->kind() == xml::NodeKind::kText) {
      text += child->value();
    }
  }
  if (has_elements) {
    for (const auto& child : e.children()) {
      if (child->kind() == xml::NodeKind::kElement) {
        WalkElement(*child, depth + 1, sequence_elements, s);
      }
    }
  } else if (!text.empty()) {
    if (sequence_elements.count(e.name()) > 0) {
      s->sequence_length += static_cast<int64_t>(text.size());
    } else {
      ++s->text_counts[text];
    }
  }
}

void WalkDocs(const std::vector<xml::XmlDocument>& docs, int source,
              Shape* s) {
  std::vector<std::string> seq = TransformerFor(source).sequence_elements();
  std::set<std::string> seq_set(seq.begin(), seq.end());
  for (const xml::XmlDocument& doc : docs) {
    if (doc.root() != nullptr) WalkElement(*doc.root(), 0, seq_set, s);
  }
}

std::string Lit(const std::string& s) { return "'" + s + "'"; }

}  // namespace

Rows CanonicalRows(const std::vector<rel::Tuple>& rows) {
  Rows out;
  out.reserve(rows.size());
  for (const rel::Tuple& t : rows) {
    std::vector<std::string> values;
    values.reserve(t.size());
    for (const rel::Value& v : t) values.push_back(v.ToString());
    out.push_back(JoinRow(values));
  }
  std::sort(out.begin(), out.end());
  return out;
}

common::Result<Rows> RowsFromXml(const std::string& xml_text) {
  XQ_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::ParseXml(xml_text));
  Rows out;
  if (doc.root() == nullptr) return out;
  for (const xml::XmlNode* row : doc.root()->ChildElements()) {
    std::vector<std::string> values;
    for (const xml::XmlNode* col : row->ChildElements()) {
      values.push_back(col->Text());
    }
    out.push_back(JoinRow(values));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string DiffRows(const Rows& want, const Rows& got) {
  if (want.size() != got.size()) {
    return "expected " + std::to_string(want.size()) + " rows, got " +
           std::to_string(got.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      std::string w = want[i], g = got[i];
      std::replace(w.begin(), w.end(), kFieldSep, '|');
      std::replace(g.begin(), g.end(), kFieldSep, '|');
      return "row " + std::to_string(i) + ": expected '" + w + "', got '" +
             g + "'";
    }
  }
  return "";
}

uint64_t Fingerprint(const Rows& rows) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::string& row : rows) {
    for (char c : row) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= static_cast<unsigned char>(kRowSep);
    h *= 1099511628211ull;
  }
  return h;
}

bool SameAnswer(const srv::Response& a, const srv::Response& b) {
  return a.kind == b.kind && a.columns == b.columns && a.rows == b.rows &&
         a.text == b.text;
}

std::vector<xml::XmlDocument> TransformDocs(int source,
                                            const std::string& flat) {
  std::vector<hounds::TransformedDocument> docs =
      Must(TransformerFor(source).Transform(flat), "oracle transform");
  std::vector<xml::XmlDocument> out;
  out.reserve(docs.size());
  for (auto& d : docs) out.push_back(std::move(d.document));
  return out;
}

Dom BuildDom(const std::string flat[kNumSources]) {
  Dom dom;
  for (int s = 0; s < kNumSources; ++s) {
    for (xml::XmlDocument& d : TransformDocs(s, flat[s])) {
      dom.store.Load(CollectionName(s), std::move(d));
    }
  }
  return dom;
}

// ---------------------------------------------------------------------
// The paper's queries
// ---------------------------------------------------------------------

std::vector<PaperQuery> PaperQueries(const Dom& dom,
                                     const datagen::Corpus& corpus) {
  const baseline::NativeXmlStore& store = dom.store;
  std::vector<PaperQuery> out(4);

  // Fig 8: cross product of the keyword hits of EMBL and Swiss-Prot.
  PaperQuery& fig8 = out[0];
  fig8.name = "fig8";
  fig8.text = R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number)";
  {
    std::vector<std::string> embl_accs, sprot_accs;
    for (const auto* d : store.KeywordSearch(CollectionName(kEmbl), "cdc6")) {
      for (auto& v : PathValues(*d->root(), "//embl_accession_number")) {
        embl_accs.push_back(v);
      }
    }
    for (const auto* d : store.KeywordSearch(CollectionName(kSprot), "cdc6")) {
      for (auto& v : PathValues(*d->root(), "//sprot_accession_number")) {
        sprot_accs.push_back(v);
      }
    }
    std::set<std::string> rows;
    for (const auto& b : sprot_accs) {
      for (const auto& a : embl_accs) rows.insert(JoinRow({b, a}));
    }
    fig8.want = SortedRows(std::move(rows));
    fig8.truth = corpus.proteins_with_keyword * corpus.nucleotides_with_keyword;
  }

  // Fig 9: sub-tree keyword search over ENZYME.
  PaperQuery& fig9 = out[1];
  fig9.name = "fig9";
  fig9.text = R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description)";
  {
    auto rows = Must(store.SubtreeQuery(CollectionName(kEnzyme),
                                        "//catalytic_activity", "ketone",
                                        {"//enzyme_id",
                                         "//enzyme_description"}),
                     "fig9 oracle");
    std::set<std::string> set;
    for (const auto& r : rows) set.insert(JoinRow(r));
    fig9.want = SortedRows(std::move(set));
    fig9.truth = corpus.enzymes_with_ketone;
  }

  // Fig 11: EMBL entries whose "EC number" qualifier names an ENZYME id.
  PaperQuery& fig11 = out[2];
  fig11.name = "fig11";
  fig11.text = R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description)";
  {
    std::set<std::string> enzyme_ids;
    for (const xml::XmlDocument& d : store.Docs(CollectionName(kEnzyme))) {
      for (const xml::XmlNode* entry : d.root()->ChildElements("db_entry")) {
        for (const xml::XmlNode* id : entry->ChildElements("enzyme_id")) {
          enzyme_ids.insert(id->Text());
        }
      }
    }
    std::set<std::string> rows;
    for (const xml::XmlDocument& d : store.Docs(CollectionName(kEmbl))) {
      for (const xml::XmlNode* entry : d.root()->ChildElements("db_entry")) {
        bool joined = false;
        for (const xml::XmlNode* q : DescendantsOf(*entry, "qualifier")) {
          const std::string* type = q->FindAttribute("qualifier_type");
          if (type != nullptr && *type == "EC number" &&
              enzyme_ids.count(q->Text()) > 0) {
            joined = true;
          }
        }
        if (!joined) continue;
        for (const xml::XmlNode* acc :
             DescendantsOf(*entry, "embl_accession_number")) {
          for (const xml::XmlNode* desc : DescendantsOf(*entry, "description")) {
            rows.insert(JoinRow({acc->Text(), desc->Text()}));
          }
        }
      }
    }
    fig11.want = SortedRows(std::move(rows));
    fig11.truth = corpus.nucleotides_with_ec_link;
  }

  // Fig 11 again, answered as re-tagged XML.
  out[3] = out[2];
  out[3].name = "fig11_xml";
  out[3].mode = common::QueryMode::kXqXml;
  return out;
}

std::string CheckPaperAnswer(const PaperQuery& q, const srv::Response& r) {
  if (!r.ok()) return q.name + ": error " + r.error;
  Rows got;
  if (q.mode == common::QueryMode::kXqXml) {
    if (r.kind != srv::PayloadKind::kXml) return q.name + ": not an XML answer";
    common::Result<Rows> rows = RowsFromXml(r.text);
    if (!rows.ok()) return q.name + ": bad XML: " + rows.status().ToString();
    got = *std::move(rows);
  } else {
    got = CanonicalRows(r.rows);
  }
  std::string diff = DiffRows(q.want, got);
  if (!diff.empty()) return q.name + " vs DOM oracle: " + diff;
  size_t counted = got.size();
  if (q.name == "fig9") {
    std::set<std::string> ids;
    for (const std::string& row : got) ids.insert(row.substr(0, row.find(kFieldSep)));
    counted = ids.size();
  }
  if (counted != q.truth) {
    return q.name + " vs corpus ground truth: expected " +
           std::to_string(q.truth) + ", got " + std::to_string(counted);
  }
  return "";
}

// ---------------------------------------------------------------------
// Ad-hoc scans
// ---------------------------------------------------------------------

std::vector<std::vector<ScanQuery>> ScanRounds(const Dom& dom,
                                               const datagen::Corpus& corpus,
                                               size_t rounds) {
  Shape shape;
  for (int s = 0; s < kNumSources; ++s) WalkDocs(dom.docs(s), s, &shape);
  int64_t corpus_residues = 0;
  for (const auto& n : corpus.nucleotides) {
    corpus_residues += static_cast<int64_t>(n.sequence.size());
  }
  for (const auto& p : corpus.proteins) {
    corpus_residues += static_cast<int64_t>(p.sequence.size());
  }
  if (shape.sequence_length != corpus_residues) {
    Die("DOM sequence length " + std::to_string(shape.sequence_length) +
        " disagrees with the corpus (" + std::to_string(corpus_residues) +
        ")");
  }
  static const char* kLikeWords[] = {"glucose", "kinase", "Homo",
                                     "NAD",     "cdc6",   "binding"};
  std::vector<std::vector<ScanQuery>> out;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<ScanQuery> round;
    const int64_t min_depth = 1 + static_cast<int64_t>(r % 3);
    int64_t count = 0;
    for (const auto& [key, n] : shape.nodes) {
      if (key.second >= min_depth) count += n;
    }
    round.push_back({"scan_count",
                     "SELECT COUNT(*) FROM xml_node WHERE depth >= " +
                         std::to_string(min_depth),
                     {std::to_string(count)}});

    const int kind = 1 + static_cast<int>(r % 2);
    std::set<std::string> groups;
    for (const auto& [key, n] : shape.nodes) {
      if (key.first == kind) {
        groups.insert(JoinRow({std::to_string(key.second), std::to_string(n)}));
      }
    }
    round.push_back({"scan_group",
                     "SELECT depth, COUNT(*) FROM xml_node WHERE kind = " +
                         std::to_string(kind) + " GROUP BY depth",
                     SortedRows(std::move(groups))});

    const std::string word = kLikeWords[r % std::size(kLikeWords)];
    int64_t like = 0;
    for (const auto& [value, n] : shape.text_counts) {
      if (value.find(word) != std::string::npos) like += n;
    }
    round.push_back({"scan_like",
                     "SELECT COUNT(*) FROM xml_text WHERE value LIKE " +
                         Lit("%" + word + "%"),
                     {std::to_string(like)}});

    round.push_back({"scan_sum", "SELECT SUM(\"length\") FROM xml_sequence",
                     {std::to_string(corpus_residues)}});
    out.push_back(std::move(round));
  }
  return out;
}

std::string CheckScanAnswer(const ScanQuery& q, const srv::Response& r) {
  if (!r.ok()) return q.name + ": error " + r.error;
  std::string diff = DiffRows(q.want, CanonicalRows(r.rows));
  return diff.empty() ? "" : q.name + " (" + q.sql + ") vs DOM walk: " + diff;
}

// ---------------------------------------------------------------------
// mixed_rw reads
// ---------------------------------------------------------------------

namespace {

struct EnzymeDocView {
  std::vector<std::string> ids, activities, descriptions;
  const xml::XmlNode* root = nullptr;
};

std::vector<EnzymeDocView> ViewEnzymes(
    const std::vector<xml::XmlDocument>& docs) {
  std::vector<EnzymeDocView> out;
  for (const xml::XmlDocument& d : docs) {
    EnzymeDocView v;
    v.root = d.root();
    v.ids = PathValues(*v.root, "//enzyme_id");
    v.activities = PathValues(*v.root, "//catalytic_activity");
    v.descriptions = PathValues(*v.root, "//enzyme_description");
    out.push_back(std::move(v));
  }
  return out;
}

bool AnyContains(const std::vector<std::string>& values,
                 const std::string& keyword) {
  for (const std::string& v : values) {
    if (sql::MatchContains(v, keyword)) return true;
  }
  return false;
}

}  // namespace

std::vector<ReadText> MixedReadTexts(
    const Dom& dom_a, const std::vector<xml::XmlDocument>& enzyme_b_docs) {
  const std::vector<EnzymeDocView> views[2] = {
      ViewEnzymes(dom_a.docs(kEnzyme)), ViewEnzymes(enzyme_b_docs)};
  Shape fixed;  // EMBL + Swiss-Prot: the same under both releases
  WalkDocs(dom_a.docs(kEmbl), kEmbl, &fixed);
  WalkDocs(dom_a.docs(kSprot), kSprot, &fixed);
  Shape enzyme_shape[2];
  WalkDocs(dom_a.docs(kEnzyme), kEnzyme, &enzyme_shape[0]);
  WalkDocs(enzyme_b_docs, kEnzyme, &enzyme_shape[1]);

  auto xq_answer = [&](int release, auto&& match) {
    std::set<std::string> rows;
    for (const EnzymeDocView& v : views[release]) {
      if (!match(v)) continue;
      for (const std::string& id : v.ids) rows.insert(id);
    }
    return Fingerprint(SortedRows(std::move(rows)));
  };

  // Release B's changed descriptions draw from these words; "ketone" is
  // the Fig 9 substrate.
  std::vector<std::string> substrates = Substrates();
  substrates.push_back("ketone");
  std::vector<ReadText> out;
  for (const std::string& s : substrates) {
    for (const std::string& a : Actions()) {
      ReadText t;
      t.text = std::string(
                   "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme\n"
                   "WHERE contains($a//catalytic_activity, \"") +
               s + "\") AND contains($a//enzyme_description, \"" + a +
               "\")\nRETURN $a//enzyme_id";
      for (int release = 0; release < 2; ++release) {
        t.want[release] = xq_answer(release, [&](const EnzymeDocView& v) {
          return AnyContains(v.activities, s) && AnyContains(v.descriptions, a);
        });
      }
      out.push_back(std::move(t));
    }
  }
  std::vector<std::string> words = substrates;
  words.insert(words.end(), Actions().begin(), Actions().end());
  for (const std::string& w : words) {
    ReadText t;
    t.text =
        "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme\n"
        "WHERE contains($a, \"" + w + "\", any)\nRETURN $a//enzyme_id";
    for (int release = 0; release < 2; ++release) {
      t.want[release] = xq_answer(release, [&](const EnzymeDocView& v) {
        return baseline::SubtreeContains(*v.root, w);
      });
    }
    out.push_back(std::move(t));
  }
  std::set<std::string> ids;
  for (int release = 0; release < 2; ++release) {
    for (const EnzymeDocView& v : views[release]) ids.insert(v.ids.begin(), v.ids.end());
  }
  for (const std::string& id : ids) {
    ReadText t;
    t.mode = common::QueryMode::kSql;
    t.text = "SELECT COUNT(*) FROM xml_text WHERE value = " + Lit(id);
    for (int release = 0; release < 2; ++release) {
      int64_t n = 0;
      for (const Shape* s : {&fixed, &enzyme_shape[release]}) {
        auto it = s->text_counts.find(id);
        if (it != s->text_counts.end()) n += it->second;
      }
      t.want[release] = Fingerprint({std::to_string(n)});
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::string CheckReadAnswer(const ReadText& t, const srv::Response& r) {
  if (!r.ok()) return "read error " + r.error;
  uint64_t got = Fingerprint(CanonicalRows(r.rows));
  if (got == t.want[0] || got == t.want[1]) return "";
  return "read answer matches neither ENZYME release: " + t.text;
}

std::string CheckNoteCount(const std::vector<rel::Tuple>& count_rows,
                           uint64_t acked) {
  std::string want = std::to_string(acked);
  std::string diff = DiffRows({want}, CanonicalRows(count_rows));
  return diff.empty() ? ""
                      : std::string(kNoteTable) + " vs acknowledged INSERTs: " +
                            diff;
}

}  // namespace xqbench
