// Unit tests for the ear_lint library (tools/lint/): the tokenizer
// fixes that motivated v3 (raw strings, digit separators) and v4
// (leading-dot and hex-float pp-numbers), the cross-TU call graph, the
// nondet-taint junction logic, the shard-ownership pass — including
// the facility serial-merge mutant the annotations exist to catch —
// and the v4 passes: the interval abstract interpreter (--abstract)
// and the wire-format symmetry analysis (--wire), plus the SARIF
// output both feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/absint.hpp"
#include "lint/deep.hpp"
#include "lint/findings.hpp"
#include "lint/index.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "lint/token.hpp"
#include "lint/wiresym.hpp"

namespace {

using lint::Program;

std::vector<lint::Finding> deep_findings(const Program& program) {
  const lint::Index index = lint::build_index(program);
  const lint::CallGraph cg = lint::build_callgraph(program, index);
  std::vector<lint::Finding> findings;
  lint::run_deep_passes(program, index, cg, &findings);
  lint::sort_findings(&findings);
  return findings;
}

std::size_t count_rule(const std::vector<lint::Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(LintToken, RawStringContentsAreBlanked) {
  // The raw-string body holds a quote, a comment opener and a brace —
  // none may leak into the token stream or change scanner state.
  const std::string src =
      "const char* s = R\"(quote \" slash // brace { )\";\n"
      "int after = 1;\n";
  const std::string stripped = lint::strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find('{'), std::string::npos);
  EXPECT_EQ(stripped.find("//"), std::string::npos);
  const std::vector<lint::Token> t = lint::tokenize(stripped);
  const auto has = [&](const std::string& text) {
    return std::any_of(t.begin(), t.end(), [&](const lint::Token& tok) {
      return tok.text == text;
    });
  };
  EXPECT_TRUE(has("after"));  // the scanner recovered after the literal
  EXPECT_FALSE(has("quote"));
  EXPECT_FALSE(has("slash"));
}

TEST(LintToken, RawStringCustomDelimiterAndPrefixes) {
  const std::string src =
      "auto a = u8R\"x(not \" done )\" still)x\";\n"
      "auto b = LR\"(two\nlines)\";\n"
      "int tail = 2;\n";
  const std::vector<lint::Token> t =
      lint::tokenize(lint::strip_comments_and_strings(src));
  // `tail` must survive on line 4: the embedded `)\"` did not close the
  // x-delimited literal, and the multi-line literal kept line numbers
  // (its body claims lines 2-3).
  const auto it = std::find_if(t.begin(), t.end(), [](const lint::Token& tok) {
    return tok.text == "tail";
  });
  ASSERT_NE(it, t.end());
  EXPECT_EQ(it->line, 4U);
}

TEST(LintToken, DigitSeparatorsStayOneNumber) {
  const std::vector<lint::Token> t =
      lint::tokenize(lint::strip_comments_and_strings(
          "std::size_t n = 1'000'000; char c = 'x'; int m = 2;\n"));
  const auto it = std::find_if(t.begin(), t.end(), [](const lint::Token& tok) {
    return tok.kind == lint::Token::Kind::kNumber && tok.text == "1'000'000";
  });
  EXPECT_NE(it, t.end()) << "digit separators must not split the literal";
  // The real char literal right after is still stripped.
  const auto cx = std::find_if(t.begin(), t.end(), [](const lint::Token& tok) {
    return tok.text == "x";
  });
  EXPECT_EQ(cx, t.end());
}

// ---------------------------------------------------------------------------
// Cross-TU call graph + taint
// ---------------------------------------------------------------------------

TEST(LintDeep, TaintCrossesTranslationUnits) {
  const Program program = Program::from_memory({
      {"a/shared.hpp",
       "#pragma once\n"
       "namespace fx { double jitter(); }\n"},
      {"a/producer.cpp",
       "#include \"a/shared.hpp\"\n"
       "#include <random>\n"
       "namespace fx {\n"
       "double jitter() { std::random_device rd; return rd() * 1.0; }\n"
       "}\n"},
      {"a/consumer.cpp",
       "#include \"a/shared.hpp\"\n"
       "namespace fx {\n"
       "double mean() { double x = jitter(); return reduce_runs(x); }\n"
       "}\n"},
  });
  const std::vector<lint::Finding> fs = deep_findings(program);
  ASSERT_EQ(count_rule(fs, "nondet-taint"), 1U);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const lint::Finding& f) {
    return f.rule == "nondet-taint";
  });
  EXPECT_EQ(it->file, "a/consumer.cpp");
  EXPECT_NE(it->message.find("random_device"), std::string::npos);
  EXPECT_NE(it->message.find("reduce_runs"), std::string::npos);
}

TEST(LintDeep, NamespaceCollisionAddsNoEdge) {
  // Same-named helper in two namespaces: the unqualified call must bind
  // to the enclosing namespace's overload, so beta::use stays clean
  // even though alpha::scale is tainted.
  const Program program = Program::from_memory({
      {"b/collide.hpp",
       "#pragma once\n"
       "namespace alpha { double scale(); }\n"
       "namespace beta { double scale(); }\n"},
      {"b/alpha.cpp",
       "#include \"b/collide.hpp\"\n"
       "#include <random>\n"
       "namespace alpha {\n"
       "double scale() { std::random_device rd; return rd() * 1.0; }\n"
       "}\n"},
      {"b/beta.cpp",
       "#include \"b/collide.hpp\"\n"
       "namespace beta {\n"
       "double scale() { return 0.5; }\n"
       "double use() { double x = scale(); return reduce_runs(x); }\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(deep_findings(program), "nondet-taint"), 0U);
}

TEST(LintDeep, SubsumedIterationRuleKeepsItsId) {
  const std::string body =
      "#include <unordered_map>\n"
      "#include <string>\n"
      "double total(const std::unordered_map<std::string, double>& m) {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [k, v] : m) {\n"
      "    sum += v;\n"
      "  }\n"
      "  return sum;\n"
      "}\n";
  const Program program = Program::from_memory({{"c/iter.cpp", body}});

  // Shallow: the per-file rule fires.
  std::vector<lint::Finding> shallow;
  lint::scan_file(program.files()[0], {}, &shallow);
  ASSERT_EQ(count_rule(shallow, "nondet-iteration"), 1U);

  // Deep: the taint pass re-emits the identical finding (same rule id,
  // same line), so fixtures and allowlists survive the subsumption.
  const std::vector<lint::Finding> deep = deep_findings(program);
  ASSERT_EQ(count_rule(deep, "nondet-iteration"), 1U);
  const auto at = [](const std::vector<lint::Finding>& fs) {
    return std::find_if(fs.begin(), fs.end(), [](const lint::Finding& f) {
             return f.rule == "nondet-iteration";
           })
        ->line;
  };
  EXPECT_EQ(at(shallow), at(deep));
}

// ---------------------------------------------------------------------------
// Shard ownership: the facility serial-merge mutant
// ---------------------------------------------------------------------------

namespace mutant {

// A miniature of the facility round loop: per-slot readings are
// written from the parallel region, then merged serially. `serial`
// toggles whether the merge stays outside the region (shipped shape)
// or is hoisted into it (the mutant the annotation must catch).
std::string facility_round(bool serial) {
  const std::string merge =
      "    readings[g] = slots[g];\n"
      "    total_w += readings[g];\n";
  std::string region =
      "  parallel_for(n, [&](std::size_t g) {\n"
      "    slots[g] = advance(g);\n";
  if (!serial) {
    region += merge;  // the mutant: merge hoisted into the region
  }
  region += "  });\n";
  std::string tail;
  if (serial) {
    tail = "  for (std::size_t g = 0; g < n; ++g) {\n" + merge + "  }\n";
  }
  return
      "#include <cstddef>\n"
      "#include <vector>\n"
      "double advance(std::size_t g);\n"
      "void round(std::size_t n) {\n"
      "  EAR_SHARD_LOCAL std::vector<double> slots(n, 0.0);\n"
      "  EAR_REDUCED_SERIAL std::vector<double> readings(n, 0.0);\n"
      "  double total_w = 0.0;\n" +
      region + tail +
      "  publish(total_w);\n"
      "}\n";
}

}  // namespace mutant

TEST(LintDeep, FacilitySerialMergeStaysQuiet) {
  const Program program =
      Program::from_memory({{"d/round.cpp", mutant::facility_round(true)}});
  EXPECT_EQ(count_rule(deep_findings(program), "shard-ownership"), 0U);
}

TEST(LintDeep, FacilityParallelMergeMutantIsCaught) {
  const Program program =
      Program::from_memory({{"d/round.cpp", mutant::facility_round(false)}});
  EXPECT_GE(count_rule(deep_findings(program), "shard-ownership"), 1U);
}

TEST(LintDeep, GuardedByRequiresTheDeclaredMutex) {
  const std::string src =
      "#include <mutex>\n"
      "#include <vector>\n"
      "void tally(std::size_t n) {\n"
      "  std::mutex mu;\n"
      "  std::mutex other;\n"
      "  EAR_GUARDED_BY(mu) std::vector<double> acc(4, 0.0);\n"
      "  parallel_for(n, [&](std::size_t i) {\n"
      "    std::lock_guard<std::mutex> lock(other);\n"
      "    acc[i % 4] += 1.0;\n"
      "  });\n"
      "}\n";
  const Program program = Program::from_memory({{"e/tally.cpp", src}});
  EXPECT_EQ(count_rule(deep_findings(program), "shard-ownership"), 1U);
}

TEST(LintDeep, AnnotationsAreCollectedWithVariableNames) {
  const Program program = Program::from_memory(
      {{"f/state.hpp",
        "#pragma once\n"
        "#include <vector>\n"
        "struct S {\n"
        "  EAR_REDUCED_SERIAL std::vector<double> budgets_;\n"
        "  EAR_GUARDED_BY(mu_) std::vector<double> seconds_;\n"
        "};\n"}});
  const std::vector<lint::Annotation> annots =
      lint::collect_annotations(program);
  ASSERT_EQ(annots.size(), 2U);
  EXPECT_EQ(annots[0].var, "budgets_");
  EXPECT_EQ(annots[1].var, "seconds_");
  EXPECT_EQ(annots[1].lock, "mu_");
}

// ---------------------------------------------------------------------------
// Tokenizer: pp-number edge cases (v4)
// ---------------------------------------------------------------------------

std::vector<lint::Token> toks_of(const std::string& src) {
  return lint::tokenize(lint::strip_comments_and_strings(src));
}

bool has_number(const std::vector<lint::Token>& t, const std::string& text) {
  return std::any_of(t.begin(), t.end(), [&](const lint::Token& tok) {
    return tok.kind == lint::Token::Kind::kNumber && tok.text == text;
  });
}

TEST(LintToken, HexFloatLiteralsAreOneToken) {
  const std::vector<lint::Token> t =
      toks_of("double a = 0x1.8p3; double b = 0x.4p-2; double c = 0xA.Bp+1;");
  EXPECT_TRUE(has_number(t, "0x1.8p3"));
  EXPECT_TRUE(has_number(t, "0x.4p-2"));
  EXPECT_TRUE(has_number(t, "0xA.Bp+1"));
}

TEST(LintToken, LeadingDotFloatsAreOneToken) {
  // `.5e-3` is a pp-number even though it starts with `.`; before v4 it
  // lexed as punct `.` + number `5e-3` and broke expression parsing.
  const std::vector<lint::Token> t = toks_of("double a = .5e-3; int b = 1;");
  EXPECT_TRUE(has_number(t, ".5e-3"));
  // A member access right after must still be punct + idents.
  const std::vector<lint::Token> m = toks_of("int x = obj.field;");
  EXPECT_FALSE(has_number(m, ".field"));
}

// ---------------------------------------------------------------------------
// Abstract interpretation (--abstract)
// ---------------------------------------------------------------------------

std::vector<lint::AbsSite> absint_sites(const Program& program, bool strict,
                                        std::vector<lint::Finding>* fs) {
  const lint::Index index = lint::build_index(program);
  const lint::CallGraph cg = lint::build_callgraph(program, index);
  std::vector<lint::AbsSite> sites;
  lint::AbsintOptions opts;
  opts.strict = strict;
  lint::run_absint_pass(program, index, cg, opts, fs, &sites);
  return sites;
}

TEST(LintAbsint, ClampedRatioDischargesLiteralOverflowViolates) {
  const Program program = Program::from_memory({{"m/msr.cpp",
      "namespace fix {\n"
      "constexpr unsigned int kMask = 0x7F;\n"
      "unsigned int ok(unsigned int r) {\n"
      "  if (r > kMask) r = kMask;\n"
      "  EAR_EXPECT(r <= kMask);\n"
      "  return (r << 8) | r;\n"
      "}\n"
      "unsigned int bad() {\n"
      "  const unsigned int r = 0x3FF;\n"
      "  EAR_EXPECT(r <= kMask);\n"
      "  return r & kMask;\n"
      "}\n"
      "}\n"}});
  std::vector<lint::Finding> fs;
  const std::vector<lint::AbsSite> sites = absint_sites(program, false, &fs);
  ASSERT_EQ(count_rule(fs, "absint-violation"), 1U);
  const auto violated = std::find_if(
      sites.begin(), sites.end(), [](const lint::AbsSite& s) {
        return s.verdict == lint::AbsVerdict::kViolated;
      });
  ASSERT_NE(violated, sites.end());
  EXPECT_EQ(violated->line, 10U);
  // The witness interval names the out-of-range value.
  EXPECT_NE(violated->detail.find("1023"), std::string::npos);
  // The clamped contract is discharged, not merely unproven.
  const auto clamped = std::find_if(
      sites.begin(), sites.end(), [](const lint::AbsSite& s) {
        return s.line == 5 && s.kind == lint::AbsSiteKind::kContract;
      });
  ASSERT_NE(clamped, sites.end());
  EXPECT_EQ(clamped->verdict, lint::AbsVerdict::kDischarged);
}

TEST(LintAbsint, CallChainViolationNamesCallerAndCallee) {
  const Program program = Program::from_memory({{"m/chain.cpp",
      "namespace fix {\n"
      "unsigned int clamp(unsigned int r) {\n"
      "  EAR_EXPECT(r <= 127);\n"
      "  return r;\n"
      "}\n"
      "unsigned int use() { return clamp(300); }\n"
      "}\n"}});
  std::vector<lint::Finding> fs;
  absint_sites(program, false, &fs);
  ASSERT_EQ(count_rule(fs, "absint-violation"), 1U);
  const lint::Finding& f = fs.front();
  EXPECT_EQ(f.line, 6U);
  EXPECT_NE(f.message.find("use"), std::string::npos);
  EXPECT_NE(f.message.find("clamp"), std::string::npos);
  EXPECT_NE(f.message.find("300"), std::string::npos);
}

TEST(LintAbsint, LoopWideningDischargesBoundedSubscript) {
  const Program program = Program::from_memory({{"m/loop.cpp",
      "namespace fix {\n"
      "int sum() {\n"
      "  std::array<int, 16> t{};\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < 16; ++i) acc += t[i];\n"
      "  return acc;\n"
      "}\n"
      "}\n"}});
  std::vector<lint::Finding> fs;
  const std::vector<lint::AbsSite> sites = absint_sites(program, false, &fs);
  EXPECT_EQ(count_rule(fs, "absint-violation"), 0U);
  const auto sub = std::find_if(
      sites.begin(), sites.end(), [](const lint::AbsSite& s) {
        return s.kind == lint::AbsSiteKind::kSubscript;
      });
  ASSERT_NE(sub, sites.end());
  EXPECT_EQ(sub->verdict, lint::AbsVerdict::kDischarged);
}

TEST(LintAbsint, StrictModeReportsOpenSitesQuietOtherwise) {
  // An unconstrained parameter reaching a contract is `open`: not
  // provable either way. Default runs stay quiet; --abstract-strict
  // surfaces it under its own rule id so it can be allowlisted.
  const Program program = Program::from_memory({{"m/open.cpp",
      "namespace fix {\n"
      "unsigned int f(unsigned int r) {\n"
      "  EAR_EXPECT(r <= 127);\n"
      "  return r;\n"
      "}\n"
      "}\n"}});
  std::vector<lint::Finding> quiet;
  absint_sites(program, false, &quiet);
  EXPECT_EQ(quiet.size(), 0U);
  std::vector<lint::Finding> strict;
  absint_sites(program, true, &strict);
  ASSERT_EQ(count_rule(strict, "absint-open"), 1U);
  EXPECT_EQ(strict.front().line, 3U);
}

TEST(LintAbsint, NarrowingCastVerdicts) {
  const Program program = Program::from_memory({{"m/cast.cpp",
      "namespace fix {\n"
      "unsigned char bad() {\n"
      "  const int big = 300;\n"
      "  return static_cast<unsigned char>(big);\n"
      "}\n"
      "unsigned char ok() {\n"
      "  const int big = 300;\n"
      "  return static_cast<unsigned char>(big & 0xFF);\n"
      "}\n"
      "}\n"}});
  std::vector<lint::Finding> fs;
  const std::vector<lint::AbsSite> sites = absint_sites(program, false, &fs);
  ASSERT_EQ(count_rule(fs, "absint-violation"), 1U);
  EXPECT_EQ(fs.front().line, 4U);
  const auto ok_site = std::find_if(
      sites.begin(), sites.end(), [](const lint::AbsSite& s) {
        return s.line == 8;
      });
  ASSERT_NE(ok_site, sites.end());
  EXPECT_EQ(ok_site->verdict, lint::AbsVerdict::kDischarged);
}

// ---------------------------------------------------------------------------
// Wire-format symmetry (--wire)
// ---------------------------------------------------------------------------

std::vector<lint::Finding> wire_findings(const Program& program,
                                         std::vector<lint::WireCodec>* codecs) {
  const lint::Index index = lint::build_index(program);
  const lint::CallGraph cg = lint::build_callgraph(program, index);
  std::vector<lint::Finding> fs;
  lint::run_wiresym_pass(program, index, cg, &fs, codecs);
  lint::sort_findings(&fs);
  return fs;
}

TEST(LintWiresym, MatchedPairWithLoopAndContinuationIsClean) {
  const Program program = Program::from_memory({{"w/clean.cpp",
      "namespace fix {\n"
      "void encode_cell(ByteWriter& w, const Cell& c) {\n"
      "  w.u32(c.id);\n"
      "  w.f64(c.mean);\n"
      "}\n"
      "Cell decode_cell(ByteReader& r) {\n"
      "  Cell c;\n"
      "  c.id = r.u32();\n"
      "  c.mean = r.f64();\n"
      "  return c;\n"
      "}\n"
      "void encode_t(ByteWriter& w, const T& t) {\n"
      "  w.varint(t.n);\n"
      "  for (const Cell& c : t.cells) encode_cell(w, c);\n"
      "}\n"
      "T decode_t(ByteReader& r) {\n"
      "  T t;\n"
      "  t.n = r.varint();\n"
      "  for (unsigned long i = 0; i < t.n; ++i) decode_cell(r);\n"
      "  return t;\n"
      "}\n"
      "}\n"}});
  std::vector<lint::WireCodec> codecs;
  EXPECT_EQ(wire_findings(program, &codecs).size(), 0U);
  EXPECT_EQ(codecs.size(), 4U);
}

TEST(LintWiresym, DesyncedFieldOrderIsReportedAtTheReader) {
  const Program program = Program::from_memory({{"w/desync.cpp",
      "namespace fix {\n"
      "void encode_row(ByteWriter& w, const Row& row) {\n"
      "  w.u32(row.id);\n"
      "  w.varint(row.count);\n"
      "  w.f64(row.mean);\n"
      "}\n"
      "Row decode_row(ByteReader& r) {\n"
      "  Row out;\n"
      "  out.id = r.u32();\n"
      "  out.mean = r.f64();\n"
      "  out.count = r.varint();\n"
      "  return out;\n"
      "}\n"
      "}\n"}});
  const std::vector<lint::Finding> fs = wire_findings(program, nullptr);
  ASSERT_EQ(count_rule(fs, "wire-symmetry"), 1U);
  EXPECT_EQ(fs.front().file, "w/desync.cpp");
  EXPECT_EQ(fs.front().line, 10U);  // first divergent read
  EXPECT_NE(fs.front().message.find("varint"), std::string::npos);
  EXPECT_NE(fs.front().message.find("f64"), std::string::npos);
}

TEST(LintWiresym, ExtraTrailingReadIsReported) {
  const Program program = Program::from_memory({{"w/extra.cpp",
      "namespace fix {\n"
      "void encode_p(ByteWriter& w, const P& p) {\n"
      "  w.u32(p.a);\n"
      "}\n"
      "P decode_p(ByteReader& r) {\n"
      "  P p;\n"
      "  p.a = r.u32();\n"
      "  p.b = r.u64();\n"
      "  return p;\n"
      "}\n"
      "}\n"}});
  EXPECT_EQ(count_rule(wire_findings(program, nullptr), "wire-symmetry"), 1U);
}

TEST(LintWiresym, TagRangeWiderThanEncoderCasesIsReported) {
  const Program program = Program::from_memory({{"w/tag.cpp",
      "namespace fix {\n"
      "void encode_ev(ByteWriter& w, const Ev& e) {\n"
      "  w.u8(e.kind);\n"
      "  switch (e.kind) {\n"
      "    case 1: w.varint(e.a); break;\n"
      "    case 2: w.svarint(e.b); break;\n"
      "  }\n"
      "}\n"
      "Ev decode_ev(ByteReader& r) {\n"
      "  Ev e;\n"
      "  const unsigned int k = r.u8();\n"
      "  if (k < 1 || k > 3) { throw k; }\n"
      "  e.kind = k;\n"
      "  switch (k) {\n"
      "    case 1: e.a = r.varint(); break;\n"
      "    case 2: e.b = r.svarint(); break;\n"
      "  }\n"
      "  return e;\n"
      "}\n"
      "}\n"}});
  const std::vector<lint::Finding> fs = wire_findings(program, nullptr);
  ASSERT_EQ(count_rule(fs, "wire-symmetry"), 1U);
  EXPECT_EQ(fs.front().line, 12U);
  EXPECT_NE(fs.front().message.find("3"), std::string::npos);
  EXPECT_NE(fs.front().message.find("2"), std::string::npos);
}

TEST(LintWiresym, MultiReceiverFramingIsOpaqueNotUnpaired) {
  // checked_block-style framing (two readers) must be excluded from
  // comparison *and* from unpaired-codec reporting.
  const Program program = Program::from_memory({{"w/frame.cpp",
      "namespace fix {\n"
      "void check_frame(const char* bytes) {\n"
      "  ByteReader r(bytes);\n"
      "  ByteReader tail(bytes);\n"
      "  const unsigned int len = r.u32();\n"
      "  const unsigned int crc = tail.u32();\n"
      "}\n"
      "}\n"}});
  std::vector<lint::WireCodec> codecs;
  EXPECT_EQ(wire_findings(program, &codecs).size(), 0U);
  ASSERT_EQ(codecs.size(), 1U);
  EXPECT_TRUE(codecs[0].opaque);
}

// ---------------------------------------------------------------------------
// SARIF output for the v4 passes
// ---------------------------------------------------------------------------

TEST(LintFindings, SarifCarriesStableRuleIdsAndLines) {
  const std::vector<lint::Finding> fs = {
      {"src/a.cpp", 42, "absint-violation", "witness [1023, 1023]"},
      {"src/b.cpp", 7, "wire-symmetry", "field 2: writer varint, reader f64"},
      {"src/a.cpp", 50, "absint-violation", "another"},
  };
  const std::string path =
      std::string(::testing::TempDir()) + "/ear_lint_sarif_test.json";
  std::string error;
  ASSERT_TRUE(lint::write_sarif(path, fs, &error)) << error;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string sarif = ss.str();
  std::remove(path.c_str());
  // Rule ids are stable, deduplicated and referenced by index.
  EXPECT_NE(sarif.find("\"id\": \"absint-violation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"wire-symmetry\""), std::string::npos);
  EXPECT_EQ(sarif.find("\"id\": \"absint-violation\""),
            sarif.rfind("\"id\": \"absint-violation\""));
  // Physical locations carry the finding's file and 1-based line.
  EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/b.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
}

TEST(LintFindings, ExpectationTagsAreHonouredPerPass) {
  const Program program = Program::from_memory({{"t/x.cpp",
      "int f();  // LINT-EXPECT: some-rule\n"
      "int g();  // LINT-EXPECT-ABS: absint-violation\n"}});
  const std::vector<lint::Finding> fs = {
      {"t/x.cpp", 1, "some-rule", "m"},
      {"t/x.cpp", 2, "absint-violation", "m"},
  };
  // Without the ABS tag its annotation is not collected, so the second
  // finding counts as unexpected; with the tag everything lines up.
  EXPECT_EQ(lint::check_expectations(program.files()[0], fs,
                                     {"LINT-EXPECT:"}),
            1U);
  EXPECT_EQ(lint::check_expectations(program.files()[0], fs,
                                     {"LINT-EXPECT:", "LINT-EXPECT-ABS:"}),
            0U);
}

}  // namespace
