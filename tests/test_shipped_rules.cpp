// The shipped rules/*.rules files are the only copy of each rulebase;
// the library compiles them in. Every file, and the joined Fig. 1
// rulebase, must parse.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "rules/diagnosis.hpp"
#include "rules/parser.hpp"
#include "rules/rulebases.hpp"
#include "script/ast.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
namespace rb = pk::rules::builtin;

namespace {

fs::path rules_dir() { return fs::path(PERFKNOW_SOURCE_DIR) / "rules"; }

}  // namespace

TEST(ShippedRules, FilesExistAndParse) {
  const std::vector<std::string> files = {
      "stalls_per_cycle.rules", "load_imbalance.rules",
      "inefficiency.rules",     "stall_coverage.rules",
      "memory_locality.rules",  "power.rules",
      "communication.rules",    "instrumentation.rules",
      "openmp.rules",           "self_diagnosis.rules",
      "regression.rules",       "rule_tuning.rules",
  };
  for (const auto& name : files) {
    const auto path = rules_dir() / name;
    ASSERT_TRUE(fs::exists(path)) << path;
    EXPECT_GE(pk::rules::load_rules(path).size(), 1u) << name;
  }
  EXPECT_GE(pk::rules::parse_rules(rb::openuh_rules()).size(), 9u);
}

TEST(ShippedRules, OpenUHRulesJoinsTheNineApplicationRulebases) {
  std::string joined;
  for (const auto part :
       {rb::stalls_per_cycle(), rb::load_imbalance(), rb::inefficiency(),
        rb::stall_coverage(), rb::memory_locality(), rb::power(),
        rb::communication(), rb::instrumentation(), rb::openmp()}) {
    joined += part;
  }
  EXPECT_EQ(rb::openuh_rules(), joined);
  EXPECT_EQ(rb::find("openuh"), rb::openuh_rules());
  EXPECT_EQ(rb::find("regression"), rb::regression());
  EXPECT_FALSE(rb::find("OpenUHRules.rules"));
}

// Diagnosis::to_string() is rendered into reports and example output;
// pin the exact format so downstream parsers don't silently break.
TEST(ShippedRules, DiagnosisToStringFormatIsStable) {
  pk::rules::Diagnosis d;
  d.rule = "Repository Cache Thrashing";
  d.problem = "RepositoryCacheThrashing";
  d.event = "perfdmf.repository";
  d.metric = "cache.hit_rate";
  d.severity = 0.96;
  d.message = "hit rate 4%";
  d.recommendation = "raise the cache budget";
  EXPECT_EQ(d.to_string(),
            "[RepositoryCacheThrashing] perfdmf.repository {cache.hit_rate}"
            " (severity 0.96, rule \"Repository Cache Thrashing\")"
            ": hit rate 4% -> raise the cache budget");

  pk::rules::Diagnosis bare;
  bare.rule = "r";
  bare.problem = "P";
  bare.event = "e";
  bare.severity = 1.0;
  EXPECT_EQ(bare.to_string(), "[P] e (severity 1.00, rule \"r\")");
}

TEST(ShippedRules, ExampleScriptParses) {
  const auto script = fs::path(PERFKNOW_SOURCE_DIR) / "examples" /
                      "scripts" / "stall_analysis.ps";
  ASSERT_TRUE(fs::exists(script));
  // The script must at least tokenize and parse (running it needs a
  // populated repository, covered by the scripted_analysis example).
  std::ifstream is(script);
  std::ostringstream ss;
  ss << is.rdbuf();
  EXPECT_NO_THROW((void)pk::script::parse_program(ss.str()));
}
