#include "rules/rulebases.hpp"

#include "rules/parser.hpp"
#include "rules/rulebase_text.hpp"  // generated from rules/*.rules

namespace perfknow::rules::builtin {

std::string_view stalls_per_cycle() { return text::stalls_per_cycle; }
std::string_view load_imbalance() { return text::load_imbalance; }
std::string_view inefficiency() { return text::inefficiency; }
std::string_view stall_coverage() { return text::stall_coverage; }
std::string_view memory_locality() { return text::memory_locality; }
std::string_view power() { return text::power; }
std::string_view communication() { return text::communication; }
std::string_view instrumentation() { return text::instrumentation; }
std::string_view openmp() { return text::openmp; }
std::string_view self_diagnosis() { return text::self_diagnosis; }
std::string_view regression() { return text::regression; }
std::string_view rule_tuning() { return text::rule_tuning; }

std::string openuh_rules() { return std::string(text::openuh); }

std::optional<std::string_view> find(std::string_view name) {
  for (const auto& [builtin_name, source] : text::by_name) {
    if (name == builtin_name) return source;
  }
  return std::nullopt;
}

namespace {

// Origin label for provenance source locations: name the builtin when
// the source text is one of ours, so explanations read
// "builtin:openmp:12" instead of a bare line number.
std::string origin_for(std::string_view src) {
  for (const auto& [name, source] : text::by_name) {
    if (src == source) return "builtin:" + std::string(name);
  }
  return "builtin";
}

}  // namespace

void use(RuleHarness& harness, std::string_view rulebase_source) {
  add_rules(harness, std::string(rulebase_source),
            origin_for(rulebase_source));
}

}  // namespace perfknow::rules::builtin
