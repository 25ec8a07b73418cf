// CI check that the examples in the documentation stay real: every fenced
// ```rnl code block in docs/*.md must parse, pass check_valid, and
// round-trip through write_rnl/read_rnl to a fixed point; every ```json
// block must round-trip through the io/json codec, and serve wire-protocol
// frames must satisfy the real request parser / response validator.
// RTV_DOCS_DIR is injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/jobs.hpp"
#include "serve/protocol.hpp"

namespace rtv {
namespace {

struct DocExample {
  std::string file;
  std::size_t line = 0;  ///< line of the opening fence
  std::string text;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

/// Extracts every fenced block with the given tag from one markdown file.
void extract_blocks(const std::filesystem::path& path, const std::string& tag,
                    std::vector<DocExample>* out) {
  const std::string fence = "```" + tag;
  std::istringstream is(read_file(path));
  std::string line;
  std::size_t line_no = 0;
  bool in_block = false;
  DocExample current;
  while (std::getline(is, line)) {
    ++line_no;
    if (!in_block) {
      if (line.rfind(fence, 0) == 0) {
        in_block = true;
        current = DocExample{path.filename().string(), line_no, ""};
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      out->push_back(std::move(current));
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << path << ": unterminated ```" << tag << " fence";
}

void extract_rnl_blocks(const std::filesystem::path& path,
                        std::vector<DocExample>* out) {
  extract_blocks(path, "rnl", out);
}

std::vector<DocExample> all_doc_examples() {
  std::vector<DocExample> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTV_DOCS_DIR)) {
    if (entry.path().extension() == ".md") {
      extract_rnl_blocks(entry.path(), &examples);
    }
  }
  return examples;
}

TEST(DocsExamples, RnlBlocksArePresent) {
  // formats.md carries at least the toggle and the half-adder example; if
  // this shrinks, blocks lost their ```rnl tag and escaped CI coverage.
  EXPECT_GE(all_doc_examples().size(), 2u);
}

TEST(DocsExamples, EveryRnlBlockParsesAndRoundTrips) {
  for (const DocExample& example : all_doc_examples()) {
    SCOPED_TRACE(example.file + " fence at line " +
                 std::to_string(example.line));
    Netlist first;
    ASSERT_NO_THROW(first = read_rnl(example.text)) << example.text;
    ASSERT_NO_THROW(first.check_valid(true));
    // write_rnl(read_rnl(x)) must be a fixed point of the serializer.
    const std::string canonical = write_rnl(first);
    Netlist second;
    ASSERT_NO_THROW(second = read_rnl(canonical)) << canonical;
    EXPECT_EQ(write_rnl(second), canonical);
    // The round trip preserves the interface shape.
    EXPECT_EQ(second.primary_inputs().size(), first.primary_inputs().size());
    EXPECT_EQ(second.primary_outputs().size(), first.primary_outputs().size());
    EXPECT_EQ(second.latches().size(), first.latches().size());
  }
}

// ---------------------------------------------------------------------------
// docs/serve.md: every ```json block must round-trip through the real codec,
// and every wire frame must satisfy the real protocol schema — request
// frames ("rtv_serve" present, no "ok") go through parse_request, response
// frames ("ok" present) through validate_response. The published protocol
// reference IS a test vector set.

std::vector<DocExample> all_json_examples() {
  std::vector<DocExample> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTV_DOCS_DIR)) {
    if (entry.path().extension() == ".md") {
      extract_blocks(entry.path(), "json", &examples);
    }
  }
  return examples;
}

TEST(DocsExamples, JsonBlocksArePresent) {
  // serve.md documents every job type with at least a request + response
  // pair; shrinking below this means blocks lost their ```json tag and
  // escaped CI coverage.
  EXPECT_GE(all_json_examples().size(), 16u);
}

TEST(DocsExamples, EveryJsonBlockRoundTripsThroughCodec) {
  for (const DocExample& example : all_json_examples()) {
    SCOPED_TRACE(example.file + " fence at line " +
                 std::to_string(example.line));
    JsonValue parsed;
    ASSERT_NO_THROW(parsed = parse_json(example.text)) << example.text;
    // write_json(parse_json(x)) must be a fixed point of the serializer.
    const std::string canonical = write_json(parsed);
    JsonValue reparsed;
    ASSERT_NO_THROW(reparsed = parse_json(canonical)) << canonical;
    EXPECT_EQ(write_json(reparsed), canonical);
  }
}

TEST(DocsExamples, EveryWireFrameExampleSatisfiesTheProtocol) {
  std::size_t requests = 0;
  std::size_t responses = 0;
  for (const DocExample& example : all_json_examples()) {
    SCOPED_TRACE(example.file + " fence at line " +
                 std::to_string(example.line));
    const JsonValue doc = parse_json(example.text);
    if (!doc.is_object() || doc.find("rtv_serve") == nullptr) {
      continue;  // a fragment (e.g. the budget object), not a frame
    }
    if (doc.find("ok") != nullptr) {
      EXPECT_EQ(serve::validate_response(doc), "") << example.text;
      ++responses;
    } else {
      // The documented options must be ones the job layer accepts.
      EXPECT_NO_THROW({
        const serve::JobRequest request = serve::parse_request(doc);
        serve::check_job_options(request.type, request.options);
      }) << example.text;
      ++requests;
    }
  }
  // One request + response pair per job type, at minimum.
  EXPECT_GE(requests, 7u);
  EXPECT_GE(responses, 7u);
}

TEST(DocsExamples, EveryJobOptionIsDocumented) {
  // serve.md documents each job type's options; an option the job layer
  // accepts (and the CLI therefore takes as a flag) must appear there.
  const std::string text =
      read_file(std::filesystem::path(RTV_DOCS_DIR) / "serve.md");
  for (const serve::JobType type :
       {serve::JobType::kLint, serve::JobType::kValidate,
        serve::JobType::kFaultSim, serve::JobType::kClsEquivalence,
        serve::JobType::kSimulate}) {
    for (const serve::OptionSpec& spec : serve::option_specs(type)) {
      EXPECT_NE(text.find(std::string("`") + spec.key + "`"),
                std::string::npos)
          << to_string(type) << " option " << spec.key;
    }
  }
}

}  // namespace
}  // namespace rtv
