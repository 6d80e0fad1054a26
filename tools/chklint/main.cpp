// chklint — determinism-discipline static analyzer for the CHK-LIB tree.
//
//   chklint [--root=DIR] [--json=FILE] [--sarif=FILE] [--rule=NAME]...
//           [--partition-list=FILE]... [--list-rules] [-q] [paths...]
//
// Paths are files or directories relative to --root (default: src bench
// tests, whichever exist). Exit status: 0 clean, 1 findings, 2 usage or
// I/O error. All output is deterministic: files are scanned in sorted
// order and findings are reported sorted by path/line/col/rule, so two
// runs over the same tree produce byte-identical reports.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;
using chk::lint::Context;
using chk::lint::Finding;
using chk::lint::SourceFile;

namespace {

/// Directories never scanned: generated trees and the known-bad lint
/// fixtures (which exist to *fail* these rules).
const std::set<std::string> kSkipDirs = {"build", "third_party", ".git",
                                         "CMakeFiles", "chklint_fixtures"};
const std::set<std::string> kExtensions = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".hh"};

struct Options {
  fs::path root = ".";
  std::vector<std::string> paths;
  std::vector<std::string> partition_lists;  // empty -> defaults
  std::set<std::string> only_rules;
  std::string json_out;
  std::string sarif_out;
  bool list_rules = false;
  bool quiet = false;
};

int usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "chklint: %s\n", msg);
  std::fprintf(stderr,
               "usage: chklint [--root=DIR] [--json=FILE] [--sarif=FILE]\n"
               "               [--rule=NAME]... [--partition-list=FILE]...\n"
               "               [--list-rules] [-q] [paths...]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // `--flag value` and `--flag=value` are both accepted.
    for (const char* flag : {"--root", "--json", "--sarif", "--rule", "--partition-list"}) {
      if (arg == flag && i + 1 < argc) {
        arg += std::string("=") + argv[++i];
        break;
      }
    }
    const auto value = [&](std::string_view prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--root=", 0) == 0) {
      opt.root = value("--root=");
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_out = value("--json=");
    } else if (arg.rfind("--sarif=", 0) == 0) {
      opt.sarif_out = value("--sarif=");
    } else if (arg.rfind("--rule=", 0) == 0) {
      opt.only_rules.insert(value("--rule="));
    } else if (arg.rfind("--partition-list=", 0) == 0) {
      opt.partition_lists.push_back(value("--partition-list="));
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "-q" || arg == "--quiet") {
      opt.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      opt.paths.push_back(arg);
    }
  }
  return true;
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) rel = p;
  return rel.generic_string();
}

/// Collect scan files under `p` (file or directory), sorted later.
void collect(const fs::path& p, const fs::path& root, std::vector<fs::path>& out) {
  if (fs::is_regular_file(p)) {
    out.push_back(p);
    return;
  }
  if (!fs::is_directory(p)) return;
  for (fs::recursive_directory_iterator it(p), end; it != end; ++it) {
    if (it->is_directory()) {
      if (kSkipDirs.contains(it->path().filename().string())) it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    if (kExtensions.contains(it->path().extension().string())) out.push_back(it->path());
  }
  (void)root;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_report(const std::vector<Finding>& findings, std::size_t files) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"chklint\",\n  \"version\": \"1.0\",\n"
      << "  \"files_scanned\": " << files << ",\n"
      << "  \"finding_count\": " << findings.size() << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"rule\": \"" << json_escape(f.rule) << "\", \"path\": \""
        << json_escape(f.path) << "\", \"line\": " << f.line
        << ", \"col\": " << f.col << ", \"message\": \"" << json_escape(f.message)
        << "\"}";
  }
  out << (findings.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

std::string sarif_report(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \"chklint\", "
         "\"rules\": [";
  const auto& rules = chk::lint::all_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      {\"id\": \"" << rules[i].name
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(std::string(rules[i].summary))
        << "\"}}";
  }
  out << "\n    ]}},\n    \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n")
        << "      {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message) << "\"}, \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << json_escape(f.path)
        << "\"}, \"region\": {\"startLine\": " << f.line
        << ", \"startColumn\": " << f.col << "}}}]}";
  }
  out << (findings.empty() ? "]\n  }]\n}\n" : "\n    ]\n  }]\n}\n");
  return out.str();
}

bool write_report(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage("unknown option");

  if (opt.list_rules) {
    for (const auto& rule : chk::lint::all_rules())
      std::printf("%-32s %s\n", std::string(rule.name).c_str(),
                  std::string(rule.summary).c_str());
    return 0;
  }
  for (const auto& name : opt.only_rules) {
    const auto& rules = chk::lint::all_rules();
    if (std::none_of(rules.begin(), rules.end(),
                     [&](const auto& r) { return r.name == name; }))
      return usage(("unknown rule: " + name).c_str());
  }

  std::error_code ec;
  const fs::path root = fs::canonical(opt.root, ec);
  if (ec) return usage(("bad --root: " + opt.root.string()).c_str());

  if (opt.paths.empty()) {
    for (const char* dir : {"src", "bench", "tests"})
      if (fs::is_directory(root / dir)) opt.paths.push_back(dir);
  }
  if (opt.paths.empty()) return usage("nothing to scan under --root");

  std::vector<fs::path> files;
  for (const std::string& p : opt.paths) {
    const fs::path abs = root / p;
    if (!fs::exists(abs)) return usage(("no such path: " + p).c_str());
    collect(abs, root, files);
  }
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& p : files) {
    SourceFile sf;
    sf.path = to_rel(p, root);
    if (!read_file(p, sf.content)) return usage(("cannot read: " + sf.path).c_str());
    sources.push_back(std::move(sf));
  }
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  sources.erase(std::unique(sources.begin(), sources.end(),
                            [](const SourceFile& a, const SourceFile& b) {
                              return a.path == b.path;
                            }),
                sources.end());
  for (SourceFile& sf : sources) chk::lint::lex(sf);

  // Partition test list for bucket-partition-registration.
  Context ctx;
  ctx.files = &sources;
  std::vector<std::string> partition_files = opt.partition_lists;
  if (partition_files.empty())
    partition_files = {"tools/check_bench_json.py", "tests/obs_test.cpp"};
  std::string desc;
  for (const std::string& p : partition_files) {
    std::string text;
    if (!read_file(root / p, text)) continue;
    ctx.partition_text += text;
    ctx.partition_loaded = true;
    desc += (desc.empty() ? "" : " + ") + p;
  }
  ctx.partition_desc = desc.empty() ? "none of the configured list files exist" : desc;

  std::vector<Finding> findings;
  for (const auto& rule : chk::lint::all_rules()) {
    if (!opt.only_rules.empty() && !opt.only_rules.contains(std::string(rule.name)))
      continue;
    rule.run(ctx, findings);
  }

  // Apply chklint:allow suppressions, then sort for a stable report.
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    const auto it = std::find_if(sources.begin(), sources.end(),
                                 [&](const SourceFile& s) { return s.path == f.path; });
    if (it != sources.end() && it->allows(f.rule, f.line)) continue;
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return !(a < b) && !(b < a);
                         }),
             kept.end());

  if (!opt.quiet) {
    for (const Finding& f : kept)
      std::printf("%s:%u:%u: [%s] %s\n", f.path.c_str(), f.line, f.col,
                  f.rule.c_str(), f.message.c_str());
    std::printf("chklint: %zu finding(s) across %zu file(s)\n", kept.size(),
                sources.size());
  }
  if (!opt.json_out.empty() &&
      !write_report(opt.json_out, json_report(kept, sources.size())))
    return usage(("cannot write: " + opt.json_out).c_str());
  if (!opt.sarif_out.empty() && !write_report(opt.sarif_out, sarif_report(kept)))
    return usage(("cannot write: " + opt.sarif_out).c_str());

  return kept.empty() ? 0 : 1;
}
