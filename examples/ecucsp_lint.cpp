// ecucsp_lint: cross-layer static analysis for the extract-then-verify
// toolchain. Lints CAPL handler programs against the CANdb they target,
// the CANdb itself, and CSPm models — before any LTS is ever compiled.
//
//   $ ./ecucsp_lint --dbc net.dbc vmg.can ecu.can model.csp
//   $ ./ecucsp_lint --json bad.csp
//   $ ./ecucsp_lint --ota            # the built-in OTA case study
//   $ ./ecucsp_lint --list-rules
//
// Inputs are classified by extension (.can/.capl -> CAPL, .dbc -> CANdb,
// .csp/.cspm -> CSPm); --capl/--dbc/--cspm force a classification. Exit
// codes: 0 clean (warnings allowed), 1 findings of error severity (or any
// finding under --werror), 2 usage or I/O failure.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "capl/parser.hpp"
#include "core/cli.hpp"
#include "lint/baseline.hpp"
#include "lint/lint.hpp"
#include "ota/ota.hpp"
#include "translate/extractor.hpp"

using namespace ecucsp;

namespace {

int list_rules() {
  for (const lint::RuleInfo& r : lint::all_rules()) {
    std::printf("%-5.*s %-8.*s %.*s\n", int(r.id.size()), r.id.data(),
                int(lint::to_string(r.severity).size()),
                lint::to_string(r.severity).data(), int(r.summary.size()),
                r.summary.data());
  }
  return 0;
}

/// The embedded OTA case study, end to end: both CAPL nodes, the CANdb,
/// and the CSPm system model freshly extracted from them — the same gate
/// CI runs to keep the shipped sources lint-clean.
lint::LintRequest ota_request() {
  lint::LintRequest req;
  req.capl.push_back({"<ota:vmg.can>", std::string(ota::vmg_capl_source())});
  req.capl.push_back({"<ota:ecu.can>", std::string(ota::ecu_capl_source())});
  req.dbc = lint::SourceFile{"<ota:net.dbc>", std::string(ota::ota_dbc_text())};

  const can::DbcDatabase db = can::parse_dbc(ota::ota_dbc_text());
  const capl::CaplProgram vmg = capl::parse_capl(ota::vmg_capl_source());
  const capl::CaplProgram ecu = capl::parse_capl(ota::ecu_capl_source());
  std::vector<translate::SystemNode> nodes(2);
  nodes[0].program = &vmg;
  nodes[0].options.node_name = "VMG";
  nodes[0].options.db = &db;
  nodes[1].program = &ecu;
  nodes[1].options.node_name = "ECU";
  nodes[1].options.db = &db;
  const translate::ExtractionResult extracted =
      translate::extract_system(nodes, {});
  req.cspm.push_back({"<ota:system.csp>", extracted.cspm});
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  bool ota = false;
  bool list = false;
  std::optional<std::string> baseline_path;
  std::optional<std::string> write_baseline_path;
  lint::LintRequest req;

  const auto add_capl = [&](std::string_view f) {
    req.capl.push_back({std::string(f), {}});
  };
  const auto add_cspm = [&](std::string_view f) {
    req.cspm.push_back({std::string(f), {}});
  };
  const auto set_dbc = [&](std::string_view f) {
    if (req.dbc) throw std::runtime_error("more than one CANdb given");
    req.dbc = lint::SourceFile{std::string(f), {}};
  };
  const cli::Tool tool{
      .synopsis = {"[options] <file>..."},
      .about = "Static analysis for CAPL (.can/.capl), CANdb (.dbc) and CSPm "
               "(.csp/.cspm) inputs; CAPL checks cross-reference the "
               "database when one is given.",
      .options =
          {cli::value("--capl", "FILE",
                      "treat FILE as CAPL regardless of extension", add_capl),
           cli::value("--dbc", "FILE", "treat FILE as the CANdb (at most one)",
                      set_dbc),
           cli::value("--cspm", "FILE", "treat FILE as CSPm", add_cspm),
           cli::flag("--json", "machine-readable report on stdout", json),
           cli::flag("--werror",
                     "any finding (warnings included) fails the run", werror),
           cli::value("--baseline", "F",
                      "suppress the findings fingerprinted in baseline file "
                      "F; only new findings are reported / fail the run",
                      [&](std::string_view f) { baseline_path = f; }),
           cli::value("--write-baseline", "F",
                      "write the current findings to F as a baseline and "
                      "exit 0 (adopt-the-linter mode)",
                      [&](std::string_view f) { write_baseline_path = f; }),
           cli::flag("--ota",
                     "lint the built-in OTA case study (embedded CAPL + "
                     "CANdb + the CSPm model extracted from them)",
                     ota),
           cli::flag("--list-rules", "print the rule catalogue and exit",
                     list)},
      .positional =
          [&](std::string_view f) {
            const std::string ext =
                std::filesystem::path(f).extension().string();
            if (ext == ".can" || ext == ".capl") {
              add_capl(f);
            } else if (ext == ".dbc") {
              set_dbc(f);
            } else if (ext == ".csp" || ext == ".cspm") {
              add_cspm(f);
            } else {
              throw std::runtime_error("cannot classify '" + std::string(f) +
                                       "' (use --capl/--dbc/--cspm)");
            }
          },
  };

  return cli::run(argc, argv, tool, [&] {
    if (list) return list_rules();
    if (ota) {
      if (!req.capl.empty() || req.dbc || !req.cspm.empty()) {
        throw cli::UsageError("--ota takes no input files");
      }
      req = ota_request();
    } else {
      if (req.capl.empty() && !req.dbc && req.cspm.empty()) {
        throw cli::UsageError("no input files (or --ota)");
      }
      for (auto& f : req.capl) f.text = cli::read_file(f.path);
      if (req.dbc) req.dbc->text = cli::read_file(req.dbc->path);
      for (auto& f : req.cspm) f.text = cli::read_file(f.path);
    }

    lint::LintReport report = lint::run_lint(req);
    if (write_baseline_path) {
      const lint::Baseline base =
          lint::Baseline::from_diagnostics(report.diagnostics);
      std::ofstream out(*write_baseline_path, std::ios::binary);
      out << base.serialize();
      if (!out) {
        throw std::runtime_error("cannot write baseline '" +
                                 *write_baseline_path + "'");
      }
      std::printf("wrote %zu baseline entr%s to %s\n", base.size(),
                  base.size() == 1 ? "y" : "ies",
                  write_baseline_path->c_str());
      return 0;
    }
    if (baseline_path) {
      const lint::Baseline base =
          lint::Baseline::parse(cli::read_file(*baseline_path));
      report.diagnostics =
          lint::filter_baselined(std::move(report.diagnostics), base);
    }
    if (json) {
      std::fputs(lint::render_json(report.diagnostics).c_str(), stdout);
    } else {
      std::fputs(lint::render_text(report.diagnostics, report.sources).c_str(),
                 stdout);
      std::printf("%s\n", lint::summary_line(report.diagnostics).c_str());
    }
    if (report.has_errors()) return 1;
    if (werror && !report.diagnostics.empty()) return 1;
    return 0;
  });
}
