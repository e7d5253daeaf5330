// ecucsp_extract: the model extractor as a command-line tool — the
// counterpart of ecucsp_check, together covering the paper's Figure 1
// toolchain from the shell:
//
//   $ ./ecucsp_extract --dbc net.dbc VMG:send:rec=vmg.can ECU:rec:send=ecu.can > model.csp
//   $ ./ecucsp_check model.csp specs.csp
//
// Each node argument is NAME:TX:RX=FILE (the channels the node transmits and
// receives on). One node emits a standalone model; several emit a composed
// SYSTEM. '--assert LINE' appends assertion (or any other) lines verbatim.
#include <cstdio>
#include <string>
#include <vector>

#include "capl/parser.hpp"
#include "core/cli.hpp"
#include "lint/lint.hpp"
#include "translate/dbc_to_cspm.hpp"
#include "translate/extractor.hpp"

using namespace ecucsp;

namespace {

struct NodeArg {
  std::string name = "NODE";
  std::string tx = "send";
  std::string rx = "rec";
  std::string file;
};

NodeArg parse_node_arg(const std::string& arg) {
  NodeArg out;
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) {
    out.file = arg;
    return out;
  }
  out.file = arg.substr(eq + 1);
  std::string head = arg.substr(0, eq);
  const std::size_t c1 = head.find(':');
  if (c1 == std::string::npos) {
    out.name = head;
    return out;
  }
  out.name = head.substr(0, c1);
  const std::size_t c2 = head.find(':', c1 + 1);
  if (c2 == std::string::npos) {
    throw std::runtime_error("node spec needs NAME:TX:RX=FILE, got " + arg);
  }
  out.tx = head.substr(c1 + 1, c2 - c1 - 1);
  out.rx = head.substr(c2 + 1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<NodeArg> nodes;
  std::vector<std::string> extra_lines;
  std::string dbc_path;
  bool emit_dbc_decls = false;
  bool emit_fingerprint = false;
  bool no_lint = false;

  const cli::Tool tool{
      .synopsis = {"[options] NAME:TX:RX=FILE..."},
      .about = "Extracts a CSPm model from CAPL node programs (and an "
               "optional CANdb). One node emits a standalone model; several "
               "emit a composed SYSTEM.",
      .options =
          {cli::value("--dbc", "FILE", "the CANdb the nodes exchange frames of",
                      [&](std::string_view f) { dbc_path = f; }),
           cli::value("--assert", "LINE",
                      "append LINE to the model verbatim (repeatable)",
                      [&](std::string_view l) { extra_lines.emplace_back(l); }),
           cli::flag("--dbc-decls",
                     "(with --dbc) prefix the model with the CANdb's CSPm "
                     "declarations",
                     emit_dbc_decls),
           cli::flag("--fingerprint",
                     "prefix the output with a comment carrying the content "
                     "digest of the generated script (the identity the "
                     "verification cache keys on)",
                     emit_fingerprint),
           cli::flag("--no-lint",
                     "skip the fail-fast static-analysis pre-flight over the "
                     "CAPL inputs and the CANdb",
                     no_lint)},
      .positional =
          [&](std::string_view a) {
            nodes.push_back(parse_node_arg(std::string(a)));
          },
  };

  return cli::run(argc, argv, tool, [&] {
    if (nodes.empty()) throw cli::UsageError("no CAPL input files");

    const std::string dbc_text =
        dbc_path.empty() ? "" : cli::read_file(dbc_path);
    std::vector<std::string> capl_texts;
    capl_texts.reserve(nodes.size());
    for (const NodeArg& n : nodes) {
      capl_texts.push_back(cli::read_file(n.file));
    }

    // Fail-fast pre-flight: a handler for a frame the CANdb does not know,
    // an inconsistent database, or plain parse errors all stop the
    // extraction here, before any model is generated.
    if (!no_lint) {
      lint::LintRequest lreq;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        lreq.capl.push_back({nodes[i].file, capl_texts[i]});
      }
      if (!dbc_path.empty()) lreq.dbc = lint::SourceFile{dbc_path, dbc_text};
      const lint::LintReport rep = lint::run_lint(lreq);
      if (!rep.diagnostics.empty()) {
        std::fputs(lint::render_text(rep.diagnostics, rep.sources).c_str(),
                   stderr);
      }
      if (rep.has_errors()) {
        std::fprintf(stderr,
                     "error: lint found %s; fix the inputs or rerun with "
                     "--no-lint\n",
                     lint::summary_line(rep.diagnostics).c_str());
        return 2;
      }
    }

    can::DbcDatabase db;
    if (!dbc_path.empty()) db = can::parse_dbc(dbc_text);

    std::vector<capl::CaplProgram> programs;
    programs.reserve(nodes.size());
    for (const std::string& text : capl_texts) {
      programs.push_back(capl::parse_capl(text));
    }

    translate::ExtractionResult result;
    if (nodes.size() == 1) {
      translate::ExtractorOptions opt;
      opt.node_name = nodes[0].name;
      opt.tx_channel = nodes[0].tx;
      opt.rx_channel = nodes[0].rx;
      if (!dbc_path.empty()) opt.db = &db;
      result = translate::extract_model(programs[0], opt);
      for (const std::string& l : extra_lines) result.cspm += l + "\n";
    } else {
      std::vector<translate::SystemNode> sys;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        translate::SystemNode sn;
        sn.program = &programs[i];
        sn.options.node_name = nodes[i].name;
        sn.options.tx_channel = nodes[i].tx;
        sn.options.rx_channel = nodes[i].rx;
        if (!dbc_path.empty()) sn.options.db = &db;
        sys.push_back(sn);
      }
      result = translate::extract_system(sys, extra_lines);
    }

    if (emit_fingerprint) {
      std::printf("-- ecucsp-fingerprint: %s\n", result.fingerprint.c_str());
    }
    if (emit_dbc_decls && !dbc_path.empty()) {
      std::fputs(translate::dbc_to_cspm(db).c_str(), stdout);
      std::fputs("\n", stdout);
    }
    std::fputs(result.cspm.c_str(), stdout);
    for (const std::string& w : result.warnings) {
      std::fprintf(stderr, "note: %s\n", w.c_str());
    }
    return 0;
  });
}
