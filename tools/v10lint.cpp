/**
 * @file
 * v10lint — repo-native static analysis for the V10 simulator.
 *
 *   v10lint [--root DIR] [PATH...] [--rule NAME]...
 *           [--baseline FILE | --no-baseline] [--write-baseline]
 *           [--format text|json] [--error-on-new] [--list-rules]
 *
 * Scans src/ and tools/ under the repository root (default: the
 * current directory) with the rule pack documented in
 * docs/STATIC_ANALYSIS.md. A baseline at <root>/.v10lint-baseline
 * .json is picked up automatically when present; findings it
 * grandfathers do not fail the run.
 *
 * Exit codes follow the repo convention: 0 = clean (no new
 * findings), 1 = new findings, 2 = usage or input error.
 * --error-on-new names the default behavior explicitly for CI
 * scripts that want the intent visible.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rule.h"
#include "analysis/sarif.h"
#include "common/result.h"

namespace {

using namespace v10;
using namespace v10::analysis;

int
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: v10lint [--root DIR] [PATH...] [options]\n"
        "\n"
        "  PATH...           root-relative files or directories to "
        "scan\n"
        "                    (default: src tools)\n"
        "  --root DIR        repository root (default: .)\n"
        "  --rule NAME       run only this rule (repeatable)\n"
        "  --baseline FILE   baseline file (default: "
        "<root>/.v10lint-baseline.json when present)\n"
        "  --no-baseline     ignore any baseline\n"
        "  --write-baseline  write the current findings as the "
        "baseline and exit\n"
        "  --format F        report format: text (default) or json\n"
        "  --out FILE        write the report to FILE instead of "
        "stdout\n"
        "  --sarif FILE      also write a SARIF 2.1.0 report to "
        "FILE\n"
        "  --error-on-new    exit 1 when new findings exist (the "
        "default; kept for CI clarity)\n"
        "  --list-rules      print the rule catalog and exit\n");
    return to == stdout ? kExitOk : kExitUsage;
}

int
listRules()
{
    for (const auto &rule : makeDefaultRules()) {
        std::printf("%-28s %s\n", rule->name(),
                    rule->description());
        const PathFilter &paths = rule->paths();
        std::printf("%-28s   paths:", "");
        for (const auto &p : paths.include)
            std::printf(" %s", p.c_str());
        for (const auto &p : paths.exclude)
            std::printf(" !%s", p.c_str());
        std::printf("\n");
    }
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    LintOptions options;
    options.paths.clear();

    std::string format = "text";
    std::string out_path;
    std::string sarif_path;
    bool write_baseline = false;
    bool no_baseline = false;
    bool baseline_given = false;

    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "v10lint: %s needs a value\n",
                         flag);
            std::exit(kExitUsage);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return usage(stdout);
        } else if (arg == "--list-rules") {
            return listRules();
        } else if (arg == "--root") {
            options.root = value(i, "--root");
        } else if (arg == "--rule") {
            options.ruleFilter.push_back(value(i, "--rule"));
        } else if (arg == "--baseline") {
            options.baselinePath = value(i, "--baseline");
            baseline_given = true;
        } else if (arg == "--no-baseline") {
            no_baseline = true;
        } else if (arg == "--write-baseline") {
            write_baseline = true;
        } else if (arg == "--format") {
            format = value(i, "--format");
            if (format != "text" && format != "json") {
                std::fprintf(stderr,
                             "v10lint: --format expects text or "
                             "json, got '%s'\n",
                             format.c_str());
                return kExitUsage;
            }
        } else if (arg == "--out") {
            out_path = value(i, "--out");
        } else if (arg == "--sarif") {
            sarif_path = value(i, "--sarif");
        } else if (arg == "--error-on-new") {
            // The default; accepted so CI invocations self-document.
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "v10lint: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        } else {
            options.paths.push_back(arg);
        }
    }
    if (options.paths.empty())
        options.paths = {"src", "tools"};

    // Baseline resolution: explicit flag wins; otherwise pick up the
    // committed default when it exists.
    namespace fs = std::filesystem;
    if (no_baseline) {
        options.baselinePath.clear();
    } else if (!baseline_given) {
        const fs::path candidate =
            fs::path(options.root) / ".v10lint-baseline.json";
        std::error_code ec;
        if (fs::is_regular_file(candidate, ec))
            options.baselinePath = candidate.string();
    }

    if (write_baseline) {
        // Generate from a baseline-less scan so existing entries do
        // not mask anything.
        LintOptions scan = options;
        scan.baselinePath.clear();
        auto report_or = runLint(scan);
        if (!report_or.ok()) {
            std::fprintf(stderr, "v10lint: %s\n",
                         report_or.error().toString().c_str());
            return kExitUsage;
        }
        const std::string path =
            baseline_given
                ? options.baselinePath
                : (fs::path(options.root) / ".v10lint-baseline.json")
                      .string();
        // Rewriting an existing baseline keeps its notes for entries
        // that are still live.
        Baseline prior;
        std::error_code exists_ec;
        if (fs::is_regular_file(path, exists_ec)) {
            auto prior_or = Baseline::load(path);
            if (prior_or.ok())
                prior = prior_or.take();
        }
        const Baseline baseline = Baseline::fromFindings(
            report_or.value().findings, &prior);
        const Status st = baseline.save(path);
        if (!st.isOk()) {
            std::fprintf(stderr, "v10lint: %s\n",
                         st.error().toString().c_str());
            return kExitUsage;
        }
        std::printf("v10lint: wrote %zu baseline entr%s to %s "
                    "(fill in the notes before committing)\n",
                    baseline.entries.size(),
                    baseline.entries.size() == 1 ? "y" : "ies",
                    path.c_str());
        return kExitOk;
    }

    auto report_or = runLint(options);
    if (!report_or.ok()) {
        std::fprintf(stderr, "v10lint: %s\n",
                     report_or.error().toString().c_str());
        return kExitUsage;
    }
    const LintReport &report = report_or.value();

    std::ostringstream rendered;
    if (format == "json")
        writeJsonReport(report, rendered);
    else
        writeTextReport(report, rendered);

    if (out_path.empty()) {
        std::cout << rendered.str();
    } else {
        std::ofstream os(out_path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr,
                         "v10lint: cannot open --out path '%s'\n",
                         out_path.c_str());
            return kExitUsage;
        }
        os << rendered.str();
    }

    if (!sarif_path.empty()) {
        std::ofstream os(sarif_path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr,
                         "v10lint: cannot open --sarif path '%s'\n",
                         sarif_path.c_str());
            return kExitUsage;
        }
        writeSarifReport(report, os);
    }

    return report.newCount() > 0 ? kExitRuntime : kExitOk;
}
