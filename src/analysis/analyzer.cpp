#include "analysis/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace v10::analysis {

namespace fs = std::filesystem;

namespace {

bool
isSourceExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" ||
           ext == ".cc" || ext == ".cxx";
}

std::string
toForwardSlashes(std::string s)
{
    std::replace(s.begin(), s.end(), '\\', '/');
    return s;
}

/** Collect the scan set, sorted by relative path so reports,
 * baselines, and exit codes are machine-independent. */
Result<std::vector<std::pair<std::string, std::string>>>
collectFiles(const LintOptions &options)
{
    std::vector<std::pair<std::string, std::string>> files;
    const fs::path root(options.root);
    std::error_code ec;
    if (!fs::exists(root, ec) || ec)
        return parseError("lint root does not exist", options.root);

    for (const std::string &rel : options.paths) {
        const fs::path base = root / rel;
        if (fs::is_regular_file(base, ec)) {
            files.emplace_back(toForwardSlashes(rel),
                               base.string());
            continue;
        }
        if (!fs::is_directory(base, ec))
            return parseError("scan path not found", rel);
        for (fs::recursive_directory_iterator it(base, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (!it->is_regular_file() ||
                !isSourceExtension(it->path()))
                continue;
            const std::string abs = it->path().string();
            const std::string relpath = toForwardSlashes(
                fs::relative(it->path(), root).string());
            files.emplace_back(relpath, abs);
        }
        if (ec)
            return parseError("cannot walk scan path: " +
                                  ec.message(),
                              rel);
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());
    return files;
}

/** The rule pack, narrowed by --rule filters. */
Result<std::vector<std::unique_ptr<Rule>>>
selectRules(const LintOptions &options)
{
    std::vector<std::unique_ptr<Rule>> rules = makeDefaultRules();
    if (options.ruleFilter.empty())
        return rules;
    std::set<std::string> wanted(options.ruleFilter.begin(),
                                 options.ruleFilter.end());
    std::vector<std::unique_ptr<Rule>> selected;
    for (auto &rule : rules) {
        if (wanted.erase(rule->name()) > 0)
            selected.push_back(std::move(rule));
    }
    if (!wanted.empty())
        return parseError("unknown rule name", "", 0,
                          *wanted.begin());
    return selected;
}

/** Baseline matching: each entry absorbs up to `count` findings
 * with its (rule, file, hash) key; leftovers are new, unmatched
 * entries are stale. Shared by the cold path and cache replay. */
void
applyBaseline(LintReport &report, const Baseline &baseline)
{
    std::map<std::tuple<std::string, std::string, std::string>,
             std::pair<std::size_t, const BaselineEntry *>>
        remaining;
    for (const BaselineEntry &e : baseline.entries) {
        auto &slot =
            remaining[std::make_tuple(e.rule, e.file, e.hash)];
        slot.first += e.count;
        slot.second = &e;
    }
    for (Finding &f : report.findings) {
        auto it = remaining.find(
            std::make_tuple(f.rule, f.file, findingHash(f)));
        if (it != remaining.end() && it->second.first > 0) {
            --it->second.first;
            f.status = FindingStatus::Baselined;
        }
    }
    for (const BaselineEntry &e : baseline.entries) {
        auto it = remaining.find(
            std::make_tuple(e.rule, e.file, e.hash));
        if (it != remaining.end() && it->second.first >= e.count) {
            // Nothing consumed any of this entry's budget.
            report.stale.push_back(e);
            it->second.first -= e.count;
        }
    }
}

} // namespace

LintReport
lintSources(const std::vector<SourceFile> &files,
            const LintOptions &options, const Baseline *baseline)
{
    LintReport report;
    report.filesScanned = files.size();

    auto rules_or = selectRules(options);
    // Callers of lintSources pass validated options (runLint
    // rejects unknown rule names before loading any file).
    std::vector<std::unique_ptr<Rule>> rules = rules_or.take();

    RuleContext ctx;
    for (const SourceFile &file : files) {
        for (auto &rule : rules)
            rule->collect(file, ctx);
    }

    for (const SourceFile &file : files) {
        for (auto &rule : rules) {
            if (!rule->paths().matches(file.path()))
                continue;
            std::vector<Finding> raw;
            // Rule::check is void; the name merely collides with
            // Status-returning check() APIs collected repo-wide.
            // v10lint: allow(error-discarded-result)
            rule->check(file, ctx, raw);
            for (Finding &f : raw) {
                if (file.isSuppressed(f.rule, f.line))
                    ++report.suppressedInline;
                else
                    report.findings.push_back(std::move(f));
            }
        }
    }

    if (baseline != nullptr)
        applyBaseline(report, *baseline);
    return report;
}

Result<LintReport>
runLint(const LintOptions &options)
{
    // Validate the rule filter up front for a crisp usage error.
    auto rules_or = selectRules(options);
    if (!rules_or.ok())
        return rules_or.error();

    auto files_or = collectFiles(options);
    if (!files_or.ok())
        return files_or.error();

    std::vector<SourceFile> sources;
    sources.reserve(files_or.value().size());
    for (const auto &[rel, abs] : files_or.value()) {
        auto file_or = SourceFile::load(rel, abs);
        if (!file_or.ok())
            return file_or.error();
        sources.push_back(file_or.take());
    }

    Baseline baseline;
    const bool have_baseline = !options.baselinePath.empty();
    if (have_baseline) {
        auto baseline_or = Baseline::load(options.baselinePath);
        if (!baseline_or.ok())
            return baseline_or.error();
        baseline = baseline_or.take();
    }

    return lintSources(sources, options,
                       have_baseline ? &baseline : nullptr);
}

} // namespace v10::analysis
