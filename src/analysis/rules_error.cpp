/**
 * @file
 * Error-discipline rules. PR 3 made ingestion recoverable: library
 * code reports failures as Result<T>/Status and the process-exit
 * decision belongs to the caller (CLI, bench, embedding service).
 * These rules keep that boundary from eroding.
 */

#include <set>
#include <string>

#include "analysis/rules_internal.h"

namespace v10::analysis {

namespace {

using detail::matchForward;
using detail::prevText;
using detail::tokenIs;

/**
 * Ban process-killing calls in library code. panic()/V10_PANIC stay
 * legal: they mark simulator bugs (broken invariants and violated
 * preconditions), not user errors, and gem5-style panic semantics
 * are part of the design. Only fatal() itself, in src/common/log.*,
 * is exempt; there is no Status-to-fatal bridge.
 */
class NoFatalRule : public Rule
{
  public:
    const char *name() const override { return "error-no-fatal"; }

    const char *
    description() const override
    {
        return "bans fatal()/abort()/exit() in library code: return "
               "Result<T>/Status (src/common/result.h) and let the "
               "caller decide how to die (docs/ROBUSTNESS.md)";
    }

    const PathFilter &
    paths() const override
    {
        static const PathFilter filter{
            {"src/"},
            {"src/common/log.h", "src/common/log.cpp"}};
        return filter;
    }

    void
    check(const SourceFile &file, const RuleContext &,
          std::vector<Finding> &out) override
    {
        static const std::set<std::string> banned = {
            "fatal", "abort", "exit", "_Exit", "quick_exit",
            "V10_FATAL",
        };
        const auto &toks = file.tokens();
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!toks[i].isIdent() || !banned.count(toks[i].text))
                continue;
            const std::string &prev = prevText(toks, i);
            if (prev == "." || prev == "->")
                continue; // a member that happens to share the name
            if (!tokenIs(toks, i + 1, "("))
                continue;
            out.push_back(finding(
                *this, file, toks[i].line,
                "'" + toks[i].text +
                    "()' kills the process from library code; "
                    "return Result<T>/Status so the caller decides "
                    "(panic() is the invariant-violation path)"));
        }
    }
};

/**
 * Flag expression-statements that discard a Result<T>/Status/
 * ParseError return. collect() gathers the names of functions
 * declared with those return types anywhere in the scan, so calls
 * are caught in files that only see the declaration through a
 * header. The [[nodiscard]] attributes on the types are the
 * compiler-enforced backstop; this rule reports the same class of
 * bug at lint time with a source-anchored diagnostic.
 */
class DiscardedResultRule : public Rule
{
  public:
    const char *
    name() const override
    {
        return "error-discarded-result";
    }

    const char *
    description() const override
    {
        return "flags statements that call a Result/Status-returning "
               "function and drop the value: an unchecked error is "
               "an ignored error";
    }

    const PathFilter &
    paths() const override
    {
        static const PathFilter filter{{"src/", "tools/"}, {}};
        return filter;
    }

    void
    collect(const SourceFile &file, RuleContext &ctx) override
    {
        const auto &toks = file.tokens();
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!toks[i].isIdent())
                continue;
            std::size_t after = i + 1;
            if (toks[i].is("Result")) {
                if (!tokenIs(toks, after, "<"))
                    continue;
                after = matchForward(toks, after);
                if (after >= toks.size())
                    continue;
                ++after;
            } else if (toks[i].is("Status") ||
                       toks[i].is("ParseError")) {
                // plain return type
            } else {
                continue;
            }
            // Skip over the qualified name: Ident (:: Ident)*.
            if (after >= toks.size() || !toks[after].isIdent())
                continue;
            std::size_t name_at = after;
            while (tokenIs(toks, name_at + 1, "::") &&
                   name_at + 2 < toks.size() &&
                   toks[name_at + 2].isIdent())
                name_at += 2;
            if (tokenIs(toks, name_at + 1, "("))
                ctx.resultReturning.insert(toks[name_at].text);
        }
    }

    void
    check(const SourceFile &file, const RuleContext &ctx,
          std::vector<Finding> &out) override
    {
        const auto &toks = file.tokens();
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!toks[i].isIdent() ||
                !ctx.resultReturning.count(toks[i].text) ||
                !tokenIs(toks, i + 1, "("))
                continue;
            const std::size_t close = matchForward(toks, i + 1);
            if (!tokenIs(toks, close + 1, ";"))
                continue; // the value is consumed somehow

            // Walk back over the object/namespace chain to the
            // start of the expression-statement.
            std::size_t start = i;
            while (start >= 2) {
                const std::string &link = toks[start - 1].text;
                if ((link == "." || link == "->" || link == "::") &&
                    (toks[start - 2].isIdent() ||
                     toks[start - 2].is(")")))
                    start -= 2;
                else
                    break;
            }
            if (start == 0)
                continue;
            const std::string &before = toks[start - 1].text;
            static const std::set<std::string> stmt_start = {
                ";", "{", "}", ")", "else", ":",
            };
            if (!stmt_start.count(before))
                continue;
            // "(void)call();" is an explicit discard — honor it.
            if (before == ")" && start >= 3 &&
                toks[start - 2].is("void") && toks[start - 3].is("("))
                continue;
            out.push_back(finding(
                *this, file, toks[i].line,
                "call to '" + toks[i].text +
                    "' discards its Result/Status; check it, or "
                    "cast to void with a reason"));
        }
    }
};

} // namespace

std::vector<std::unique_ptr<Rule>>
makeErrorDisciplineRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<NoFatalRule>());
    rules.push_back(std::make_unique<DiscardedResultRule>());
    return rules;
}

} // namespace v10::analysis
