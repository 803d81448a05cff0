/**
 * @file
 * One analyzed translation unit: its text, its token stream, and the
 * suppressions its comments declared. Rules receive a SourceFile and
 * emit findings against it; the analyzer then drops findings the
 * file suppressed inline.
 */

#ifndef V10_ANALYSIS_SOURCE_FILE_H
#define V10_ANALYSIS_SOURCE_FILE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lexer.h"
#include "common/result.h"

namespace v10::analysis {

/** A lexed source file, addressed by its root-relative path. */
class SourceFile
{
  public:
    /**
     * Build from in-memory text (tests, fixtures). @p relPath is the
     * path rules see — fixtures pass a pretend path to exercise
     * path-scoped rules.
     */
    static SourceFile fromString(std::string relPath,
                                 const std::string &text);

    /** Load @p absPath from disk; ParseError when unreadable. */
    static Result<SourceFile> load(std::string relPath,
                                   const std::string &absPath);

    /** Root-relative path with forward slashes. */
    const std::string &path() const { return path_; }

    const std::vector<Token> &tokens() const { return lexed_.tokens; }

    /** Verbatim source line (1-based), for finding snippets. */
    const std::string &lineText(std::size_t line) const;

    /**
     * True when @p rule is suppressed at @p line: an allow() on this
     * line or the one above, or an allow-file() anywhere.
     */
    bool isSuppressed(const std::string &rule,
                      std::size_t line) const;

  private:
    std::string path_;
    LexedSource lexed_;
    std::vector<std::string> lines_;
};

} // namespace v10::analysis

#endif // V10_ANALYSIS_SOURCE_FILE_H
