#include "analysis/source_file.h"

#include <fstream>
#include <sstream>

namespace v10::analysis {

SourceFile
SourceFile::fromString(std::string relPath, const std::string &text)
{
    SourceFile f;
    f.path_ = std::move(relPath);
    f.lexed_ = lexSource(text);
    std::string line;
    std::istringstream is(text);
    while (std::getline(is, line))
        f.lines_.push_back(line);
    return f;
}

Result<SourceFile>
SourceFile::load(std::string relPath, const std::string &absPath)
{
    std::ifstream is(absPath, std::ios::binary);
    if (!is)
        return parseError("cannot open source file", absPath);
    std::ostringstream buf;
    buf << is.rdbuf();
    return fromString(std::move(relPath), buf.str());
}

const std::string &
SourceFile::lineText(std::size_t line) const
{
    static const std::string empty;
    if (line == 0 || line > lines_.size())
        return empty;
    return lines_[line - 1];
}

bool
SourceFile::isSuppressed(const std::string &rule,
                         std::size_t line) const
{
    if (lexed_.allowFile.count(rule))
        return true;
    auto covers = [&](std::size_t l) {
        auto it = lexed_.allowByLine.find(l);
        return it != lexed_.allowByLine.end() &&
               it->second.count(rule) > 0;
    };
    return covers(line) || (line > 0 && covers(line - 1));
}

} // namespace v10::analysis
