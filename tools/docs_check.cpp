// docs-check: keep the prose honest.
//
// Scans DESIGN.md, docs/USAGE.md, docs/SERVE.md, and README.md for
// inline-backtick references and verifies each against the source of
// truth:
//
//   * `--flag` tokens must appear as string literals in dsspy_cli.cpp
//     or the pipeline layer sources (src/pipeline/) the CLI parses into
//     (so the docs cannot advertise a CLI flag that does not parse);
//   * `dsspy <subcommand>` tokens must name a real subcommand literal;
//   * path-like tokens (`src/core/`, `tests/test_incremental.cpp`,
//     `BENCH_trace.json`, `core/incremental.{hpp,cpp}`) must exist in
//     the repo (also resolved against src/);
//   * `bench/<name>` tokens must name a declared CMake target;
//   * `§N` section references — in the docs and in every comment under
//     src/, tools/, tests/ — must name an existing `## N.` DESIGN.md
//     heading (so renumbering a section cannot strand stale pointers);
//   * `AdviceAction::Name` tokens must name an enumerator of the
//     structured-advice enum in src/core/advice.hpp (so the advice
//     vocabulary the docs advertise cannot drift from the code);
//   * type names — tokens led by an identifier with two or more
//     capitalised humps (`ColumnStore`, `ColumnStore::group`) — must occur
//     as a word in src/, tools/, bench/, tests/ or examples/ (so a deleted
//     type cannot live on in the prose).
//
// Fenced code blocks are skipped (they show output and shell sessions,
// not references).  Tokens containing spaces, globs, '<>', '::', or
// parentheses are prose, not references, and are ignored.
//
// Usage: docs_check <repo_root>   (exit 0 = docs clean, 1 = stale refs)
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "docs_check: cannot open " << path << '\n';
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// All double-quoted string literals in a C++ source file.
std::set<std::string> string_literals(const std::string& source) {
    std::set<std::string> out;
    for (std::size_t i = 0; i < source.size(); ++i) {
        if (source[i] != '"') continue;
        std::string lit;
        for (++i; i < source.size() && source[i] != '"'; ++i) {
            if (source[i] == '\\' && i + 1 < source.size()) ++i;
            lit += source[i];
        }
        out.insert(lit);
    }
    return out;
}

/// Target/test names declared in a CMakeLists.txt.
void collect_cmake_names(const std::string& text, std::set<std::string>& out) {
    static const std::vector<std::string> kIntros = {
        "add_executable(", "add_library(",    "add_test(NAME ",
        "add_test(",       "dsspy_add_bench(", "dsspy_add_test(",
    };
    for (const std::string& intro : kIntros) {
        std::size_t pos = 0;
        while ((pos = text.find(intro, pos)) != std::string::npos) {
            std::size_t j = pos + intro.size();
            while (j < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[j])))
                ++j;
            std::string name;
            while (j < text.size() &&
                   (std::isalnum(static_cast<unsigned char>(text[j])) ||
                    text[j] == '_'))
                name += text[j++];
            if (!name.empty() && name != "NAME") out.insert(name);
            pos = j;
        }
    }
}

/// Inline-backtick tokens of a markdown file, fenced blocks excluded.
std::vector<std::string> backtick_tokens(const std::string& text) {
    std::vector<std::string> tokens;
    bool fenced = false;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("```", 0) == 0) {
            fenced = !fenced;
            continue;
        }
        if (fenced) continue;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] != '`') continue;
            const std::size_t end = line.find('`', i + 1);
            if (end == std::string::npos) break;
            tokens.push_back(line.substr(i + 1, end - i - 1));
            i = end;
        }
    }
    return tokens;
}

/// Expand a single `{a,b}` group: "core/x.{hpp,cpp}" -> two paths.
std::vector<std::string> expand_braces(const std::string& token) {
    const std::size_t open = token.find('{');
    const std::size_t close = token.find('}', open);
    if (open == std::string::npos || close == std::string::npos)
        return {token};
    std::vector<std::string> out;
    std::string alts = token.substr(open + 1, close - open - 1);
    std::istringstream parts(alts);
    std::string alt;
    while (std::getline(parts, alt, ','))
        out.push_back(token.substr(0, open) + alt + token.substr(close + 1));
    return out;
}

bool has_known_extension(const std::string& token) {
    static const std::vector<std::string> kExts = {
        ".md",  ".json", ".cpp", ".hpp", ".h",
        ".svg", ".txt",  ".csv", ".dst"};
    for (const std::string& ext : kExts)
        if (token.size() > ext.size() &&
            token.compare(token.size() - ext.size(), ext.size(), ext) == 0)
            return true;
    return false;
}

std::string first_word(const std::string& token) {
    const std::size_t space = token.find(' ');
    return space == std::string::npos ? token : token.substr(0, space);
}

bool contains_any(const std::string& token, const std::string& chars) {
    return token.find_first_of(chars) != std::string::npos;
}

/// Enumerator names of `enum class AdviceAction` in src/core/advice.hpp.
std::set<std::string> advice_action_names(const std::string& source) {
    std::set<std::string> out;
    const std::size_t start = source.find("enum class AdviceAction");
    if (start == std::string::npos) return out;
    const std::size_t open = source.find('{', start);
    const std::size_t close = source.find('}', open);
    if (open == std::string::npos || close == std::string::npos) return out;
    std::size_t i = open + 1;
    while (i < close) {
        while (i < close &&
               !std::isalpha(static_cast<unsigned char>(source[i]))) {
            if (source[i] == '/' && i + 1 < close && source[i + 1] == '/')
                i = source.find('\n', i);  // skip the enumerator comment
            if (i == std::string::npos || i >= close) return out;
            ++i;
        }
        std::string name;
        while (i < close &&
               (std::isalnum(static_cast<unsigned char>(source[i])) ||
                source[i] == '_'))
            name += source[i++];
        if (!name.empty()) out.insert(name);
    }
    return out;
}

bool is_word_char(char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
}

/// The identifier that leads `token` when it names a type: two or more
/// capitalised humps (an uppercase letter followed by a lowercase one), so
/// `ColumnStore` and `ProfilingSession::store` qualify but `DST1`,
/// `Buffered` and `kSeqBlockSize` do not.  Empty otherwise.
std::string leading_type_name(const std::string& token) {
    if (token.empty() ||
        !std::isupper(static_cast<unsigned char>(token.front())))
        return {};
    std::size_t end = 0;
    int humps = 0;
    while (end < token.size() && is_word_char(token[end])) {
        if (std::isupper(static_cast<unsigned char>(token[end])) &&
            end + 1 < token.size() &&
            std::islower(static_cast<unsigned char>(token[end + 1])))
            ++humps;
        ++end;
    }
    return humps >= 2 ? token.substr(0, end) : std::string{};
}

/// Every identifier-like word in the source files under `root/dir`.
void collect_words(const fs::path& root, const char* dir,
                   std::set<std::string>& out) {
    if (!fs::exists(root / dir)) return;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(root / dir)) {
        const std::string ext = entry.path().extension().string();
        if (ext != ".hpp" && ext != ".cpp" && ext != ".h") continue;
        const std::string text = read_file(entry.path());
        for (std::size_t i = 0; i < text.size();) {
            if (!is_word_char(text[i])) {
                ++i;
                continue;
            }
            const std::size_t begin = i;
            while (i < text.size() && is_word_char(text[i])) ++i;
            out.insert(text.substr(begin, i - begin));
        }
    }
}

/// Section numbers with a `## N.` heading in DESIGN.md.
std::set<int> design_sections(const std::string& design_text) {
    std::set<int> out;
    std::istringstream lines(design_text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("## ", 0) != 0) continue;
        std::size_t i = 3;
        std::string digits;
        while (i < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[i])))
            digits += line[i++];
        if (!digits.empty() && i < line.size() && line[i] == '.')
            out.insert(std::stoi(digits));
    }
    return out;
}

/// Every `§N` reference in `text` (the UTF-8 section sign is the two
/// bytes 0xC2 0xA7).
std::vector<int> section_refs(const std::string& text) {
    static const std::string kSign = "\xc2\xa7";
    std::vector<int> out;
    std::size_t pos = 0;
    while ((pos = text.find(kSign, pos)) != std::string::npos) {
        pos += kSign.size();
        std::string digits;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            digits += text[pos++];
        if (!digits.empty()) out.push_back(std::stoi(digits));
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::cerr << "usage: docs_check <repo_root>\n";
        return 2;
    }
    const fs::path root = argv[1];

    // The CLI is a thin parser over src/pipeline/ (DESIGN.md §10): flag
    // and message literals the docs cite live in either place.
    std::set<std::string> cli_literals =
        string_literals(read_file(root / "tools" / "dsspy_cli.cpp"));
    if (fs::exists(root / "src" / "pipeline"))
        for (const fs::directory_entry& entry :
             fs::directory_iterator(root / "src" / "pipeline")) {
            const std::string ext = entry.path().extension().string();
            if (ext == ".hpp" || ext == ".cpp")
                for (const std::string& lit :
                     string_literals(read_file(entry.path())))
                    cli_literals.insert(lit);
        }

    std::set<std::string> cmake_names;
    for (const char* dir :
         {"", "src", "tests", "tools", "bench", "examples"}) {
        const fs::path lists = root / dir / "CMakeLists.txt";
        if (fs::exists(lists))
            collect_cmake_names(read_file(lists), cmake_names);
        const fs::path sub = root / dir;
        if (std::string(dir) == "src" && fs::exists(sub))
            for (const fs::directory_entry& entry :
                 fs::directory_iterator(sub))
                if (entry.is_directory() &&
                    fs::exists(entry.path() / "CMakeLists.txt"))
                    collect_cmake_names(
                        read_file(entry.path() / "CMakeLists.txt"),
                        cmake_names);
    }

    /// True when some CLI string literal contains `needle`.
    const auto cli_has = [&cli_literals](const std::string& needle) {
        if (cli_literals.count(needle) != 0) return true;
        for (const std::string& lit : cli_literals)
            if (lit.find(needle) != std::string::npos) return true;
        return false;
    };

    const std::set<std::string> advice_actions = advice_action_names(
        read_file(root / "src" / "core" / "advice.hpp"));

    std::set<std::string> source_words;
    for (const char* dir : {"src", "tools", "bench", "tests", "examples"})
        collect_words(root, dir, source_words);

    int errors = 0;
    const auto fail = [&errors](const fs::path& doc, const std::string& token,
                                const std::string& why) {
        std::cerr << "docs_check: " << doc.filename().string() << ": `"
                  << token << "` " << why << '\n';
        ++errors;
    };

    const std::vector<fs::path> docs = {root / "DESIGN.md",
                                        root / "docs" / "USAGE.md",
                                        root / "docs" / "SERVE.md",
                                        root / "README.md"};
    for (const fs::path& doc : docs) {
        const std::string text = read_file(doc);
        for (const std::string& token : backtick_tokens(text)) {
            if (token.empty()) continue;

            // CLI flags: `--flag`, `--flag VALUE`, `--key=value`.
            if (token.rfind("--", 0) == 0) {
                const std::string flag = first_word(token);
                const std::string base = flag.substr(0, flag.find('='));
                if (!cli_has(flag) && !cli_has(base))
                    fail(doc, token, "is not a flag in dsspy_cli.cpp");
                continue;
            }

            // Subcommands: `dsspy watch`, `dsspy analyze <trace>`.
            if (token.rfind("dsspy ", 0) == 0) {
                std::istringstream words(token);
                std::string cmd, sub;
                words >> cmd >> sub;
                bool alpha = !sub.empty();
                for (char ch : sub)
                    alpha = alpha &&
                            std::islower(static_cast<unsigned char>(ch));
                if (alpha && cli_literals.count(sub) == 0)
                    fail(doc, token,
                         "names a subcommand missing from dsspy_cli.cpp");
                continue;
            }

            // Type names must still exist in the code.
            const std::string type = leading_type_name(token);
            if (!type.empty() && source_words.count(type) == 0) {
                fail(doc, token,
                     "names a type that no source file under src/, "
                     "tools/, bench/, tests/ or examples/ mentions");
                continue;
            }

            // Advice vocabulary: `AdviceAction::Name` must be an
            // enumerator (checked before the prose filter below, which
            // would skip any token containing "::").
            if (token.rfind("AdviceAction::", 0) == 0) {
                const std::string name = token.substr(14);
                if (name != "Count" && advice_actions.count(name) == 0)
                    fail(doc, token,
                         "is not an AdviceAction enumerator in "
                         "src/core/advice.hpp");
                continue;
            }

            // Prose, code identifiers, globs, env assignments: skip.
            if (contains_any(token, " <>*()@:=\"") ||
                token.front() == '/')
                continue;

            // Bench targets: `bench/<name>` (no extension).
            if (token.rfind("bench/", 0) == 0 && !has_known_extension(token)) {
                const std::string name = token.substr(6);
                if (cmake_names.count(name) == 0)
                    fail(doc, token, "is not a declared CMake target");
                continue;
            }

            // Repo paths: anything with a '/' or a known file extension.
            if (token.find('/') == std::string::npos &&
                !has_known_extension(token))
                continue;
            if (token.find("build/") != std::string::npos) continue;
            bool found = false;
            for (const std::string& candidate : expand_braces(token))
                found = found || fs::exists(root / candidate) ||
                        fs::exists(root / "src" / candidate);
            if (!found) fail(doc, token, "does not exist in the repo");
        }
    }

    // §N references: every section pointer in the docs and in source
    // comments must resolve to a DESIGN.md heading.
    const std::set<int> sections =
        design_sections(read_file(root / "DESIGN.md"));
    const auto check_sections = [&](const fs::path& file) {
        for (const int ref : section_refs(read_file(file)))
            if (sections.count(ref) == 0)
                fail(file, "\xc2\xa7" + std::to_string(ref),
                     "does not match any DESIGN.md `## N.` heading");
    };
    for (const fs::path& doc : docs) check_sections(doc);
    for (const char* dir : {"src", "tools", "tests"})
        for (const fs::directory_entry& entry :
             fs::recursive_directory_iterator(root / dir)) {
            const std::string ext = entry.path().extension().string();
            if (ext == ".hpp" || ext == ".cpp" || ext == ".h")
                check_sections(entry.path());
        }

    if (errors != 0) {
        std::cerr << "docs_check: " << errors << " stale reference(s)\n";
        return 1;
    }
    std::cout << "docs_check: all documentation references resolve\n";
    return 0;
}
