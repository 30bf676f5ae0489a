#include "lexer.h"

#include <cctype>

namespace lockcheck {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-char punctuators we keep as one token. Only the ones the analyzer
// actually inspects matter (`::`, `->`, `==`, `!=`, `<=`, `>=`); the rest
// are kept whole so they never masquerade as two interesting tokens.
const char* const kPuncts3[] = {"<<=", ">>=", "...", "->*"};
const char* const kPuncts2[] = {"::", "->", "==", "!=", "<=", ">=", "&&",
                                "||", "++", "--", "+=", "-=", "*=", "/=",
                                "%=", "&=", "|=", "^=", "<<", ">>", ".*"};

}  // namespace

TokenStream lex(const std::string& source) {
  TokenStream out;
  const std::size_t n = source.size();
  std::size_t i = 0;
  int line = 1;
  bool code_on_line = false;

  auto peek = [&](std::size_t ahead) -> char {
    return i + ahead < n ? source[i + ahead] : '\0';
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      code_on_line = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: drop to end of line (honoring continuations).
    if (c == '#' && !code_on_line) {
      while (i < n && source[i] != '\n') {
        if (source[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      std::size_t start = i + 2;
      std::size_t end = start;
      while (end < n && source[end] != '\n') ++end;
      out.comments.push_back(
          {source.substr(start, end - start), line, code_on_line});
      i = end;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int start_line = line;
      std::size_t start = i + 2;
      std::size_t end = start;
      while (end + 1 < n && !(source[end] == '*' && source[end + 1] == '/')) {
        if (source[end] == '\n') ++line;
        ++end;
      }
      out.comments.push_back(
          {source.substr(start, end - start), start_line, code_on_line});
      i = end + 1 < n ? end + 2 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t end = i;
      while (end < n && ident_char(source[end])) ++end;
      // Raw string literal: R"delim(...)delim"
      if (source[end] == '"' && (source.compare(i, end - i, "R") == 0 ||
                                 source.compare(i, end - i, "u8R") == 0 ||
                                 source.compare(i, end - i, "uR") == 0 ||
                                 source.compare(i, end - i, "UR") == 0 ||
                                 source.compare(i, end - i, "LR") == 0)) {
        std::size_t d = end + 1;
        while (d < n && source[d] != '(') ++d;
        std::string close = ")";
        close += source.substr(end + 1, d - end - 1);
        close += '"';
        std::size_t term = source.find(close, d);
        if (term == std::string::npos) term = n - close.size();
        for (std::size_t k = i; k < term + close.size() && k < n; ++k) {
          if (source[k] == '\n') ++line;
        }
        out.tokens.push_back({TokKind::kString, "\"\"", line});
        i = term + close.size();
        code_on_line = true;
        continue;
      }
      out.tokens.push_back({TokKind::kIdent, source.substr(i, end - i), line});
      i = end;
      code_on_line = true;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::size_t end = i;
      while (end < n && (ident_char(source[end]) || source[end] == '.' ||
                         ((source[end] == '+' || source[end] == '-') &&
                          end > i &&
                          (source[end - 1] == 'e' || source[end - 1] == 'E' ||
                           source[end - 1] == 'p' || source[end - 1] == 'P')))) {
        ++end;
      }
      out.tokens.push_back({TokKind::kNumber, source.substr(i, end - i), line});
      i = end;
      code_on_line = true;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t end = i + 1;
      while (end < n && source[end] != quote && source[end] != '\n') {
        if (source[end] == '\\' && end + 1 < n) ++end;
        ++end;
      }
      out.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                            source.substr(i, end + 1 - i), line});
      i = end < n ? end + 1 : n;
      code_on_line = true;
      continue;
    }
    // Punctuator: longest match first.
    bool matched = false;
    for (const char* p : kPuncts3) {
      if (source.compare(i, 3, p) == 0) {
        out.tokens.push_back({TokKind::kPunct, p, line});
        i += 3;
        matched = true;
        break;
      }
    }
    if (!matched) {
      for (const char* p : kPuncts2) {
        if (source.compare(i, 2, p) == 0) {
          out.tokens.push_back({TokKind::kPunct, p, line});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
      ++i;
    }
    code_on_line = true;
  }
  return out;
}

}  // namespace lockcheck
