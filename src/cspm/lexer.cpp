#include "cspm/lexer.hpp"

#include <cctype>
#include <charconv>
#include <system_error>
#include <unordered_map>

namespace ecucsp::cspm {

std::string to_string(Tok k) {
  switch (k) {
    case Tok::End: return "<end>";
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::KwChannel: return "'channel'";
    case Tok::KwDatatype: return "'datatype'";
    case Tok::KwNametype: return "'nametype'";
    case Tok::KwAssert: return "'assert'";
    case Tok::KwIf: return "'if'";
    case Tok::KwThen: return "'then'";
    case Tok::KwElse: return "'else'";
    case Tok::KwLet: return "'let'";
    case Tok::KwWithin: return "'within'";
    case Tok::KwStop: return "'STOP'";
    case Tok::KwSkip: return "'SKIP'";
    case Tok::KwTrue: return "'true'";
    case Tok::KwFalse: return "'false'";
    case Tok::KwNot: return "'not'";
    case Tok::KwAnd: return "'and'";
    case Tok::KwOr: return "'or'";
    case Tok::Arrow: return "'->'";
    case Tok::LArrow: return "'<-'";
    case Tok::ExtChoice: return "'[]'";
    case Tok::IntChoice: return "'|~|'";
    case Tok::Interleave: return "'|||'";
    case Tok::LSync: return "'[|'";
    case Tok::RSync: return "'|]'";
    case Tok::LRenameB: return "'[['";
    case Tok::RRenameB: return "']]'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::LBraceBar: return "'{|'";
    case Tok::RBraceBar: return "'|}'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::ParSplit: return "'||'";
    case Tok::Semi: return "';'";
    case Tok::Comma: return "','";
    case Tok::Dot: return "'.'";
    case Tok::DotDot: return "'..'";
    case Tok::Question: return "'?'";
    case Tok::Bang: return "'!'";
    case Tok::Equals: return "'='";
    case Tok::EqEq: return "'=='";
    case Tok::NotEq: return "'!='";
    case Tok::Less: return "'<'";
    case Tok::Greater: return "'>'";
    case Tok::LessEq: return "'<='";
    case Tok::GreaterEq: return "'>='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Backslash: return "'\\'";
    case Tok::At: return "'@'";
    case Tok::Colon: return "':'";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::InterruptOp: return "'/\\'";
    case Tok::SlideOp: return "'[>'";
    case Tok::RefinesT: return "'[T='";
    case Tok::RefinesF: return "'[F='";
    case Tok::RefinesFD: return "'[FD='";
    case Tok::ColonLBracket: return "':['";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string_view, Tok> kKeywords = {
    {"channel", Tok::KwChannel}, {"datatype", Tok::KwDatatype},
    {"nametype", Tok::KwNametype}, {"assert", Tok::KwAssert},
    {"if", Tok::KwIf},           {"then", Tok::KwThen},
    {"else", Tok::KwElse},       {"let", Tok::KwLet},
    {"within", Tok::KwWithin},   {"STOP", Tok::KwStop},
    {"SKIP", Tok::KwSkip},       {"true", Tok::KwTrue},
    {"false", Tok::KwFalse},     {"not", Tok::KwNot},
    {"and", Tok::KwAnd},         {"or", Tok::KwOr},
};

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1;
  int col = 1;

  const auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };
  const auto starts = [&](std::string_view s) {
    return src.substr(i).starts_with(s);
  };
  const auto push = [&](Tok kind, std::size_t len, std::string text = {}) {
    out.push_back({kind, std::move(text), 0, line, col});
    advance(len);
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Comments.
    if (starts("--")) {
      while (i < src.size() && src[i] != '\n') advance(1);
      continue;
    }
    if (starts("{-")) {
      int depth = 1;
      const int start_line = line;
      advance(2);
      while (i < src.size() && depth > 0) {
        if (starts("{-")) {
          ++depth;
          advance(2);
        } else if (starts("-}")) {
          --depth;
          advance(2);
        } else {
          advance(1);
        }
      }
      if (depth > 0) throw LexError("unterminated block comment", start_line, 1);
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < src.size() && std::isdigit(static_cast<unsigned char>(src[j]))) {
        ++j;
      }
      Token t{Tok::Number, std::string(src.substr(i, j - i)), 0, line, col};
      if (std::from_chars(src.data() + i, src.data() + j, t.number).ec !=
          std::errc{}) {
        throw LexError("integer literal out of range", line, col);
      }
      out.push_back(std::move(t));
      advance(j - i);
      continue;
    }
    // Identifiers / keywords. CSPm names may contain primes and underscores.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[j])) ||
              src[j] == '_' || src[j] == '\'')) {
        ++j;
      }
      const std::string_view word = src.substr(i, j - i);
      if (auto it = kKeywords.find(word); it != kKeywords.end()) {
        push(it->second, word.size());
      } else {
        push(Tok::Ident, word.size(), std::string(word));
      }
      continue;
    }
    // Multi-character operators, longest first.
    if (starts("/\\")) { push(Tok::InterruptOp, 2); continue; }
    if (starts("[>")) { push(Tok::SlideOp, 2); continue; }
    if (starts("[FD=")) { push(Tok::RefinesFD, 4); continue; }
    if (starts("[T=")) { push(Tok::RefinesT, 3); continue; }
    if (starts("[F=")) { push(Tok::RefinesF, 3); continue; }
    if (starts("|~|")) { push(Tok::IntChoice, 3); continue; }
    if (starts("|||")) { push(Tok::Interleave, 3); continue; }
    if (starts("->")) { push(Tok::Arrow, 2); continue; }
    if (starts("<-")) { push(Tok::LArrow, 2); continue; }
    if (starts("[]")) { push(Tok::ExtChoice, 2); continue; }
    if (starts("[|")) { push(Tok::LSync, 2); continue; }
    if (starts("|]")) { push(Tok::RSync, 2); continue; }
    if (starts("[[")) { push(Tok::LRenameB, 2); continue; }
    if (starts("]]")) { push(Tok::RRenameB, 2); continue; }
    if (starts("{|")) { push(Tok::LBraceBar, 2); continue; }
    if (starts("|}")) { push(Tok::RBraceBar, 2); continue; }
    if (starts("||")) { push(Tok::ParSplit, 2); continue; }
    if (starts("..")) { push(Tok::DotDot, 2); continue; }
    if (starts("==")) { push(Tok::EqEq, 2); continue; }
    if (starts("!=")) { push(Tok::NotEq, 2); continue; }
    if (starts("<=")) { push(Tok::LessEq, 2); continue; }
    if (starts(">=")) { push(Tok::GreaterEq, 2); continue; }
    if (starts(":[")) { push(Tok::ColonLBracket, 2); continue; }
    switch (c) {
      case '[': push(Tok::LBracket, 1); continue;
      case ']': push(Tok::RBracket, 1); continue;
      case '{': push(Tok::LBrace, 1); continue;
      case '}': push(Tok::RBrace, 1); continue;
      case '(': push(Tok::LParen, 1); continue;
      case ')': push(Tok::RParen, 1); continue;
      case ';': push(Tok::Semi, 1); continue;
      case ',': push(Tok::Comma, 1); continue;
      case '.': push(Tok::Dot, 1); continue;
      case '?': push(Tok::Question, 1); continue;
      case '!': push(Tok::Bang, 1); continue;
      case '=': push(Tok::Equals, 1); continue;
      case '<': push(Tok::Less, 1); continue;
      case '>': push(Tok::Greater, 1); continue;
      case '+': push(Tok::Plus, 1); continue;
      case '-': push(Tok::Minus, 1); continue;
      case '*': push(Tok::Star, 1); continue;
      case '/': push(Tok::Slash, 1); continue;
      case '%': push(Tok::Percent, 1); continue;
      case '\\': push(Tok::Backslash, 1); continue;
      case '@': push(Tok::At, 1); continue;
      case ':': push(Tok::Colon, 1); continue;
      case '&': push(Tok::Amp, 1); continue;
      case '|': push(Tok::Pipe, 1); continue;
      default:
        throw LexError(std::string("unexpected character '") + c + "'", line,
                       col);
    }
  }
  out.push_back({Tok::End, {}, 0, line, col});
  return out;
}

}  // namespace ecucsp::cspm
