#include "capl/lexer.hpp"

#include <cctype>
#include <charconv>
#include <system_error>
#include <unordered_map>

namespace ecucsp::capl {

std::string to_string(Tok k) {
  switch (k) {
    case Tok::End: return "<end>";
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::CharLit: return "character literal";
    case Tok::StringLit: return "string literal";
    case Tok::KwIncludes: return "'includes'";
    case Tok::KwVariables: return "'variables'";
    case Tok::KwOn: return "'on'";
    case Tok::KwMessage: return "'message'";
    case Tok::KwTimer: return "'timer'";
    case Tok::KwMsTimer: return "'msTimer'";
    case Tok::KwKey: return "'key'";
    case Tok::KwStart: return "'start'";
    case Tok::KwStopM: return "'stopMeasurement'";
    case Tok::KwInt: return "'int'";
    case Tok::KwLong: return "'long'";
    case Tok::KwByte: return "'byte'";
    case Tok::KwWord: return "'word'";
    case Tok::KwDword: return "'dword'";
    case Tok::KwChar: return "'char'";
    case Tok::KwFloat: return "'float'";
    case Tok::KwDouble: return "'double'";
    case Tok::KwVoid: return "'void'";
    case Tok::KwIf: return "'if'";
    case Tok::KwElse: return "'else'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwFor: return "'for'";
    case Tok::KwSwitch: return "'switch'";
    case Tok::KwCase: return "'case'";
    case Tok::KwDefault: return "'default'";
    case Tok::KwBreak: return "'break'";
    case Tok::KwReturn: return "'return'";
    case Tok::KwThis: return "'this'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Semi: return "';'";
    case Tok::Comma: return "','";
    case Tok::Dot: return "'.'";
    case Tok::Colon: return "':'";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::EqEq: return "'=='";
    case Tok::NotEq: return "'!='";
    case Tok::Less: return "'<'";
    case Tok::Greater: return "'>'";
    case Tok::LessEq: return "'<='";
    case Tok::GreaterEq: return "'>='";
    case Tok::AndAnd: return "'&&'";
    case Tok::OrOr: return "'||'";
    case Tok::Not: return "'!'";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::Caret: return "'^'";
    case Tok::Tilde: return "'~'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::PlusPlus: return "'++'";
    case Tok::MinusMinus: return "'--'";
    case Tok::PlusAssign: return "'+='";
    case Tok::MinusAssign: return "'-='";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string_view, Tok> kKeywords = {
    {"includes", Tok::KwIncludes},
    {"variables", Tok::KwVariables},
    {"on", Tok::KwOn},
    {"message", Tok::KwMessage},
    {"timer", Tok::KwTimer},
    {"msTimer", Tok::KwMsTimer},
    {"key", Tok::KwKey},
    {"start", Tok::KwStart},
    {"stopMeasurement", Tok::KwStopM},
    {"int", Tok::KwInt},
    {"long", Tok::KwLong},
    {"byte", Tok::KwByte},
    {"word", Tok::KwWord},
    {"dword", Tok::KwDword},
    {"char", Tok::KwChar},
    {"float", Tok::KwFloat},
    {"double", Tok::KwDouble},
    {"void", Tok::KwVoid},
    {"if", Tok::KwIf},
    {"else", Tok::KwElse},
    {"while", Tok::KwWhile},
    {"for", Tok::KwFor},
    {"switch", Tok::KwSwitch},
    {"case", Tok::KwCase},
    {"default", Tok::KwDefault},
    {"break", Tok::KwBreak},
    {"return", Tok::KwReturn},
    {"this", Tok::KwThis},
};

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1, col = 1;

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
  const auto push = [&](Tok k, std::size_t len, std::string text = {}) {
    out.push_back({k, std::move(text), 0, line, col});
    advance(len);
  };

  while (i < src.size()) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (starts("//")) {
      while (i < src.size() && src[i] != '\n') advance(1);
      continue;
    }
    if (starts("/*")) {
      const int start_line = line;
      advance(2);
      while (i < src.size() && !starts("*/")) advance(1);
      if (i >= src.size()) throw CaplError("unterminated comment", start_line, 1);
      advance(2);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      int base = 10;
      if (starts("0x") || starts("0X")) {
        base = 16;
        j += 2;
        while (j < src.size() &&
               std::isxdigit(static_cast<unsigned char>(src[j]))) {
          ++j;
        }
      } else {
        while (j < src.size() &&
               std::isdigit(static_cast<unsigned char>(src[j]))) {
          ++j;
        }
      }
      Token t{Tok::Number, std::string(src.substr(i, j - i)), 0, line, col};
      // from_chars takes no 0x prefix: read the hex digits after it.
      const char* digits = src.data() + i + (base == 16 ? 2 : 0);
      const auto [end, ec] =
          std::from_chars(digits, src.data() + j, t.number, base);
      if (ec == std::errc::result_out_of_range) {
        throw CaplError("integer literal out of range", line, col);
      }
      if (ec != std::errc{} || end != src.data() + j) {
        throw CaplError("malformed integer literal", line, col);
      }
      out.push_back(std::move(t));
      advance(j - i);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[j])) ||
              src[j] == '_')) {
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
    if (c == '\'') {
      if (i + 2 >= src.size() || src[i + 2] != '\'') {
        throw CaplError("malformed character literal", line, col);
      }
      Token t{Tok::CharLit, std::string(1, src[i + 1]), src[i + 1], line, col};
      out.push_back(std::move(t));
      advance(3);
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      std::string text;
      while (j < src.size() && src[j] != '"') {
        if (src[j] == '\\' && j + 1 < src.size()) {
          ++j;
          switch (src[j]) {
            case 'n': text += '\n'; break;
            case 't': text += '\t'; break;
            default: text += src[j]; break;
          }
        } else {
          text += src[j];
        }
        ++j;
      }
      if (j >= src.size()) throw CaplError("unterminated string", line, col);
      push(Tok::StringLit, j - i + 1, std::move(text));
      continue;
    }
    if (starts("==")) { push(Tok::EqEq, 2); continue; }
    if (starts("!=")) { push(Tok::NotEq, 2); continue; }
    if (starts("<=")) { push(Tok::LessEq, 2); continue; }
    if (starts(">=")) { push(Tok::GreaterEq, 2); continue; }
    if (starts("&&")) { push(Tok::AndAnd, 2); continue; }
    if (starts("||")) { push(Tok::OrOr, 2); continue; }
    if (starts("<<")) { push(Tok::Shl, 2); continue; }
    if (starts(">>")) { push(Tok::Shr, 2); continue; }
    if (starts("++")) { push(Tok::PlusPlus, 2); continue; }
    if (starts("--")) { push(Tok::MinusMinus, 2); continue; }
    if (starts("+=")) { push(Tok::PlusAssign, 2); continue; }
    if (starts("-=")) { push(Tok::MinusAssign, 2); continue; }
    switch (c) {
      case '{': push(Tok::LBrace, 1); continue;
      case '}': push(Tok::RBrace, 1); continue;
      case '(': push(Tok::LParen, 1); continue;
      case ')': push(Tok::RParen, 1); continue;
      case '[': push(Tok::LBracket, 1); continue;
      case ']': push(Tok::RBracket, 1); continue;
      case ';': push(Tok::Semi, 1); continue;
      case ',': push(Tok::Comma, 1); continue;
      case '.': push(Tok::Dot, 1); continue;
      case ':': push(Tok::Colon, 1); continue;
      case '=': push(Tok::Assign, 1); continue;
      case '+': push(Tok::Plus, 1); continue;
      case '-': push(Tok::Minus, 1); continue;
      case '*': push(Tok::Star, 1); continue;
      case '/': push(Tok::Slash, 1); continue;
      case '%': push(Tok::Percent, 1); continue;
      case '<': push(Tok::Less, 1); continue;
      case '>': push(Tok::Greater, 1); continue;
      case '!': push(Tok::Not, 1); continue;
      case '&': push(Tok::Amp, 1); continue;
      case '|': push(Tok::Pipe, 1); continue;
      case '^': push(Tok::Caret, 1); continue;
      case '~': push(Tok::Tilde, 1); continue;
      default:
        throw CaplError(std::string("unexpected character '") + c + "'", line,
                        col);
    }
  }
  out.push_back({Tok::End, {}, 0, line, col});
  return out;
}

}  // namespace ecucsp::capl
