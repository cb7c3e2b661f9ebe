//===- lang/Parser.cpp - Recursive-descent parser --------------------------===//

#include "lang/Parser.h"
#include "lang/Lexer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace pmaf;
using namespace pmaf::lang;

namespace {

/// Constant-folds \p E to a rational; fails on variables and division by
/// zero. Used for probabilities, rewards, and discrete-distribution tables.
std::optional<Rational> evalConstant(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    return E.number();
  case Expr::Kind::Var:
  case Expr::Kind::BoolLit:
    return std::nullopt;
  default:
    break;
  }
  std::optional<Rational> L = evalConstant(E.lhs());
  std::optional<Rational> R = evalConstant(E.rhs());
  if (!L || !R)
    return std::nullopt;
  switch (E.kind()) {
  case Expr::Kind::Add:
    return *L + *R;
  case Expr::Kind::Sub:
    return *L - *R;
  case Expr::Kind::Mul:
    return *L * *R;
  case Expr::Kind::Div:
    if (R->isZero())
      return std::nullopt;
    return *L / *R;
  default:
    return std::nullopt;
  }
}

/// Bounds on numeric literals: far beyond anything the double-valued
/// domains can hold, and small enough that the exact conversion to a
/// rational stays cheap.
constexpr size_t MaxLiteralDigits = 400;
constexpr unsigned MaxLiteralExponent = 400;

/// \returns true if the lexed number \p Text (digits, an optional
/// fraction, an optional signed decimal exponent) has at most
/// MaxLiteralDigits mantissa digits and an exponent of magnitude at most
/// MaxLiteralExponent.
bool literalInRange(const std::string &Text) {
  size_t Exp = std::min(Text.find_first_of("eE"), Text.size());
  size_t Digits = 0;
  for (size_t I = 0; I != Exp; ++I)
    Digits += Text[I] != '.';
  if (Digits > MaxLiteralDigits)
    return false;
  size_t I = Exp + 1;
  if (I < Text.size() && (Text[I] == '+' || Text[I] == '-'))
    ++I;
  unsigned Exponent = 0;
  for (; I < Text.size(); ++I) {
    Exponent = Exponent * 10 + static_cast<unsigned>(Text[I] - '0');
    if (Exponent > MaxLiteralExponent)
      return false;
  }
  return true;
}

class ParserImpl {
public:
  explicit ParserImpl(const std::string &Source)
      : Tokens(tokenize(Source)) {}

  ParseResult run() {
    ParseResult Result;
    auto Prog = std::make_unique<Program>();
    Current = Prog.get();
    while (!check(Token::Kind::Eof)) {
      if (checkKeyword("bool") || checkKeyword("real")) {
        if (!parseVarDecl())
          break;
      } else if (checkKeyword("proc")) {
        if (!parseProcDecl())
          break;
      } else {
        fail("expected 'bool', 'real', or 'proc' at top level");
        break;
      }
    }
    if (Error.empty())
      resolveCalls(); // Sets Error on failure.
    if (Error.empty() && Current->Procs.empty())
      failAt(here(), "no-procedures", "program has no procedures");
    if (!Error.empty()) {
      Result.Error = Error;
      Result.Diag = std::move(Diag);
      return Result;
    }
    Result.Prog = std::move(Prog);
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//

  const Token &peek() const { return Tokens[Pos]; }

  static SourceLoc locOf(const Token &Tok) { return {Tok.Line, Tok.Col}; }

  /// Location of the next token to be consumed.
  SourceLoc here() const { return locOf(peek()); }

  bool check(Token::Kind Kind) const { return peek().TheKind == Kind; }

  bool checkKeyword(const char *Word) const {
    return check(Token::Kind::Ident) && peek().Text == Word;
  }

  const Token &advance() { return Tokens[Pos++]; }

  bool match(Token::Kind Kind) {
    if (!check(Kind))
      return false;
    ++Pos;
    return true;
  }

  bool matchKeyword(const char *Word) {
    if (!checkKeyword(Word))
      return false;
    ++Pos;
    return true;
  }

  bool expect(Token::Kind Kind, const char *What) {
    if (match(Kind))
      return true;
    fail(std::string("expected ") + What);
    return false;
  }

  /// Records the first error at \p Loc with the stable code \p Code;
  /// later failures are ignored (the parser unwinds on the first error).
  /// Returns the recorded diagnostic so callers can attach notes.
  Diagnostic &failAt(SourceLoc Loc, const char *Code,
                     std::string Message) {
    if (Error.empty()) {
      char Buffer[32];
      std::snprintf(Buffer, sizeof(Buffer), "%u:%u: ", Loc.Line, Loc.Col);
      Error = Buffer + Message;
      Diag.Sev = Severity::Error;
      Diag.Code = Code;
      Diag.Loc = Loc;
      Diag.Message = std::move(Message);
    }
    return Diag;
  }

  /// Syntax-error helper: reports at the lookahead token and appends what
  /// was actually found.
  void fail(std::string Message) {
    if (!Error.empty())
      return;
    if (peek().TheKind == Token::Kind::Error)
      Message += " (" + peek().Text + ")";
    else if (!peek().Text.empty())
      Message += ", got '" + peek().Text + "'";
    failAt(here(), "parse-error", std::move(Message));
  }

  /// One more enclosing level of a depth counter while it lives; false
  /// past the bound.
  struct Nested {
    explicit Nested(unsigned &Depth) : Depth(++Depth) {}
    ~Nested() { --Depth; }
    explicit operator bool() const { return Depth <= MaxNestingDepth; }
    unsigned &Depth;
  };

  std::nullptr_t tooDeep(SourceLoc Loc, const char *What) {
    failAt(Loc, "nesting-too-deep",
           std::string(What) + " nest deeper than " +
               std::to_string(MaxNestingDepth) + " levels");
    return nullptr;
  }

  /// Sets Height for a node over operands at most \p Operand high; false
  /// once that passes the bound.
  bool raise(unsigned Operand, SourceLoc Loc) {
    Height = Operand + 1;
    if (Height > MaxNestingDepth)
      tooDeep(Loc, "expressions");
    return Height <= MaxNestingDepth;
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  bool parseVarDecl() {
    bool IsReal = peek().Text == "real";
    advance();
    do {
      if (!check(Token::Kind::Ident)) {
        fail("expected variable name");
        return false;
      }
      SourceLoc NameLoc = here();
      std::string Name = advance().Text;
      unsigned Previous = Current->findVar(Name);
      if (Previous != ~0u) {
        failAt(NameLoc, "redeclared-variable",
               "redeclaration of variable '" + Name + "'")
            .addNote(Current->Vars[Previous].Loc,
                     "previous declaration is here");
        return false;
      }
      Current->Vars.push_back(VarInfo{Name, IsReal, NameLoc});
    } while (match(Token::Kind::Comma));
    return expect(Token::Kind::Semi, "';' after variable declaration");
  }

  bool parseProcDecl() {
    advance(); // 'proc'
    if (!check(Token::Kind::Ident)) {
      fail("expected procedure name");
      return false;
    }
    SourceLoc NameLoc = here();
    std::string Name = advance().Text;
    unsigned Previous = Current->findProc(Name);
    if (Previous != ~0u) {
      failAt(NameLoc, "redefined-procedure",
             "redefinition of procedure '" + Name + "'")
          .addNote(Current->Procs[Previous].Loc,
                   "previous definition is here");
      return false;
    }
    if (!expect(Token::Kind::LParen, "'('") ||
        !expect(Token::Kind::RParen, "')'"))
      return false;
    Stmt::Ptr Body = parseBlock();
    if (!Body)
      return false;
    Current->Procs.push_back(
        Procedure{std::move(Name), std::move(Body), NameLoc});
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  Stmt::Ptr parseBlock() {
    SourceLoc BraceLoc = here();
    if (!expect(Token::Kind::LBrace, "'{'"))
      return nullptr;
    std::vector<Stmt::Ptr> Stmts;
    while (!check(Token::Kind::RBrace) && !check(Token::Kind::Eof)) {
      Stmt::Ptr S = parseStmt();
      if (!S)
        return nullptr;
      Stmts.push_back(std::move(S));
    }
    if (!expect(Token::Kind::RBrace, "'}'"))
      return nullptr;
    Stmt::Ptr Block = Stmt::makeBlock(std::move(Stmts));
    Block->setLoc(BraceLoc);
    return Block;
  }

  Stmt::Ptr parseStmt() {
    SourceLoc StmtLoc = here();
    Stmt::Ptr S = parseStmtImpl();
    if (S)
      S->setLoc(StmtLoc);
    return S;
  }

  Stmt::Ptr parseStmtImpl() {
    if (matchKeyword("skip")) {
      if (!expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeSkip();
    }
    if (checkKeyword("break")) {
      SourceLoc Loc = here();
      advance();
      if (LoopDepth == 0) {
        failAt(Loc, "misplaced-jump", "'break' outside of a loop");
        return nullptr;
      }
      if (!expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeBreak();
    }
    if (checkKeyword("continue")) {
      SourceLoc Loc = here();
      advance();
      if (LoopDepth == 0) {
        failAt(Loc, "misplaced-jump", "'continue' outside of a loop");
        return nullptr;
      }
      if (!expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeContinue();
    }
    if (matchKeyword("return")) {
      if (!expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeReturn();
    }
    if (matchKeyword("observe")) {
      if (!expect(Token::Kind::LParen, "'('"))
        return nullptr;
      Cond::Ptr Phi = parseCond();
      if (!Phi || !expect(Token::Kind::RParen, "')'") ||
          !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeObserve(std::move(Phi));
    }
    if (matchKeyword("reward")) {
      if (!expect(Token::Kind::LParen, "'('"))
        return nullptr;
      SourceLoc AmountLoc = here();
      std::optional<Rational> Amount = parseConstant();
      if (!Amount || !expect(Token::Kind::RParen, "')'") ||
          !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      if (Amount->sign() < 0) {
        failAt(AmountLoc, "reward-range", "rewards must be nonnegative");
        return nullptr;
      }
      return Stmt::makeReward(std::move(*Amount));
    }
    if (matchKeyword("assert_prob")) {
      if (!expect(Token::Kind::LParen, "'('"))
        return nullptr;
      Cond::Ptr Phi = parseCond();
      if (!Phi || !expect(Token::Kind::RParen, "')'"))
        return nullptr;
      SourceLoc OpLoc = here();
      std::optional<CmpOp> Op = matchCmpOp();
      if (!Op || (*Op != CmpOp::Ge && *Op != CmpOp::Le)) {
        failAt(OpLoc, "parse-error",
               "expected '>=' or '<=' after assert_prob(...)");
        return nullptr;
      }
      SourceLoc BoundLoc = here();
      std::optional<Rational> Bound = parseConstant();
      if (!Bound || !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      if (Bound->sign() < 0 || *Bound > Rational(1)) {
        failAt(BoundLoc, "prob-range",
               "asserted probability must lie in [0, 1]");
        return nullptr;
      }
      return Stmt::makeAssertProb(std::move(Phi), *Op, std::move(*Bound));
    }
    if (matchKeyword("assert_reward")) {
      SourceLoc OpLoc = here();
      std::optional<CmpOp> Op = matchCmpOp();
      if (!Op || (*Op != CmpOp::Ge && *Op != CmpOp::Le)) {
        failAt(OpLoc, "parse-error",
               "expected '>=' or '<=' after assert_reward");
        return nullptr;
      }
      SourceLoc BoundLoc = here();
      std::optional<Rational> Bound = parseConstant();
      if (!Bound || !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      if (Bound->sign() < 0) {
        failAt(BoundLoc, "reward-range",
               "asserted reward bound must be nonnegative");
        return nullptr;
      }
      return Stmt::makeAssertReward(*Op, std::move(*Bound));
    }
    if (matchKeyword("assert_interval")) {
      if (!expect(Token::Kind::LParen, "'('"))
        return nullptr;
      Expr::Ptr Target = parseExpr();
      if (!Target || !expect(Token::Kind::Comma, "','"))
        return nullptr;
      std::optional<Rational> Lo = parseConstant();
      if (!Lo || !expect(Token::Kind::Comma, "','"))
        return nullptr;
      SourceLoc HiLoc = here();
      std::optional<Rational> Hi = parseConstant();
      if (!Hi || !expect(Token::Kind::RParen, "')'") ||
          !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      if (*Hi < *Lo) {
        failAt(HiLoc, "interval-range",
               "asserted interval is empty: upper bound " + Hi->toString() +
                   " is below lower bound " + Lo->toString());
        return nullptr;
      }
      return Stmt::makeAssertInterval(std::move(Target), std::move(*Lo),
                                      std::move(*Hi));
    }
    if (matchKeyword("if"))
      return parseIf();
    if (matchKeyword("while")) {
      Nested Level(StmtDepth);
      if (!Level)
        return tooDeep(here(), "statements");
      Guard G;
      if (!parseGuard(G))
        return nullptr;
      ++LoopDepth;
      Stmt::Ptr Body = parseBlock();
      --LoopDepth;
      if (!Body)
        return nullptr;
      return Stmt::makeWhile(std::move(G), std::move(Body));
    }
    if (!check(Token::Kind::Ident)) {
      fail("expected a statement");
      return nullptr;
    }
    SourceLoc NameLoc = here();
    std::string Name = advance().Text;
    if (match(Token::Kind::LParen)) {
      // Procedure call.
      if (!expect(Token::Kind::RParen, "')'") ||
          !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeCall(std::move(Name));
    }
    unsigned VarIndex = Current->findVar(Name);
    if (VarIndex == ~0u) {
      failAt(NameLoc, "undefined-variable",
             "use of undeclared variable '" + Name + "'");
      return nullptr;
    }
    if (match(Token::Kind::Assign)) {
      Expr::Ptr Value = parseExpr();
      if (!Value || !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeAssign(VarIndex, std::move(Value));
    }
    if (match(Token::Kind::Tilde)) {
      std::optional<Dist> D = parseDist();
      if (!D || !expect(Token::Kind::Semi, "';'"))
        return nullptr;
      return Stmt::makeSample(VarIndex, std::move(*D));
    }
    fail("expected ':=', '~', or '(' after identifier");
    return nullptr;
  }

  Stmt::Ptr parseIf() {
    SourceLoc IfLoc = here();
    Nested Level(StmtDepth);
    if (!Level)
      return tooDeep(IfLoc, "statements");
    Guard G;
    if (!parseGuard(G))
      return nullptr;
    Stmt::Ptr Then = parseBlock();
    if (!Then)
      return nullptr;
    Stmt::Ptr Else;
    if (matchKeyword("else")) {
      if (matchKeyword("if")) {
        Else = parseIf(); // else-if chains without extra braces
      } else {
        Else = parseBlock();
      }
      if (!Else)
        return nullptr;
    }
    Stmt::Ptr S =
        Stmt::makeIf(std::move(G), std::move(Then), std::move(Else));
    S->setLoc(IfLoc);
    return S;
  }

  bool parseGuard(Guard &G) {
    G.Loc = here();
    if (matchKeyword("star")) {
      G.TheKind = Guard::Kind::Ndet;
      return true;
    }
    if (matchKeyword("prob")) {
      if (!expect(Token::Kind::LParen, "'('"))
        return false;
      SourceLoc ProbLoc = here();
      std::optional<Rational> P = parseConstant();
      if (!P || !expect(Token::Kind::RParen, "')'"))
        return false;
      if (P->sign() < 0 || *P > Rational(1)) {
        failAt(ProbLoc, "prob-range", "probability must lie in [0, 1]");
        return false;
      }
      G.TheKind = Guard::Kind::Prob;
      G.Prob = std::move(*P);
      return true;
    }
    if (!expect(Token::Kind::LParen, "'(', 'prob', or 'star'"))
      return false;
    Cond::Ptr Phi = parseCond();
    if (!Phi || !expect(Token::Kind::RParen, "')'"))
      return false;
    G.TheKind = Guard::Kind::Cond;
    G.Phi = std::move(Phi);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Distributions
  //===--------------------------------------------------------------------===//

  std::optional<Dist> parseDist() {
    if (!check(Token::Kind::Ident)) {
      fail("expected a distribution name");
      return std::nullopt;
    }
    SourceLoc NameLoc = here();
    std::string Name = advance().Text;
    Dist D;
    D.Loc = NameLoc;
    unsigned Arity = 0;
    if (Name == "bernoulli") {
      D.TheKind = Dist::Kind::Bernoulli;
      Arity = 1;
    } else if (Name == "uniform") {
      D.TheKind = Dist::Kind::Uniform;
      Arity = 2;
    } else if (Name == "gaussian") {
      D.TheKind = Dist::Kind::Gaussian;
      Arity = 2;
    } else if (Name == "uniformint") {
      D.TheKind = Dist::Kind::UniformInt;
      Arity = 2;
    } else if (Name == "discrete") {
      D.TheKind = Dist::Kind::Discrete;
    } else {
      failAt(NameLoc, "parse-error", "unknown distribution '" + Name + "'");
      return std::nullopt;
    }
    if (!expect(Token::Kind::LParen, "'('"))
      return std::nullopt;
    if (D.TheKind == Dist::Kind::Discrete) {
      // discrete(v1: p1, v2: p2, ...)
      Rational Total(0);
      do {
        SourceLoc EntryLoc = here();
        std::optional<Rational> Value = parseConstant();
        if (!Value || !expect(Token::Kind::Colon, "':'"))
          return std::nullopt;
        SourceLoc WeightLoc = here();
        std::optional<Rational> Weight = parseConstant();
        if (!Weight)
          return std::nullopt;
        if (Weight->sign() < 0) {
          failAt(WeightLoc, "prob-range",
                 "discrete weights must be nonnegative");
          return std::nullopt;
        }
        Expr::Ptr ValueExpr = Expr::makeNumber(std::move(*Value));
        ValueExpr->setLoc(EntryLoc);
        D.Params.push_back(std::move(ValueExpr));
        D.Weights.push_back(*Weight);
        Total += *Weight;
      } while (match(Token::Kind::Comma));
      if (Total > Rational(1)) {
        failAt(NameLoc, "prob-range",
               "discrete weights must sum to at most 1");
        return std::nullopt;
      }
    } else {
      for (unsigned I = 0; I != Arity; ++I) {
        if (I && !expect(Token::Kind::Comma, "','"))
          return std::nullopt;
        SourceLoc ParamLoc = here();
        Expr::Ptr Param = parseExpr();
        if (!Param)
          return std::nullopt;
        // Fold constant parameters (e.g. `bernoulli(3/4)`) to Number nodes:
        // the abstract domains require literal constants here, and a folded
        // fraction is semantically identical to its decimal spelling.
        if (std::optional<Rational> Folded = evalConstant(*Param)) {
          Param = Expr::makeNumber(std::move(*Folded));
          Param->setLoc(ParamLoc);
        }
        D.Params.push_back(std::move(Param));
      }
    }
    if (!expect(Token::Kind::RParen, "')'"))
      return std::nullopt;
    return D;
  }

  //===--------------------------------------------------------------------===//
  // Conditions
  //===--------------------------------------------------------------------===//

  Cond::Ptr parseCond() { return parseCondOr(); }

  Cond::Ptr parseCondOr() {
    Cond::Ptr Lhs = parseCondAnd();
    while (Lhs && match(Token::Kind::OrOr)) {
      const unsigned LhsHeight = Height;
      Cond::Ptr Rhs = parseCondAnd();
      if (!Rhs || !raise(std::max(LhsHeight, Height), Rhs->loc()))
        return nullptr;
      SourceLoc Loc = Lhs->loc();
      Lhs = Cond::makeOr(std::move(Lhs), std::move(Rhs));
      Lhs->setLoc(Loc);
    }
    return Lhs;
  }

  Cond::Ptr parseCondAnd() {
    Cond::Ptr Lhs = parseCondUnary();
    while (Lhs && match(Token::Kind::AndAnd)) {
      const unsigned LhsHeight = Height;
      Cond::Ptr Rhs = parseCondUnary();
      if (!Rhs || !raise(std::max(LhsHeight, Height), Rhs->loc()))
        return nullptr;
      SourceLoc Loc = Lhs->loc();
      Lhs = Cond::makeAnd(std::move(Lhs), std::move(Rhs));
      Lhs->setLoc(Loc);
    }
    return Lhs;
  }

  Cond::Ptr parseCondUnary() {
    SourceLoc Loc = here();
    if (match(Token::Kind::Bang)) {
      Nested Level(ExprDepth);
      if (!Level)
        return tooDeep(Loc, "expressions");
      Cond::Ptr Operand = parseCondUnary();
      if (!Operand || !raise(Height, Loc))
        return nullptr;
      Cond::Ptr C = Cond::makeNot(std::move(Operand));
      C->setLoc(Loc);
      return C;
    }
    return parseCondAtom();
  }

  Cond::Ptr parseCondAtom() {
    SourceLoc Loc = here();
    Height = 0;
    if (matchKeyword("true")) {
      Cond::Ptr C = Cond::makeTrue();
      C->setLoc(Loc);
      return C;
    }
    if (matchKeyword("false")) {
      Cond::Ptr C = Cond::makeFalse();
      C->setLoc(Loc);
      return C;
    }
    if (check(Token::Kind::LParen)) {
      // Ambiguity: '(' may open a nested condition or a parenthesized
      // arithmetic operand of a comparison. Try the condition reading
      // first; backtrack on failure (tokens are pre-lexed, so this is a
      // cheap position reset).
      size_t Saved = Pos;
      std::string SavedError = Error;
      Diagnostic SavedDiag = Diag;
      advance();
      {
        Nested Level(ExprDepth);
        if (!Level)
          return tooDeep(Loc, "expressions");
        Cond::Ptr Inner = parseCond();
        if (Inner && match(Token::Kind::RParen) && !startsComparisonTail())
          return raise(Height, Loc) ? std::move(Inner) : nullptr;
      }
      Pos = Saved;
      Error = std::move(SavedError);
      Diag = std::move(SavedDiag);
    }
    // Comparison or Boolean variable.
    Expr::Ptr Lhs = parseExpr();
    if (!Lhs)
      return nullptr;
    std::optional<CmpOp> Op = matchCmpOp();
    if (Op) {
      const unsigned LhsHeight = Height;
      Expr::Ptr Rhs = parseExpr();
      if (!Rhs || !raise(std::max(LhsHeight, Height), Loc))
        return nullptr;
      Cond::Ptr C = Cond::makeCmp(*Op, std::move(Lhs), std::move(Rhs));
      C->setLoc(Loc);
      return C;
    }
    if (Lhs->kind() == Expr::Kind::Var &&
        !Current->Vars[Lhs->varIndex()].IsReal) {
      Cond::Ptr C = Cond::makeBoolVar(Lhs->varIndex());
      C->setLoc(Loc);
      return C;
    }
    fail("expected a comparison or a Boolean variable");
    return nullptr;
  }

  /// After a successfully parsed parenthesized condition, a comparison
  /// operator means we actually saw a parenthesized arithmetic operand.
  bool startsComparisonTail() const {
    switch (peek().TheKind) {
    case Token::Kind::EqEq:
    case Token::Kind::NotEq:
    case Token::Kind::LessEq:
    case Token::Kind::GreaterEq:
    case Token::Kind::Less:
    case Token::Kind::Greater:
    case Token::Kind::Plus:
    case Token::Kind::Minus:
    case Token::Kind::Star:
    case Token::Kind::Slash:
      return true;
    default:
      return false;
    }
  }

  std::optional<CmpOp> matchCmpOp() {
    if (match(Token::Kind::EqEq))
      return CmpOp::Eq;
    if (match(Token::Kind::NotEq))
      return CmpOp::Ne;
    if (match(Token::Kind::LessEq))
      return CmpOp::Le;
    if (match(Token::Kind::GreaterEq))
      return CmpOp::Ge;
    if (match(Token::Kind::Less))
      return CmpOp::Lt;
    if (match(Token::Kind::Greater))
      return CmpOp::Gt;
    return std::nullopt;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Expr::Ptr parseExpr() { return parseAdditive(); }

  /// Builds a located binary expression whose position is its left
  /// operand's.
  static Expr::Ptr makeLocatedBinary(Expr::Kind Op, Expr::Ptr Lhs,
                                     Expr::Ptr Rhs) {
    SourceLoc Loc = Lhs->loc();
    Expr::Ptr E = Expr::makeBinary(Op, std::move(Lhs), std::move(Rhs));
    E->setLoc(Loc);
    return E;
  }

  Expr::Ptr parseAdditive() {
    Expr::Ptr Lhs = parseMultiplicative();
    while (Lhs && (check(Token::Kind::Plus) || check(Token::Kind::Minus))) {
      const Expr::Kind Op = advance().TheKind == Token::Kind::Plus
                                ? Expr::Kind::Add
                                : Expr::Kind::Sub;
      const unsigned LhsHeight = Height;
      Expr::Ptr Rhs = parseMultiplicative();
      if (!Rhs || !raise(std::max(LhsHeight, Height), Rhs->loc()))
        return nullptr;
      Lhs = makeLocatedBinary(Op, std::move(Lhs), std::move(Rhs));
    }
    return Lhs;
  }

  Expr::Ptr parseMultiplicative() {
    Expr::Ptr Lhs = parseUnaryExpr();
    while (Lhs && (check(Token::Kind::Star) || check(Token::Kind::Slash))) {
      const Expr::Kind Op = advance().TheKind == Token::Kind::Star
                                ? Expr::Kind::Mul
                                : Expr::Kind::Div;
      const unsigned LhsHeight = Height;
      Expr::Ptr Rhs = parseUnaryExpr();
      if (!Rhs || !raise(std::max(LhsHeight, Height), Rhs->loc()))
        return nullptr;
      Lhs = makeLocatedBinary(Op, std::move(Lhs), std::move(Rhs));
    }
    return Lhs;
  }

  Expr::Ptr parseUnaryExpr() {
    SourceLoc Loc = here();
    if (match(Token::Kind::Minus)) {
      Nested Level(ExprDepth);
      if (!Level)
        return tooDeep(Loc, "expressions");
      Expr::Ptr Operand = parseUnaryExpr();
      if (!Operand || !raise(Height, Loc))
        return nullptr;
      Expr::Ptr Zero = Expr::makeNumber(Rational(0));
      Zero->setLoc(Loc);
      Expr::Ptr E = Expr::makeBinary(Expr::Kind::Sub, std::move(Zero),
                                     std::move(Operand));
      E->setLoc(Loc);
      return E;
    }
    return parsePrimaryExpr();
  }

  Expr::Ptr parsePrimaryExpr() {
    SourceLoc Loc = here();
    Height = 0;
    if (check(Token::Kind::Number)) {
      if (!literalInRange(peek().Text)) {
        std::string Shown = peek().Text.size() > 24
                                ? peek().Text.substr(0, 24) + "..."
                                : peek().Text;
        failAt(Loc, "number-out-of-range",
               "numeric literal '" + Shown + "' is out of range (at most " +
                   std::to_string(MaxLiteralDigits) +
                   " digits and a decimal exponent within +-" +
                   std::to_string(MaxLiteralExponent) + ")");
        return nullptr;
      }
      Expr::Ptr E = Expr::makeNumber(Rational::fromString(advance().Text));
      E->setLoc(Loc);
      return E;
    }
    if (matchKeyword("true")) {
      Expr::Ptr E = Expr::makeBool(true);
      E->setLoc(Loc);
      return E;
    }
    if (matchKeyword("false")) {
      Expr::Ptr E = Expr::makeBool(false);
      E->setLoc(Loc);
      return E;
    }
    if (check(Token::Kind::Ident)) {
      std::string Name = advance().Text;
      unsigned VarIndex = Current->findVar(Name);
      if (VarIndex == ~0u) {
        failAt(Loc, "undefined-variable",
               "use of undeclared variable '" + Name + "'");
        return nullptr;
      }
      Expr::Ptr E = Expr::makeVar(VarIndex);
      E->setLoc(Loc);
      return E;
    }
    if (match(Token::Kind::LParen)) {
      Nested Level(ExprDepth);
      if (!Level)
        return tooDeep(Loc, "expressions");
      Expr::Ptr Inner = parseExpr();
      if (!Inner || !expect(Token::Kind::RParen, "')'") ||
          !raise(Height, Loc))
        return nullptr;
      return Inner;
    }
    fail("expected an expression");
    return nullptr;
  }

  std::optional<Rational> parseConstant() {
    Expr::Ptr E = parseExpr();
    if (!E)
      return std::nullopt;
    std::optional<Rational> Value = evalConstant(*E);
    if (!Value)
      fail("expected a constant rational expression");
    return Value;
  }

  //===--------------------------------------------------------------------===//
  // Post-pass: call resolution
  //===--------------------------------------------------------------------===//

  bool resolveCallsIn(Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::Call: {
      unsigned Index = Current->findProc(S.callee());
      if (Index == ~0u) {
        failAt(S.loc(), "undefined-procedure",
               "call to undefined procedure '" + S.callee() + "'");
        return false;
      }
      S.setCalleeIndex(Index);
      return true;
    }
    case Stmt::Kind::Block:
      for (const Stmt::Ptr &Child : S.stmts())
        if (!resolveCallsIn(*Child))
          return false;
      return true;
    case Stmt::Kind::If:
      if (!resolveCallsIn(const_cast<Stmt &>(S.thenStmt())))
        return false;
      if (const Stmt *Else = S.elseStmt())
        return resolveCallsIn(const_cast<Stmt &>(*Else));
      return true;
    case Stmt::Kind::While:
      return resolveCallsIn(const_cast<Stmt &>(S.body()));
    default:
      return true;
    }
  }

  bool resolveCalls() {
    for (Procedure &Proc : Current->Procs)
      if (!resolveCallsIn(*Proc.Body))
        return false;
    return true;
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  Program *Current = nullptr;
  unsigned LoopDepth = 0;
  /// Enclosing if/while statements, and enclosing parentheses and unary
  /// operators: the latter bound the recursion before the finished tree,
  /// at least that high, can be measured.
  unsigned StmtDepth = 0, ExprDepth = 0;
  /// Height of the expression or condition the last parse returned: one
  /// level per operator and per pair of parentheses, 0 for a leaf.
  unsigned Height = 0;
  std::string Error;
  Diagnostic Diag;
};

} // namespace

ParseResult lang::parseProgram(const std::string &Source) {
  return ParserImpl(Source).run();
}

ParseResult lang::parseProgram(const std::string &Source,
                               DiagnosticEngine &Diags) {
  ParseResult Result = parseProgram(Source);
  if (!Result)
    Diags.report(Result.Diag);
  return Result;
}

std::unique_ptr<Program> lang::parseProgramOrDie(const std::string &Source) {
  ParseResult Result = parseProgram(Source);
  if (!Result) {
    DiagnosticEngine Diags;
    Diags.setSource("<input>", Source);
    std::fprintf(stderr, "parse error: %s\n%s", Result.Error.c_str(),
                 Diags.render(Result.Diag).c_str());
    std::abort();
  }
  return std::move(Result.Prog);
}
