//===- support/Diagnostics.cpp - Diagnostics engine ------------------------===//

#include "support/Diagnostics.h"
#include "support/JsonEscape.h"

#include <algorithm>

using namespace pmaf;
using support::appendJsonEscaped;

const char *pmaf::toString(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "error";
}

Diagnostic &Diagnostic::addNote(SourceLoc NoteLoc, std::string NoteMessage) {
  Diagnostic Note;
  Note.Sev = Severity::Note;
  Note.Loc = NoteLoc;
  Note.Message = std::move(NoteMessage);
  Notes.push_back(std::move(Note));
  return *this;
}

void DiagnosticEngine::setSource(std::string FileName, std::string Source) {
  File = std::move(FileName);
  Buffer = std::move(Source);
}

Diagnostic &DiagnosticEngine::report(Severity Sev, SourceLoc Loc,
                                     std::string Code, std::string Message) {
  Diagnostic Diag;
  Diag.Sev = Sev;
  Diag.Loc = Loc;
  Diag.Code = std::move(Code);
  Diag.Message = std::move(Message);
  return report(std::move(Diag));
}

Diagnostic &DiagnosticEngine::report(Diagnostic Diag) {
  if (Diag.Sev == Severity::Warning && WarningsAsErrors)
    Diag.Sev = Severity::Error;
  if (Diag.Sev == Severity::Error)
    ++NumErrors;
  else if (Diag.Sev == Severity::Warning)
    ++NumWarnings;
  Diags.push_back(std::move(Diag));
  return Diags.back();
}

void DiagnosticEngine::sortByLocation() {
  std::stable_sort(
      Diags.begin(), Diags.end(),
      [](const Diagnostic &A, const Diagnostic &B) { return A.Loc < B.Loc; });
}

namespace {

/// The 1-based line \p Line of \p Buffer, without its newline; nullopt-ish
/// empty+false when out of range.
bool extractLine(const std::string &Buffer, unsigned Line, std::string &Out) {
  size_t Start = 0;
  for (unsigned L = 1; L < Line; ++L) {
    size_t Next = Buffer.find('\n', Start);
    if (Next == std::string::npos)
      return false;
    Start = Next + 1;
  }
  if (Start >= Buffer.size())
    return false;
  size_t End = Buffer.find('\n', Start);
  if (End == std::string::npos)
    End = Buffer.size();
  Out = Buffer.substr(Start, End - Start);
  return true;
}

void appendDiagJson(std::string &Out, const Diagnostic &Diag) {
  Out += "{\"line\": ";
  Out += std::to_string(Diag.Loc.Line);
  Out += ", \"col\": ";
  Out += std::to_string(Diag.Loc.Col);
  Out += ", \"severity\": \"";
  Out += toString(Diag.Sev);
  Out += "\", \"code\": \"";
  appendJsonEscaped(Out, Diag.Code);
  Out += "\", \"message\": \"";
  appendJsonEscaped(Out, Diag.Message);
  Out += "\"";
  if (!Diag.Notes.empty()) {
    Out += ", \"notes\": [";
    for (size_t I = 0; I != Diag.Notes.size(); ++I) {
      if (I)
        Out += ", ";
      appendDiagJson(Out, Diag.Notes[I]);
    }
    Out += "]";
  }
  Out += "}";
}

} // namespace

std::string DiagnosticEngine::renderOne(const Diagnostic &Diag,
                                        bool IsNote) const {
  std::string Out = File;
  if (Diag.Loc.isValid()) {
    Out += ':';
    Out += std::to_string(Diag.Loc.Line);
    Out += ':';
    Out += std::to_string(Diag.Loc.Col);
  }
  Out += ": ";
  Out += toString(Diag.Sev);
  Out += ": ";
  Out += Diag.Message;
  if (!IsNote && !Diag.Code.empty()) {
    Out += " [";
    Out += Diag.Code;
    Out += "]";
  }
  Out += "\n";
  std::string Excerpt;
  if (Diag.Loc.isValid() && extractLine(Buffer, Diag.Loc.Line, Excerpt)) {
    Out += "  ";
    Out += Excerpt;
    Out += "\n  ";
    // Columns count characters; render tabs as-is so the caret still lands
    // on the offending character in a tab-using buffer.
    for (unsigned C = 1; C < Diag.Loc.Col && C <= Excerpt.size(); ++C)
      Out += Excerpt[C - 1] == '\t' ? '\t' : ' ';
    Out += "^\n";
  }
  return Out;
}

std::string DiagnosticEngine::render(const Diagnostic &Diag) const {
  std::string Out = renderOne(Diag, /*IsNote=*/false);
  for (const Diagnostic &Note : Diag.Notes)
    Out += renderOne(Note, /*IsNote=*/true);
  return Out;
}

std::string DiagnosticEngine::renderAll() const {
  std::string Out;
  for (const Diagnostic &Diag : Diags)
    Out += render(Diag);
  if (NumErrors || NumWarnings) {
    Out += std::to_string(NumErrors);
    Out += NumErrors == 1 ? " error, " : " errors, ";
    Out += std::to_string(NumWarnings);
    Out += NumWarnings == 1 ? " warning\n" : " warnings\n";
  }
  return Out;
}

std::string DiagnosticEngine::renderJson() const {
  std::string Out = "{\"file\": \"";
  appendJsonEscaped(Out, File);
  Out += "\", \"diagnostics\": [";
  for (size_t I = 0; I != Diags.size(); ++I) {
    if (I)
      Out += ", ";
    appendDiagJson(Out, Diags[I]);
  }
  Out += "], \"errors\": ";
  Out += std::to_string(NumErrors);
  Out += ", \"warnings\": ";
  Out += std::to_string(NumWarnings);
  Out += "}";
  return Out;
}
