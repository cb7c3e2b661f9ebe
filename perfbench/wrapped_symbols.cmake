# Library entry points the driver records layer spans around, as pairs of
# a key and an Itanium-mangled name (as `nm` prints it for the libraries
# under src/). CMakeLists.txt passes `--wrap=<name>` to the linker and
# defines PB_SYM_<key> as <name> for trace.cpp, which holds the wrappers;
# this list is the only copy of the names.
set(PERFBENCH_WRAPPED_SYMBOLS
  # lang::parseProgram(const std::string &, DiagnosticEngine &)
  PARSE _ZN4pmaf4lang12parseProgramERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_16DiagnosticEngineE
  # analysis::lintProgram(const Program &, DiagnosticEngine &, const LintOptions &)
  LINT _ZN4pmaf8analysis11lintProgramERKNS_4lang7ProgramERNS_16DiagnosticEngineERKNS0_11LintOptionsE
  # cfg::ProgramGraph::build(const Program &)
  LOWER _ZN4pmaf3cfg12ProgramGraph5buildERKNS_4lang7ProgramE
  # cfg::Wto::compute(successors, roots)
  WTO _ZN4pmaf3cfg3Wto7computeERKSt6vectorIS2_IjSaIjEESaIS4_EERKS4_
  # checks::checkBiSummaries(...)
  CHECK_BI _ZN4pmaf6checks16checkBiSummariesERKNS_7domains14BoolStateSpaceERKNS_3cfg12ProgramGraphERKSt8functionIFNS_6MatrixEjEERKNS0_14CheckerOptionsE
  # checks::checkMdp(...)
  CHECK_MDP _ZN4pmaf6checks8checkMdpERKNS_3cfg12ProgramGraphERKSt6vectorIdSaIdEERKNS0_14CheckerOptionsE
  # checks::fuzz::estimateGroundTruth(...) — the concrete-interpreter oracle
  ORACLE _ZN4pmaf6checks4fuzz19estimateGroundTruthERKNS_4lang7ProgramERKNS2_4StmtEmjj
  # server::Session::edit(const std::string &)
  EDIT _ZN4pmaf6server7Session4editERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
  # server::Session::analyze(const AnalyzeRequest &)
  ANALYZE _ZN4pmaf6server7Session7analyzeERKNS0_14AnalyzeRequestE
)
