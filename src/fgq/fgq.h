#ifndef FGQ_FGQ_H_
#define FGQ_FGQ_H_

/// \file fgq.h
/// The fgq umbrella header: the stable public surface in one include.
///
/// Pulls in the layers an application normally touches, bottom-up:
///
///   data      Relation / Database / fact loading      (fgq/db/)
///   queries   ConjunctiveQuery / UnionQuery / parser  (fgq/query/)
///   engine    Engine::Run(ExecRequest) -> ExecResult, plus the
///             Count/Enumerate/Decide verb entry points (fgq/eval/)
///   compiled  fgq::vm bytecode programs: CompileFreeConnex /
///             MakeProgramCursor / RunSemiring         (fgq/vm/)
///   serving   QueryService::Submit(ServiceRequest, SubmitPolicy)
///             with plan caching + admission control   (fgq/serve/)
///   network   NetServer / Client / wire protocol      (fgq/net/)
///   insight   Explain() and TraceContext              (fgq/trace/)
///   workload  synthetic generators for benchmarks     (fgq/workload/)
///
/// Specialist subsystems stay behind their own headers on purpose:
/// fgq/check/ (differential fuzzing), fgq/count/, fgq/fo/, fgq/mso/,
/// fgq/so/ (the paper's counting and logic fragments), and the
/// internal evaluators under fgq/eval/ other than engine.h — their
/// interfaces move with the research, not with the API deprecation
/// policy. See docs/API.md for the compatibility contract.

#include "fgq/db/database.h"
#include "fgq/db/loader.h"
#include "fgq/db/relation.h"
#include "fgq/db/value.h"
#include "fgq/eval/engine.h"
#include "fgq/net/client.h"
#include "fgq/net/protocol.h"
#include "fgq/net/server.h"
#include "fgq/query/cq.h"
#include "fgq/query/parser.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/explain.h"
#include "fgq/trace/trace.h"
#include "fgq/util/status.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"
#include "fgq/workload/generators.h"

#endif  // FGQ_FGQ_H_
