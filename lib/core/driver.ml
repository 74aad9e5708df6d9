module Ctx = Oregami_mapper.Ctx
module Strategy = Oregami_mapper.Strategy
module Pipeline = Oregami_mapper.Pipeline
module Stats = Oregami_mapper.Stats
module Mapping = Oregami_mapper.Mapping
module Metrics = Oregami_metrics.Metrics

type routing = Ctx.routing = Mm_route | Oblivious | Coarse | Auto

type options = Ctx.options = {
  routing : routing;
  route_cap : int;
  jobs : int;
  refine : bool;
  seed : int;
  only : string list;
  exclude : string list;
  fuel : int option;
  deadline_ms : float option;
  fallback : bool;
  constraints : Oregami_mapper.Constraints.spec;
  multilevel_threshold : int;
}

let default_options = Ctx.default_options

(* the whole former dispatch now lives in the registry + pipeline; the
   driver only supplies the judge (METRICS sits above the mapper in
   the dependency order, so the pipeline takes it as a parameter) *)
let run ctx =
  match Strategy.select ctx.Ctx.options with
  | Error e -> Error e
  | Ok selection -> Pipeline.compete ~score:Metrics.completion_time ctx selection

let drop_degradation = Result.map (fun (m, _) -> m)

let report ?(options = default_options) ?faults compiled topo =
  let ctx = Ctx.of_compiled ~options ?faults compiled topo in
  (drop_degradation (run ctx), ctx.Ctx.stats)

let report_taskgraph ?(options = default_options) ?faults tg topo =
  let ctx = Ctx.of_taskgraph ~options ?faults tg topo in
  (drop_degradation (run ctx), ctx.Ctx.stats)

let map_compiled ?options ?faults compiled topo = fst (report ?options ?faults compiled topo)
let map_taskgraph ?options ?faults tg topo = fst (report_taskgraph ?options ?faults tg topo)

let strategy_preview compiled topo =
  match map_compiled compiled topo with
  | Ok m -> m.Mapping.strategy
  | Error e -> "error: " ^ e
