(* The traced run's pipeline replay: the mapping pipeline re-driven
   through its public functions, one span per layer -- each registry
   producer, Pipeline.place, the router Ctx.resolve_routing picks,
   Mapping.validate, and the Metrics.completion_time judge.  It follows
   Pipeline.compete's semantics for unbudgeted runs (the dispatch tier
   short-circuits; otherwise every candidate is produced first, then
   placed, routed, validated and scored; the first minimum wins), so
   the caller can demand the same winner and completion as the
   untraced run. *)

open Oregami
module Spans = Perfbench.Spans

let ( let* ) = Result.bind

let route ctx (cand : Strategy.candidate) proc_of_cluster =
  let tg = ctx.Ctx.tg and topo = ctx.Ctx.topo and options = ctx.Ctx.options in
  let proc_of_task = Array.map (fun c -> proc_of_cluster.(c)) cand.Strategy.cluster_of in
  let* routings =
    match Ctx.resolve_routing ctx with
    | Ctx.Mm_route ->
      Spans.span "route.mm" (fun () ->
          let routings, st =
            Mapper.Route.mm_route ~budget:ctx.Ctx.budget ~cap:options.Ctx.route_cap tg topo ~proc_of_task
          in
          Spans.count "route.matching_rounds"
            (float_of_int (List.fold_left (fun acc (_, r) -> acc + r) 0 st.Mapper.Route.phases));
          Ok routings)
    | Ctx.Coarse ->
      Spans.span "route.coarse" (fun () ->
          let routings, st =
            Mapper.Route.coarse_route ~budget:ctx.Ctx.budget ~cap:options.Ctx.route_cap
              ~jobs:options.Ctx.jobs tg topo ~proc_of_task
          in
          Spans.count "route.coarse_pairs" (float_of_int st.Mapper.Route.co_pairs);
          Spans.count "route.coarse_messages" (float_of_int st.Mapper.Route.co_messages);
          Ok routings)
    | Ctx.Oblivious -> Ok (Mapper.Route.deterministic_route tg topo ~proc_of_task)
    | Ctx.Auto -> Error "routing resolved to auto"
  in
  let m =
    {
      Mapping.tg;
      topo;
      cluster_of = cand.Strategy.cluster_of;
      proc_of_cluster;
      routings;
      strategy = cand.Strategy.label;
    }
  in
  let* () = Spans.span "mapping.validate" (fun () -> Mapping.validate m) in
  Ok m

let finish ctx cand =
  let* proc_of_cluster = Spans.span "pipeline.place" (fun () -> Pipeline.place ctx cand) in
  route ctx cand proc_of_cluster

let produce ctx (s : Strategy.t) =
  Spans.span ("strategy." ^ s.Strategy.name) (fun () ->
      match s.Strategy.available ctx with
      | Error e -> Error e
      | Ok () -> s.Strategy.produce ctx)

let score m =
  let s = Spans.span "metrics.completion" (fun () -> Metrics.completion_time m) in
  Spans.count "candidates.scored" 1.0;
  s

(* the winning mapping and its completion time *)
let run ctx =
  let* selection = Strategy.select ctx.Ctx.options in
  let dispatch, competing =
    if ctx.Ctx.options.Ctx.only <> [] then ([], selection)
    else List.partition (fun s -> s.Strategy.tier = Strategy.Dispatch) selection
  in
  let rec first = function
    | [] -> None
    | s :: rest -> (
      match produce ctx s with Ok (c :: _) -> Some c | Ok [] | Error _ -> first rest)
  in
  let result =
    match first dispatch with
    | Some cand ->
      let* m = finish ctx cand in
      (* dispatch winners are not judged; the completion is for the
         caller's comparison only *)
      Ok (m, Metrics.completion_time m)
    | None ->
      let cands =
        List.concat_map
          (fun s -> match produce ctx s with Ok cs -> cs | Error _ -> [])
          competing
      in
      let best =
        List.fold_left
          (fun best cand ->
            match finish ctx cand with
            | Error _ -> best
            | Ok m -> (
              let s = score m in
              match best with Some (_, bs) when bs <= s -> best | _ -> Some (m, s)))
          None cands
      in
      Option.to_result ~none:"no candidate survived the replay" best
  in
  let extras = Stats.extra_counters ctx.Ctx.stats in
  let extra name = float_of_int (Option.value (List.assoc_opt name extras) ~default:0) in
  Spans.count "refine.swaps" (float_of_int (Stats.refine_swaps ctx.Ctx.stats));
  Spans.count "multilevel.levels" (extra "multilevel levels");
  Spans.count "multilevel.refine_moves" (extra "multilevel refine moves");
  result
