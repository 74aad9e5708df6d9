module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache
module Ugraph = Oregami_graph.Ugraph
module Clock = Oregami_prelude.Clock

let now () = Clock.now ()

(* embedding pass: candidates that carry no placement get NN-Embed on
   their cluster graph, then pairwise-interchange refinement.  With
   constraints active the per-task rules are projected onto the
   candidate's clusters (a cluster merging incompatible tasks rejects
   the candidate by name) and both passes take the projection as their
   filter; an unconstrained run passes none, which allows every alive
   processor. *)
let place ctx (cand : Strategy.candidate) =
  match cand.Strategy.placement with
  | Strategy.Placed proc_of_cluster ->
    (* strategies that place directly answer for feasibility
       themselves; the DRC in [finish] catches any violation *)
    (* record the pass anyway so --explain shows all four pass
       timings; adopting a direct placement costs nothing *)
    Stats.add_phase_seconds ctx.Ctx.stats "place" 0.0;
    Ok proc_of_cluster
  | Strategy.Embed ->
    let t0 = now () in
    let cg = Ugraph.create cand.Strategy.clusters in
    List.iter
      (fun (u, v, w) ->
        let cu = cand.Strategy.cluster_of.(u) and cv = cand.Strategy.cluster_of.(v) in
        if cu <> cv then Ugraph.add_edge ~w cg cu cv)
      (Ugraph.edges (Ctx.static ctx));
    let budget = ctx.Ctx.budget in
    let filter =
      if not (Ctx.constrained ctx) then Ok (None, None)
      else begin
        let cons = ctx.Ctx.constraints in
        Constraints.project cons ~clusters:cand.Strategy.clusters
          ~cluster_of:cand.Strategy.cluster_of
        |> Result.map (fun pj ->
               (Some pj.Constraints.pj_fixed, Some (Constraints.cluster_allowed cons pj)))
      end
    in
    let result =
      match filter with
      | Error e -> Error e
      | Ok (fixed, allowed) -> begin
        match Nn_embed.embed ~budget ?fixed ?allowed cg ctx.Ctx.topo with
        | exception Nn_embed.Infeasible msg -> Error ("embedding infeasible: " ^ msg)
        | proc_of_cluster when not ctx.Ctx.options.Ctx.refine -> Ok proc_of_cluster
        | proc_of_cluster ->
          let swaps = ref 0 in
          let refined =
            Refine.improve_embedding ~budget ~swaps ?allowed cg ctx.Ctx.topo proc_of_cluster
          in
          Stats.add_refine_swaps ctx.Ctx.stats !swaps;
          Ok refined
      end
    in
    Stats.add_phase_seconds ctx.Ctx.stats "embed" (now () -. t0);
    result

(* the routing pass every re-placement goes through: the router
   [Ctx.resolve_routing] picks, under the ctx's route cap, budget and
   jobs, then structural validation against the ctx's constraints *)
let route ctx label (cluster_of, proc_of_cluster) =
  let tg = ctx.Ctx.tg in
  let proc_of_task = Array.init tg.Taskgraph.n (fun t -> proc_of_cluster.(cluster_of.(t))) in
  let budget = ctx.Ctx.budget and cap = ctx.Ctx.options.Ctx.route_cap in
  let rounds phases = List.fold_left (fun acc (_, r) -> acc + r) 0 phases in
  let t0 = now () in
  let routings =
    match Ctx.resolve_routing ctx with
    | Ctx.Mm_route ->
      let routings, rstats = Route.mm_route ~budget ~cap tg ctx.Ctx.topo ~proc_of_task in
      Stats.add_matching_rounds ctx.Ctx.stats (rounds rstats.Route.phases);
      routings
    | Ctx.Coarse ->
      let routings, cstats =
        Route.coarse_route ~budget ~cap ~jobs:ctx.Ctx.options.Ctx.jobs tg ctx.Ctx.topo
          ~proc_of_task
      in
      Stats.add_matching_rounds ctx.Ctx.stats (rounds cstats.Route.co_phases);
      Stats.bump ctx.Ctx.stats "coarse route pairs" cstats.Route.co_pairs;
      Stats.bump ctx.Ctx.stats "coarse route messages" cstats.Route.co_messages;
      routings
    | Ctx.Oblivious -> Route.deterministic_route tg ctx.Ctx.topo ~proc_of_task
    | Ctx.Auto -> assert false (* resolve_routing never returns Auto *)
  in
  Stats.add_phase_seconds ctx.Ctx.stats "route" (now () -. t0);
  let m =
    { Mapping.tg; topo = ctx.Ctx.topo; cluster_of; proc_of_cluster; routings; strategy = label }
  in
  let constraints = if Ctx.constrained ctx then Some ctx.Ctx.constraints else None in
  let tv = now () in
  let validated = Mapping.validate ?constraints m in
  Stats.add_phase_seconds ctx.Ctx.stats "validate" (now () -. tv);
  Result.map (fun () -> m) validated

let finish ctx (cand : Strategy.candidate) proc_of_cluster =
  Result.map_error
    (fun e -> "mapping failed validation: " ^ e)
    (route ctx cand.Strategy.label (cand.Strategy.cluster_of, proc_of_cluster))

(* run one strategy: circuit breaker, budget, and availability gates,
   then timed production under the exception barrier; every outcome —
   including a crash — lands in the stats sink *)
let run_strategy ctx (s : Strategy.t) =
  let stats = ctx.Ctx.stats in
  let name = s.Strategy.name in
  let skip reason =
    Stats.record_attempt stats ~strategy:name ~outcome:(Stats.Skipped reason)
      ~seconds:0.0;
    []
  in
  match Isolate.admit ctx.Ctx.breaker name with
  | Error reason -> skip reason
  | Ok () ->
    if Budget.exhausted ctx.Ctx.budget then
      skip
        (Printf.sprintf "budget exhausted (%s)"
           (Option.value ~default:"?" (Budget.reason ctx.Ctx.budget)))
    else begin
      match s.Strategy.available ctx with
      | Error reason -> skip reason
      | Ok () -> begin
        let t0 = now () in
        let produced = Isolate.protect (fun () -> s.Strategy.produce ctx) in
        let dt = now () -. t0 in
        Stats.add_phase_seconds stats "produce" dt;
        match produced with
        | Error exn ->
          Isolate.fail ctx.Ctx.breaker name;
          Stats.record_attempt stats ~strategy:name ~outcome:(Stats.Crashed exn)
            ~seconds:dt;
          []
        | Ok produced -> begin
          Isolate.succeed ctx.Ctx.breaker name;
          match produced with
          | Error reason ->
            Stats.record_attempt stats ~strategy:name
              ~outcome:(Stats.Rejected reason) ~seconds:dt;
            []
          | Ok [] ->
            Stats.record_attempt stats ~strategy:name
              ~outcome:(Stats.Rejected "produced no candidates") ~seconds:dt;
            []
          | Ok cands ->
            Stats.record_attempt stats ~strategy:name
              ~outcome:(Stats.Produced (List.length cands)) ~seconds:dt;
            List.map (fun c -> (s.Strategy.name, c)) cands
        end
      end
    end

let no_strategy_error stats =
  match Stats.rejections stats with
  | [] -> "no mapping strategy was selected"
  | rs ->
    "no mapping strategy produced a valid candidate: "
    ^ String.concat "; " (List.map (fun (s, r) -> s ^ ": " ^ r) rs)

(* the last-resort placement: balanced consecutive blocks on the alive
   processors — O(n), needs no analysis, valid whenever the (possibly
   degraded) machine is still connected.  Under constraints the blocks
   become a greedy feasible assignment: pins first, then each task on
   the least-loaded feasible alive processor (NN-Embed's rule at cost
   0, under the soft cap ⌈n/p⌉ while one has room); no feasible
   processor rejects the fallback by name. *)
let fallback_candidate ctx =
  let n = ctx.Ctx.tg.Taskgraph.n in
  if not (Ctx.constrained ctx) then begin
    let cluster_of, proc_of_cluster = Baselines.block ~n ~procs:(Ctx.procs ctx) in
    let proc_of_cluster = Array.map (fun c -> ctx.Ctx.alive.(c)) proc_of_cluster in
    Ok
      {
        Strategy.label = "fallback:block";
        clusters = Array.length proc_of_cluster;
        cluster_of;
        placement = Strategy.Placed proc_of_cluster;
      }
  end
  else begin
    let cons = ctx.Ctx.constraints in
    let p = Ctx.procs ctx in
    if p = 0 then Error "fallback: no placeable processors"
    else begin
      let cap = (n + p - 1) / p in
      let topo = ctx.Ctx.topo in
      let load = Array.make (Topology.node_count topo) 0 in
      let proc_of_task = Array.make n (-1) in
      let feasible t pr =
        Topology.alive topo pr && Constraints.feasible cons ~task:t ~proc:pr
      in
      (* pins first so pinned processors carry their load before the
         balance scan considers them *)
      for t = 0 to n - 1 do
        match Constraints.pinned cons t with
        | Some pr ->
          proc_of_task.(t) <- pr;
          load.(pr) <- load.(pr) + 1
        | None -> ()
      done;
      let err = ref None in
      for t = 0 to n - 1 do
        if !err = None && proc_of_task.(t) = -1 then begin
          let pick cap =
            Nn_embed.cheapest ~eligible:(feasible t) ~cost:(fun _ -> 0) ~load ~cap
          in
          let choice = match pick cap with -1 -> pick max_int | pr -> pr in
          if choice = -1 then
            err :=
              Some (Printf.sprintf "fallback: no feasible processor for task %d" t)
          else begin
            proc_of_task.(t) <- choice;
            load.(choice) <- load.(choice) + 1
          end
        end
      done;
      match !err with
      | Some e -> Error e
      | None ->
        let cluster_of, proc_of_cluster = Mapping.clusters proc_of_task in
        Ok
          {
            Strategy.label = "fallback:greedy-feasible";
            clusters = Array.length proc_of_cluster;
            cluster_of;
            placement = Strategy.Placed proc_of_cluster;
          }
    end
  end

let compete ~score ctx strategies =
  let stats = ctx.Ctx.stats in
  let budget = ctx.Ctx.budget in
  let t0 = now () in
  (* embedding/routing can crash on a malformed candidate just like
     production can; the barrier turns that into an invalid candidate
     instead of a torn-down pipeline *)
  let crashed_pass = ref false in
  let finish_protected cand =
    match
      Isolate.protect (fun () ->
          match place ctx cand with
          | Ok proc_of_cluster -> finish ctx cand proc_of_cluster
          | Error e -> Error e)
    with
    | Ok r -> r
    | Error exn ->
      crashed_pass := true;
      Error ("crashed: " ^ exn)
  in
  (* a malformed constraint spec fails the whole run up front — every
     strategy (and the fallback) would reject or mis-place against it *)
  let spec_errors = Constraints.errors ctx.Ctx.constraints in
  let result =
    match spec_errors with
    | e :: _ as es ->
      let extra =
        match List.length es with 1 -> "" | k -> Printf.sprintf " (and %d more)" (k - 1)
      in
      Error ("invalid constraints: " ^ e ^ extra)
    | [] ->
    let dispatch, competing =
      (* --only means a pure portfolio competition: no short-circuit *)
      if ctx.Ctx.options.Ctx.only <> [] then ([], strategies)
      else List.partition (fun s -> s.Strategy.tier = Strategy.Dispatch) strategies
    in
    let rec first_dispatch = function
      | [] -> None
      | s :: rest -> begin
        match run_strategy ctx s with
        | [] -> first_dispatch rest
        | c :: _ -> Some c
      end
    in
    match first_dispatch dispatch with
    | Some (name, cand) -> begin
      (* dispatch tier short-circuits: route and validate the winner *)
      match finish_protected cand with
      | Ok m ->
        let cr =
          Stats.record_candidate stats ~strategy:name ~label:cand.Strategy.label
            ~score:None ~ok:true ~note:""
        in
        Stats.mark_winner stats cr;
        Ok m
      | Error e ->
        let (_ : Stats.candidate) =
          Stats.record_candidate stats ~strategy:name ~label:cand.Strategy.label
            ~score:None ~ok:false ~note:e
        in
        Error e
    end
    | None -> begin
      (* competing tier: embed/route/validate every candidate, judge by
         the completion model, stable minimum (registry order breaks
         ties) — the automated form of the paper's §5 loop *)
      let best = ref None in
      List.iter
        (fun (name, cand) ->
          match finish_protected cand with
          | Error e ->
            let (_ : Stats.candidate) =
              Stats.record_candidate stats ~strategy:name ~label:cand.Strategy.label
                ~score:None ~ok:false ~note:e
            in
            ()
          | Ok m ->
            let s = score m in
            let cr =
              Stats.record_candidate stats ~strategy:name ~label:cand.Strategy.label
                ~score:(Some s) ~ok:true ~note:""
            in
            (match !best with
            | Some (best_s, _, _) when best_s <= s -> ()
            | Some _ | None -> best := Some (s, m, cr)))
        (List.concat_map (run_strategy ctx) competing);
      match !best with
      | Some (_, m, cr) ->
        Stats.mark_winner stats cr;
        Ok m
      | None -> Error (no_strategy_error stats)
    end
  in
  (* fallback tier: a mapping request on a connected machine should
     come back with *some* valid mapping even when every strategy
     declined, crashed, or ran out of budget.  Gated so that plain
     unbudgeted runs keep their precise error reporting. *)
  let crashed_produce =
    List.exists
      (fun (a : Stats.attempt) ->
        match a.Stats.at_outcome with Stats.Crashed _ -> true | _ -> false)
      (Stats.attempts stats)
  in
  let fallback_wanted =
    spec_errors = []
    && (ctx.Ctx.options.Ctx.fallback || Budget.exhausted budget || crashed_produce
       || !crashed_pass)
  in
  let fallback_used = ref false in
  let result =
    match result with
    | Ok _ -> result
    | Error _ when fallback_wanted -> begin
      let tf = now () in
      match fallback_candidate ctx with
      | Error e ->
        Stats.record_attempt stats ~strategy:"fallback" ~outcome:(Stats.Rejected e)
          ~seconds:(now () -. tf);
        Error (no_strategy_error stats)
      | Ok fb -> begin
        let finished = finish_protected fb in
        let dt = now () -. tf in
        Stats.add_phase_seconds stats "fallback" dt;
        match finished with
        | Ok m ->
          Stats.record_attempt stats ~strategy:"fallback"
            ~outcome:(Stats.Produced 1) ~seconds:dt;
          let cr =
            Stats.record_candidate stats ~strategy:"fallback"
              ~label:fb.Strategy.label ~score:None ~ok:true ~note:""
          in
          Stats.mark_winner stats cr;
          fallback_used := true;
          Ok m
        | Error e ->
          Stats.record_attempt stats ~strategy:"fallback"
            ~outcome:(Stats.Rejected e) ~seconds:dt;
          let (_ : Stats.candidate) =
            Stats.record_candidate stats ~strategy:"fallback"
              ~label:fb.Strategy.label ~score:None ~ok:false ~note:e
          in
          Error (no_strategy_error stats)
      end
    end
    | Error _ -> result
  in
  let degradation =
    if !fallback_used then Stats.Fallback
    else
      match Budget.truncations budget with
      | [] ->
        if Budget.exhausted budget then
          Stats.Truncated
            [ Option.value ~default:"budget" (Budget.reason budget) ]
        else Stats.Full
      | sites -> Stats.Truncated sites
  in
  Stats.set_degradation stats degradation;
  Stats.add_seconds stats (now () -. t0);
  Stats.set_hop_builds stats (Distcache.hop_builds ctx.Ctx.topo);
  Result.map (fun m -> (m, degradation)) result
